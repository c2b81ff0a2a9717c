"""Run configuration: defaults, YAML config files, env and flag overrides.

Precedence, lowest to highest: built-in defaults, config file, environment
variables (CHEBGCN_SEED, CHEBGCN_OUT, CHEBGCN_THREADS), command-line flags.
Config files are YAML (JSON parses too); packaged presets can be named in
place of a path. The default of ``experiment.threads`` is worked out from the
usable CPUs and the BLAS thread count in the environment.
"""

import copy
import os
from importlib import resources

import yaml

from .experiments import ArchSpec, BranchSpec, ModuleSpec, TrainConfig, derive_seed
from .simdata import SimConfig

ENV_PREFIX = "CHEBGCN_"

DEFAULTS = {
    "dataset": {
        "source": "sim",  # sim | files
        "features": None,
        "edges": None,
    },
    "sim": {
        "n_per_class": 300,
        "means": [-1.0, 1.0],
        "variances": [0.5, 0.1],
        "beta": 0.5,
        "feature_mode": "discriminative",
        "edge_weights": "binary",
        "seed": None,  # None: derived from experiment.seed
    },
    "affinity": {
        "meta": None,
        "features": None,
        "elements": None,  # None: every column in the meta CSV
        "betas": {},
        "mode": "mixed",
        "element": None,
        "distance": "correlation",
        "sigma": None,
        "strict": False,
    },
    "architecture": {
        "modules": [{"orders": [1], "width": 16, "aggregator": "concat"}],
        "classifier": True,
        "activation": "relu",
    },
    "training": {
        "epochs": 200,
        "lr": 0.2,
        "optimizer": "sgd",
        "early_stop_window": 0,
        "stop_metric": "val",
        "val_fraction": 0.1,
        "dropout": 0.0,
        "weight_decay": 0.0,
    },
    "experiment": {
        "folds": 10,
        "seed": 0,
        "threads": 1,  # resolve_config sets usable CPUs // BLAS threads
        "out": "results",
        "k_range": [1, 6],
        "sweep_mode": "pairs",  # pairs | single
        "width": 16,
        "k1": 1,
        "k2": 10,
    },
}


class ConfigError(ValueError):
    """A config file, override, or field value is unusable."""


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def available_presets() -> list:
    root = resources.files("chebgcn").joinpath("presets")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def find_config(name: str) -> str:
    """Resolve a config argument: an existing path, else a packaged preset."""
    if os.path.exists(name):
        return name
    preset = resources.files("chebgcn").joinpath("presets", os.path.basename(name))
    if preset.is_file():
        return str(preset)
    raise ConfigError(
        f"no config file or preset named {name!r}; presets: {', '.join(available_presets())}"
    )


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    return data


def _env_overrides(env) -> dict:
    over = {}
    for key, field in (("SEED", "seed"), ("THREADS", "threads")):
        raw = env.get(ENV_PREFIX + key)
        if raw is not None:
            try:
                over[field] = int(raw)
            except ValueError:
                raise ConfigError(f"{ENV_PREFIX}{key} must be an integer, got {raw!r}") from None
    if env.get(ENV_PREFIX + "OUT") is not None:
        over["out"] = env[ENV_PREFIX + "OUT"]
    return over


# Variables that set a BLAS library's thread count, in the order they are read.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads(env) -> int:
    """Threads BLAS runs in each process: the first of BLAS_THREAD_VARS that
    is set, when it holds a positive count; else every usable CPU, which is
    what an unpinned BLAS uses."""
    raw = next((env[var] for var in BLAS_THREAD_VARS if env.get(var)), "")
    try:
        n = int(raw.split(",")[0])
    except ValueError:
        n = 0
    return n if n >= 1 else usable_cpus()


def resolve_config(config=None, seed=None, out=None, threads=None, env=None) -> dict:
    """Merge defaults, an optional config file, env vars, and flag overrides."""
    env = os.environ if env is None else env
    cfg = copy.deepcopy(DEFAULTS)
    # As many workers as fill the usable CPUs when each runs blas_threads(env)
    # BLAS threads: 1 while BLAS is unpinned.
    cfg["experiment"]["threads"] = max(1, usable_cpus() // blas_threads(env))
    if config is not None:
        cfg = deep_merge(cfg, load_config_file(find_config(config)))
    env_over = _env_overrides(env)
    if env_over:
        cfg = deep_merge(cfg, {"experiment": env_over})
    flags = {}
    if seed is not None:
        flags["seed"] = seed
    if out is not None:
        flags["out"] = out
    if threads is not None:
        flags["threads"] = threads
    if flags:
        cfg = deep_merge(cfg, {"experiment": flags})
    validate_config(cfg)
    return cfg


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def validate_config(cfg: dict) -> None:
    """Structural and range checks; raises ConfigError naming the field."""
    unknown = set(cfg) - set(DEFAULTS)
    _require(not unknown, f"unknown config sections: {sorted(unknown)}")
    for section, defaults in DEFAULTS.items():
        block = cfg.get(section, {})
        _require(isinstance(block, dict), f"{section}: must be a mapping")
        bad = set(block) - set(defaults)
        _require(not bad, f"{section}: unknown keys {sorted(bad)}")

    ds = cfg["dataset"]
    _require(ds["source"] in ("sim", "files"), "dataset.source must be 'sim' or 'files'")
    if ds["source"] == "files":
        _require(ds["features"], "dataset.features is required when dataset.source is 'files'")
        _require(ds["edges"], "dataset.edges is required when dataset.source is 'files'")

    exp = cfg["experiment"]
    for field in ("folds", "seed", "threads", "k1", "k2", "width"):
        _require(isinstance(exp[field], int) and not isinstance(exp[field], bool),
                 f"experiment.{field} must be an integer")
    _require(exp["folds"] >= 2, "experiment.folds must be at least 2")
    _require(exp["threads"] >= 1, "experiment.threads must be at least 1")
    _require(exp["width"] >= 1, "experiment.width must be at least 1")
    _require(exp["k1"] >= 0 and exp["k2"] >= 0, "experiment.k1 and k2 must be >= 0")
    _require(isinstance(exp["out"], str) and exp["out"], "experiment.out must be a path")
    kr = exp["k_range"]
    _require(
        isinstance(kr, (list, tuple)) and len(kr) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in kr)
        and 0 <= kr[0] <= kr[1],
        "experiment.k_range must be [lo, hi] with 0 <= lo <= hi",
    )
    _require(exp["sweep_mode"] in ("pairs", "single"),
             "experiment.sweep_mode must be 'pairs' or 'single'")

    arch = cfg["architecture"]
    mods = arch["modules"]
    _require(isinstance(mods, list) and mods, "architecture.modules must be a non-empty list")
    for i, m in enumerate(mods):
        _require(isinstance(m, dict), f"architecture.modules[{i}] must be a mapping")
        bad = set(m) - {"orders", "width", "aggregator"}
        _require(not bad, f"architecture.modules[{i}]: unknown keys {sorted(bad)}")
        orders = m.get("orders")
        _require(
            isinstance(orders, (list, tuple)) and orders
            and all(isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in orders),
            f"architecture.modules[{i}].orders must be a non-empty list of ints >= 0",
        )
        width = m.get("width", 16)
        _require(isinstance(width, int) and width >= 1,
                 f"architecture.modules[{i}].width must be an integer >= 1")
        _require(m.get("aggregator", "concat") in ("concat", "maxpool"),
                 f"architecture.modules[{i}].aggregator must be 'concat' or 'maxpool'")

    # Numeric ranges of the remaining sections are enforced by the dataclass
    # constructors; surface those errors under the section name.
    try:
        to_train_config(cfg)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"training: {exc}") from None
    if ds["source"] == "sim":
        try:
            to_sim_config(cfg)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"sim: {exc}") from None

    aff = cfg["affinity"]
    _require(aff["mode"] in ("single", "mixed", "mixed_nosim"),
             "affinity.mode must be single, mixed, or mixed_nosim")
    _require(aff["distance"] in ("correlation", "euclidean"),
             "affinity.distance must be correlation or euclidean")
    _require(isinstance(aff["betas"], dict), "affinity.betas must map element names to numbers")


def to_sim_config(cfg: dict) -> SimConfig:
    s = cfg["sim"]
    seed = s["seed"]
    if seed is None:
        seed = derive_seed(cfg["experiment"]["seed"], "sim")
    return SimConfig(
        n_per_class=s["n_per_class"],
        means=tuple(s["means"]),
        variances=tuple(s["variances"]),
        beta=s["beta"],
        feature_mode=s["feature_mode"],
        edge_weights=s["edge_weights"],
        seed=seed,
    )


def to_train_config(cfg: dict) -> TrainConfig:
    t = cfg["training"]
    e = cfg["experiment"]
    return TrainConfig(
        epochs=t["epochs"],
        lr=t["lr"],
        optimizer=t["optimizer"],
        early_stop_window=t["early_stop_window"],
        stop_metric=t["stop_metric"],
        val_fraction=t["val_fraction"],
        dropout=t["dropout"],
        weight_decay=t["weight_decay"],
        n_folds=e["folds"],
        seed=e["seed"],
    )


def to_arch_spec(cfg: dict) -> ArchSpec:
    arch = cfg["architecture"]
    modules = tuple(
        ModuleSpec(
            branches=tuple(BranchSpec(k, m.get("width", 16)) for k in m["orders"]),
            aggregator=m.get("aggregator", "concat"),
        )
        for m in arch["modules"]
    )
    return ArchSpec(modules=modules, classifier=arch["classifier"], activation=arch["activation"])


def effective_yaml(cfg: dict) -> str:
    """Canonical YAML rendering of the effective config; feeding it back in
    as a config file reproduces the same run."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)
