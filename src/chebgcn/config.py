"""Run configuration: defaults, YAML config files, env and flag overrides.

Precedence, lowest to highest: built-in defaults, config file, environment
variables (CHEBGCN_SEED, CHEBGCN_OUT, CHEBGCN_THREADS), command-line flags.
Config files are UTF-8 YAML (JSON parses too); packaged presets can be
named in place of a path. ``experiment.threads`` defaults to null, which
leaves the worker count to ``workers.worker_count``: one worker per usable
CPU.
"""

import copy
import numbers
import os
import typing
from dataclasses import fields
from importlib import resources

import yaml

from .affinity import SimilarityKernel
from .experiments import ArchSpec, BranchSpec, ModuleSpec, TrainConfig, derive_seed
from .io import _utf8_fault
from .simdata import SimConfig

ENV_PREFIX = "CHEBGCN_"


def _defaults(cls, *skip) -> dict:
    """A dataclass's field defaults as config values: tuples become lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


# The keys a module mapping may leave out, with their values.
_MODULE_DEFAULTS = {"width": 16, **_defaults(ModuleSpec, "branches")}

# A key that sets a dataclass field takes its default from that dataclass.
DEFAULTS = {
    "dataset": {
        "source": "sim",  # sim | files
        "features": None,
        "edges": None,
    },
    "sim": {**_defaults(SimConfig), "seed": None},  # seed None: derived from experiment.seed
    "affinity": {
        "meta": None,
        "features": None,
        "elements": None,  # None: every column in the meta CSV
        "betas": {},
        "mode": "mixed",
        "element": None,
        **_defaults(SimilarityKernel),
        "strict": False,
    },
    "architecture": {
        "modules": [{"orders": [1], **_MODULE_DEFAULTS}],
        **_defaults(ArchSpec, "modules"),
    },
    "training": _defaults(TrainConfig, "n_folds", "seed"),
    "experiment": {
        "folds": TrainConfig.n_folds,
        "seed": TrainConfig.seed,
        "threads": None,  # None: workers.worker_count's default
        "out": "results",
        "k_range": [1, 6],
        "sweep_mode": "pairs",  # pairs | single
        "width": 16,
        "k1": 1,
        "k2": 10,
    },
}

# Kinds of keys that set no dataclass field, where no check below implies one.
_KEY_KINDS = {
    "dataset": {"features": str | None, "edges": str | None},
    "affinity": {"meta": str | None, "features": str | None, "element": str | None,
                 "strict": bool},
    "experiment": {**dict.fromkeys(("folds", "seed", "k1", "k2", "width"), int),
                   "threads": int | None},
}

# How a config value of each annotated kind is worded in errors.
_KIND_WORDS = {int: "an integer", float: "a number within float range", str: "a string",
               bool: "true or false", tuple: "a list of numbers within float range",
               type(None): "null"}


def _is(kind, value) -> bool:
    """Whether a config value is of an annotated kind: int and float take no
    bool, float takes no integer too large for a float, tuple takes a list
    of numbers."""
    if kind is tuple:
        return isinstance(value, list) and all(_is(float, v) for v in value)
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not (isinstance(value, abstract) and (kind is bool or not isinstance(value, bool))):
        return False
    if kind is float:
        try:
            float(value)
        except OverflowError:
            return False
    return True


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
    """Resolve a config argument: an existing path, else, for a bare file
    name, a packaged preset."""
    if os.path.exists(name):
        return name
    preset = resources.files("chebgcn").joinpath("presets", name)
    if not os.path.dirname(name) and preset.is_file():
        return str(preset)
    raise ConfigError(
        f"no config file or preset named {name!r}; presets: {', '.join(available_presets())}"
    )


def load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise ConfigError(_utf8_fault(path)) from None
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


def resolve_config(config=None, seed=None, out=None, threads=None, env=None) -> dict:
    """Merge defaults, an optional config file, env vars, and flag overrides."""
    env = os.environ if env is None else env
    cfg = copy.deepcopy(DEFAULTS)
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


def _check_kind(name: str, kind, value) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` is of ``kind``,
    an annotation such as ``int`` or ``str | None``."""
    kinds = typing.get_args(kind) or (kind,)
    _require(any(_is(k, value) for k in kinds),
             f"{name} must be {' or '.join(_KIND_WORDS[k] for k in kinds)}, got {value!r}")


def _checked(section: str, cls, values: dict, **fixed):
    """Build ``cls`` from config ``values``, each checked against its field's
    annotation (lists become tuples), and ``fixed`` fields; its ValueError or
    TypeError becomes a ConfigError under ``section``."""
    kinds = typing.get_type_hints(cls)
    for key, value in values.items():
        _check_kind(f"{section}.{key}", kinds[key], value)
    values = {k: tuple(v) if kinds[k] is tuple else v for k, v in values.items()}
    try:
        return cls(**values, **fixed)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def validate_config(cfg: dict) -> None:
    """Layout, type and range checks; raises ConfigError naming the field."""
    unknown = set(cfg) - set(DEFAULTS)
    _require(not unknown, f"unknown config sections: {sorted(unknown)}")
    for section, defaults in DEFAULTS.items():
        block = cfg.get(section, {})
        _require(isinstance(block, dict), f"{section}: must be a mapping")
        bad = set(block) - set(defaults)
        _require(not bad, f"{section}: unknown keys {sorted(bad)}")
        for key, kind in _KEY_KINDS.get(section, {}).items():
            _check_kind(f"{section}.{key}", kind, block[key])

    ds = cfg["dataset"]
    _require(ds["source"] in ("sim", "files"), "dataset.source must be 'sim' or 'files'")
    if ds["source"] == "files":
        _require(ds["features"], "dataset.features is required when dataset.source is 'files'")
        _require(ds["edges"], "dataset.edges is required when dataset.source is 'files'")

    exp = cfg["experiment"]
    _require(exp["threads"] is None or exp["threads"] >= 1, "experiment.threads must be >= 1")
    _require(exp["width"] >= 1, "experiment.width must be at least 1")
    _require(exp["k1"] >= 0 and exp["k2"] >= 0, "experiment.k1 and k2 must be >= 0")
    _require(isinstance(exp["out"], str) and exp["out"], "experiment.out must be a path")
    kr = exp["k_range"]
    _require(
        isinstance(kr, (list, tuple)) and len(kr) == 2
        and all(_is(int, v) for v in kr) and 0 <= kr[0] <= kr[1],
        "experiment.k_range must be [lo, hi] with 0 <= lo <= hi",
    )
    _require(exp["sweep_mode"] in ("pairs", "single"),
             "experiment.sweep_mode must be 'pairs' or 'single'")

    aff = cfg["affinity"]
    _require(aff["mode"] in ("single", "mixed", "mixed_nosim"),
             "affinity.mode must be single, mixed, or mixed_nosim")
    _require(aff["distance"] in ("correlation", "euclidean"),
             "affinity.distance must be correlation or euclidean")
    names = aff["elements"]
    _require(names is None or (isinstance(names, list) and names
                               and all(isinstance(name, str) for name in names)),
             "affinity.elements must be a non-empty list of meta-data column names")
    _require(names is None or len(set(names)) == len(names),
             f"affinity.elements names an element more than once: {names}")
    _require(isinstance(aff["betas"], dict), "affinity.betas must map element names to numbers")
    for name, beta in aff["betas"].items():
        _require(_is(float, beta) and 0 <= beta < float("inf"),
                 f"affinity.betas.{name} must be a number >= 0, got {beta!r}")
    _require(aff["element"] is None or aff["mode"] == "single",
             f"affinity.element applies only in single mode, not {aff['mode']!r}")
    _checked("affinity", SimilarityKernel, {f.name: aff[f.name] for f in fields(SimilarityKernel)})

    to_sim_config(cfg)
    to_train_config(cfg)
    to_arch_spec(cfg)


def to_sim_config(cfg: dict) -> SimConfig:
    sim = cfg["sim"]
    seed = derive_seed(cfg["experiment"]["seed"], "sim") if sim["seed"] is None else sim["seed"]
    return _checked("sim", SimConfig, {**sim, "seed": seed})


def to_train_config(cfg: dict) -> TrainConfig:
    exp = cfg["experiment"]
    _require(exp["folds"] >= 2, f"experiment.folds must be at least 2, got {exp['folds']}")
    return _checked("training", TrainConfig, cfg["training"], n_folds=exp["folds"], seed=exp["seed"])


def to_arch_spec(cfg: dict) -> ArchSpec:
    arch = cfg["architecture"]
    _require(isinstance(arch["modules"], list), "architecture.modules must be a list of mappings")
    modules = []
    for i, m in enumerate(arch["modules"]):
        where = f"architecture.modules[{i}]"
        _require(isinstance(m, dict), f"{where} must be a mapping")
        bad = set(m) - {"orders", *_MODULE_DEFAULTS}
        _require(not bad, f"{where}: unknown keys {sorted(bad)}")
        m = {**_MODULE_DEFAULTS, **m}
        orders = m.get("orders")
        _require(isinstance(orders, list) and orders,
                 f"{where}.orders must be a non-empty list of ints >= 0")
        branches = tuple(_checked(where, BranchSpec, {"order": k, "width": m["width"]})
                         for k in orders)
        modules.append(_checked(where, ModuleSpec, {"aggregator": m["aggregator"]},
                                branches=branches))
    values = {k: v for k, v in arch.items() if k != "modules"}
    return _checked("architecture", ArchSpec, values, modules=tuple(modules))


def effective_yaml(cfg: dict) -> str:
    """Canonical YAML rendering of the effective config; feeding it back in
    as a config file reproduces the same run."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)
