"""The benchmark's workloads: which chebgcn commands a pass runs, on what inputs.

Every workload is one graph-building command followed by one training
command, each a separate ``python3 -m chebgcn.cli`` process. Inputs are made
from the workload seed only: both workloads hand it to the CLI as
``--seed``, and ``cohort`` also draws its CSVs from it.

``cv-deep`` uses a packaged preset with a smaller epoch budget, so that
several passes fit into one run (see README.md for the sizes). It reads the
dataset back from the files ``chebgcn simdata`` writes, which gives the same
graph, bit for bit, as generating it in memory.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

PRESETS = Path(__file__).resolve().parent.parent / "src" / "chebgcn" / "presets"

# Epoch budgets per training run; the presets use 200.
DEEP_EPOCHS = 30
COHORT_EPOCHS = 40

# Synthetic cohort: subjects, features per subject, features that carry the
# class signal, acquisition sites, and the share of unknown ages.
COHORT_NODES = 1000
COHORT_FEATURES = 200
COHORT_SIGNAL = 20
COHORT_SITES = 20
COHORT_AGE_MISSING = 0.05


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass. ``kind`` is "graph" or "train"; ``out`` is
    its output directory, relative to the work directory."""

    kind: str
    args: tuple
    out: str


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path.name


def prepare_cv_deep(work: Path, seed: int) -> list:
    cfg = yaml.safe_load((PRESETS / "overlap-compare.cfg").read_text())
    cfg["dataset"] = {"source": "files", "features": "data/features.csv", "edges": "data/edges.txt"}
    cfg["training"]["epochs"] = DEEP_EPOCHS
    common = ("--config", _write_config(work / "overlap-compare.json", cfg), "--seed", str(seed))
    return [
        Step("graph", ("simdata", *common, "--out", "data"), "data"),
        Step("train", ("compare", *common, "--out", "result"), "result"),
    ]


def write_cohort(directory: Path, seed: int) -> None:
    """Write ``features.csv`` and ``meta.csv`` for a seeded synthetic cohort.

    Two balanced classes differ in the mean of the first COHORT_SIGNAL
    features. Meta-data holds a numeric ``age`` with some ``na`` cells, a
    categorical ``sex`` and a categorical ``site``.
    """
    rng = np.random.default_rng(seed)
    n = COHORT_NODES
    labels = rng.permutation(np.arange(n) % 2)
    features = rng.standard_normal((n, COHORT_FEATURES))
    features[:, :COHORT_SIGNAL] += np.where(labels == 1, 0.5, -0.5)[:, None]
    train = rng.random(n) < 0.9
    age = np.round(rng.uniform(20.0, 80.0, n), 1)
    age_missing = rng.random(n) < COHORT_AGE_MISSING
    sex = rng.integers(0, 2, n)
    site = rng.integers(0, COHORT_SITES, n)

    directory.mkdir(parents=True, exist_ok=True)
    header = ["node"] + [f"f{j}" for j in range(COHORT_FEATURES)] + ["label", "split"]
    lines = [",".join(header)]
    for i in range(n):
        cells = [str(i)] + [repr(float(v)) for v in features[i]]
        cells += [str(int(labels[i])), "train" if train[i] else "test"]
        lines.append(",".join(cells))
    (directory / "features.csv").write_text("\n".join(lines) + "\n")

    lines = ["node,age,sex,site"]
    for i in range(n):
        a = "na" if age_missing[i] else repr(float(age[i]))
        lines.append(f"{i},{a},{'FM'[sex[i]]},site{site[i]:02d}")
    (directory / "meta.csv").write_text("\n".join(lines) + "\n")


def prepare_cohort(work: Path, seed: int) -> list:
    write_cohort(work / "cohort", seed)
    name = _write_config(work / "cohort.json", {
        "dataset": {"source": "files", "features": "graph/features.csv", "edges": "graph/edges.txt"},
        "affinity": {
            "meta": "cohort/meta.csv",
            "features": "cohort/features.csv",
            "betas": {"age": 2.0, "sex": 0.0, "site": 0.0},
            "mode": "mixed",
        },
        "architecture": {"modules": [{"orders": [3], "width": 16, "aggregator": "concat"}]},
        "training": {"epochs": COHORT_EPOCHS},
        "experiment": {"folds": 10},
    })
    common = ("--config", name, "--seed", str(seed))
    return [
        Step("graph", ("build-graph", *common, "--out", "graph"), "graph"),
        Step("train", ("train", *common, "--out", "result"), "result"),
    ]


# Workload name -> (work_dir, seed) -> list of Step. BENCHMARK.json says why
# each one is in the benchmark.
WORKLOADS = {
    "cv-deep": prepare_cv_deep,
    "cohort": prepare_cohort,
}
