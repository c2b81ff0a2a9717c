"""The benchmark fails a run whose seed-0 per-fold accuracies differ from
``perfbench/reference.json``. Run the same seed-0 commands here, so that a
change which moves the last bits of training far enough to move an accuracy
fails the test suite, not only the benchmark."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from chebgcn.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """perfbench/workloads.py, imported by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["cv-deep", "cohort"])
def test_seed_0_accuracies_match_the_benchmark_reference(workload, tmp_path, monkeypatch):
    for var in [v for v in os.environ if v.startswith("CHEBGCN_")]:
        monkeypatch.delenv(var)
    monkeypatch.chdir(tmp_path)
    steps = _workloads().WORKLOADS[workload](tmp_path, 0)
    for step in steps:
        assert main(list(step.args)) == 0, step.args
    (train,) = [step for step in steps if step.kind == "train"]
    summary = json.loads((tmp_path / train.out / "summary.json").read_text())
    # `train` writes one result, `compare` one per model
    models = summary["models"] if "models" in summary else {"model": summary["result"]}
    reference = json.loads((PERFBENCH / "reference.json").read_text())[workload]
    assert {name: res["accuracies"] for name, res in models.items()} == reference
