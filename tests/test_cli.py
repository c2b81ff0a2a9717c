import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import yaml

import chebgcn
import chebgcn.experiments
import chebgcn.io
import chebgcn.workers
from chebgcn.affinity import MetaElement, affinity_graph
from chebgcn.cli import main
from chebgcn.experiments import COMPARE_MODELS
from chebgcn.graph import CsrMatrix, PopulationGraph
from chebgcn.io import load_graph, read_edge_list, read_features_csv, write_features_csv
from chebgcn.simdata import SimConfig, generate

from conftest import CountingPool, package_env


def write_cfg(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def quick_sections(out, **extra):
    cfg = {
        "sim": {"n_per_class": 15, "variances": [0.3, 0.3], "beta": 0.8},
        "training": {"epochs": 10},
        "experiment": {"folds": 3, "out": str(out)},
    }
    for section, payload in extra.items():
        cfg.setdefault(section, {}).update(payload)
    return cfg


class TestSimdataCommand:
    def test_writes_dataset_and_effective_config(self, tmp_path, capsys):
        out = tmp_path / "res"
        cfg = write_cfg(tmp_path, quick_sections(out))
        assert main(["simdata", "--config", cfg]) == 0
        feats, labels, train = read_features_csv(out / "features.csv")
        assert feats.shape == (30, 2)
        assert train.all()
        assert read_edge_list(out / "edges.txt", n_nodes=30).nnz > 0
        echoed = yaml.safe_load((out / "effective-config.yaml").read_text())
        assert echoed["experiment"]["out"] == str(out)
        captured = capsys.readouterr()
        assert "30 nodes" in captured.out

    def test_zero_beta_warns_about_empty_graph(self, tmp_path, capsys):
        out = tmp_path / "res"
        cfg = write_cfg(tmp_path, quick_sections(out, sim={"beta": 0.0}))
        assert main(["simdata", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "no edges" in captured.err

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_cfg(tmp_path, quick_sections(a), "a.yaml")
        cfg_b = write_cfg(tmp_path, quick_sections(b), "b.yaml")
        assert main(["simdata", "--config", cfg_a, "--seed", "5"]) == 0
        assert main(["simdata", "--config", cfg_b, "--seed", "5"]) == 0
        assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()
        assert (a / "edges.txt").read_bytes() == (b / "edges.txt").read_bytes()

    def test_seed_flag_changes_the_draw(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_cfg(tmp_path, quick_sections(a), "a.yaml")
        cfg_b = write_cfg(tmp_path, quick_sections(b), "b.yaml")
        assert main(["simdata", "--config", cfg_a, "--seed", "1"]) == 0
        assert main(["simdata", "--config", cfg_b, "--seed", "2"]) == 0
        assert (a / "features.csv").read_bytes() != (b / "features.csv").read_bytes()

    # sha256 of (features.csv, edges.txt) per packaged preset at seed 0. All
    # five use binary weights, so no libm exp goes into the bytes; the two
    # presets with variances (1.0, 1.0) draw the same data.
    PRESET_DIGESTS = {
        "compact-clusters": ("93e4f6c46a335f7bca787d41ce1d8ad16c01b42d313419b90c34be9b8adf2010",
                             "d2cb3f6bd86be1ec2baad00c69e6767acb31c12fc684da09edb184862d5a1f46"),
        "order-pairs-sweep": ("40a7e38b535615300739b5df75dd269eea703dc5b41b73f4bd8fdae3909b2957",
                              "157df4c44fbb288bb2330f6a41bc64a2972210585eb7c585130850060037e747"),
        "order-sensitivity": ("14c7e6aff74443e6d07a010387369ee93fe6c084844e511d57f958deb03c0d23",
                              "fc2a6b6e8f5a49c08d951d3cd66f08abad9b3a8186c6bc1d685e2c295beb3da0"),
        "overlap-compare": ("40a7e38b535615300739b5df75dd269eea703dc5b41b73f4bd8fdae3909b2957",
                            "157df4c44fbb288bb2330f6a41bc64a2972210585eb7c585130850060037e747"),
        "random-features": ("08a12ecbacfd5194a7b23df80869c3de1d1ac713fb459d00deb1a0c28016e7b1",
                            "d2cb3f6bd86be1ec2baad00c69e6767acb31c12fc684da09edb184862d5a1f46"),
    }

    @pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
    def test_preset_graph_files_keep_their_bytes(self, tmp_path, preset):
        assert main(["simdata", "--config", f"{preset}.cfg", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("features.csv", "edges.txt"))
        assert got == self.PRESET_DIGESTS[preset]


class TestTrainCommand:
    def test_reports_accuracy_and_writes_results(self, tmp_path, capsys):
        out = tmp_path / "res"
        cfg = write_cfg(tmp_path, quick_sections(out))
        assert main(["train", "--config", cfg]) == 0
        assert (out / "cv.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "train"
        assert len(summary["result"]["accuracies"]) == 3
        captured = capsys.readouterr()
        assert "accuracy" in captured.out and "over 3 folds" in captured.out

    def test_trains_from_files_source(self, tmp_path, capsys):
        data = tmp_path / "data"
        cfg_sim = write_cfg(tmp_path, quick_sections(data), "sim.yaml")
        assert main(["simdata", "--config", cfg_sim, "--seed", "3"]) == 0
        # reading the dataset back must give the same cv numbers as sim mode
        out = tmp_path / "res"
        sections = quick_sections(out, dataset={
            "source": "files",
            "features": str(data / "features.csv"),
            "edges": str(data / "edges.txt"),
        })
        cfg = write_cfg(tmp_path, sections, "train.yaml")
        assert main(["train", "--config", cfg]) == 0
        assert json.loads((out / "summary.json").read_text())["result"]["accuracies"]

    def test_effective_config_reproduces_the_run(self, tmp_path):
        first = tmp_path / "first"
        cfg = write_cfg(tmp_path, quick_sections(first))
        assert main(["train", "--config", cfg]) == 0
        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "effective-config.yaml"),
                     "--out", str(second)]) == 0
        assert (first / "cv.csv").read_bytes() == (second / "cv.csv").read_bytes()

    @pytest.mark.parametrize("command, mode, result", [
        ("train", "pairs", "cv.csv"),
        ("sweep", "pairs", "sweep.csv"),
        ("sweep", "single", "boxplot.csv"),
        ("compare", "pairs", "compare.csv"),
    ])
    def test_summary_does_not_depend_on_the_output_directory(self, tmp_path, command, mode,
                                                             result):
        sections = quick_sections(tmp_path / "unused", training={"epochs": 5},
                                  experiment={"k_range": [1, 2], "k1": 1, "k2": 2, "width": 4,
                                              "sweep_mode": mode})
        cfg = write_cfg(tmp_path, sections)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in (result, "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert json.loads((outs[0] / "summary.json").read_text())["command"] == command

    def test_train_mask_from_files_must_cover_for_cv(self, tmp_path):
        # cv refolds all nodes, so a dataset with its own test split still works
        rng = np.random.default_rng(0)
        n = 12
        adj = np.zeros((n, n))
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        train = np.zeros(n, dtype=bool)
        train[: n // 2] = True
        graph = PopulationGraph(
            adjacency=adj,
            features=rng.standard_normal((n, 2)),
            labels=np.tile([0, 1], n // 2),
            train_mask=train,
        )
        write_features_csv(tmp_path / "features.csv", graph)
        from chebgcn.io import write_edge_list

        write_edge_list(tmp_path / "edges.txt", *graph.edges)
        out = tmp_path / "res"
        sections = quick_sections(out, dataset={
            "source": "files",
            "features": str(tmp_path / "features.csv"),
            "edges": str(tmp_path / "edges.txt"),
        })
        cfg = write_cfg(tmp_path, sections)
        assert main(["train", "--config", cfg]) == 0


class TestSweepCommand:
    def test_pairs_mode_writes_heatmap_csv(self, tmp_path, capsys):
        out = tmp_path / "res"
        sections = quick_sections(out, training={"epochs": 5},
                                  experiment={"k_range": [1, 2], "width": 4})
        cfg = write_cfg(tmp_path, sections)
        assert main(["sweep", "--config", cfg]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,fold,accuracy,epochs"
        assert len(lines) == 1 + 4 * 3  # 4 cells x 3 folds
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["cells"]) == {"1,1", "1,2", "2,1", "2,2"}
        assert "best (k1, k2)" in capsys.readouterr().out

    def test_single_mode_writes_boxplot_csv(self, tmp_path, capsys):
        out = tmp_path / "res"
        sections = quick_sections(out, training={"epochs": 5},
                                  experiment={"k_range": [1, 3], "width": 4,
                                              "sweep_mode": "single"})
        cfg = write_cfg(tmp_path, sections)
        assert main(["sweep", "--config", cfg]) == 0
        lines = (out / "boxplot.csv").read_text().splitlines()
        assert lines[0] == "k,fold,accuracy,epochs"
        assert len(lines) == 1 + 3 * 3
        captured = capsys.readouterr()
        assert captured.out.count("k = ") == 3

    def test_threads_flag_matches_serial_output(self, tmp_path, capsys):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        base = dict(training={"epochs": 5}, experiment={"k_range": [1, 2], "width": 4})
        cfg_s = write_cfg(tmp_path, quick_sections(serial, **base), "s.yaml")
        cfg_p = write_cfg(tmp_path, quick_sections(parallel, **base), "p.yaml")
        assert main(["sweep", "--config", cfg_s, "--threads", "1"]) == 0
        assert main(["sweep", "--config", cfg_p, "--threads", "2"]) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
        assert "warning:" not in capsys.readouterr().err


class TestCompareCommand:
    def test_prints_table_and_speedups(self, tmp_path, capsys):
        out = tmp_path / "res"
        sections = quick_sections(out, training={"epochs": 8},
                                  experiment={"k1": 1, "k2": 3, "width": 4})
        cfg = write_cfg(tmp_path, sections)
        assert main(["compare", "--config", cfg]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "model,fold,accuracy,epochs"
        captured = capsys.readouterr()
        for name in ("sequential-k1k2", "sequential-k1k1", "sequential-k2k2",
                     "inception-concat", "inception-maxpool"):
            assert name in captured.out
        assert captured.out.count("convergence speed-up") == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k1"] == 1 and summary["k2"] == 3


def meta_fixture(tmp_path):
    rng = np.random.default_rng(7)
    n = 8
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    train = np.array([True, True, True, True, False, False, False, False])
    graph = PopulationGraph(
        adjacency=adj,
        features=rng.standard_normal((n, 4)),
        labels=np.tile([0, 1], 4),
        train_mask=train,
    )
    write_features_csv(tmp_path / "features.csv", graph)
    ages = [50, 52, 60, 61, 70, 71, 80, 95]
    lines = ["node,age,sex"]
    for i, age in enumerate(ages):
        lines.append(f"{i},{age},{'M' if i % 2 else 'F'}")
    (tmp_path / "meta.csv").write_text("\n".join(lines) + "\n")


class TestBuildGraphCommand:
    @pytest.mark.parametrize("mode, element", [("mixed", None), ("single", "sex")])
    def test_builds_affinity_graph_with_per_element_counts(self, tmp_path, capsys,
                                                           mode, element):
        meta_fixture(tmp_path)
        out = tmp_path / "res"
        sections = quick_sections(out, affinity={
            "meta": str(tmp_path / "meta.csv"),
            "features": str(tmp_path / "features.csv"),
            "elements": ["age", "sex"],
            "betas": {"age": 2.0},
            "mode": mode,
            "element": element,
        })
        cfg = write_cfg(tmp_path, sections)
        assert main(["build-graph", "--config", cfg]) == 0
        captured = capsys.readouterr()
        # same sex: two groups of 4 -> 2 * C(4,2) = 12 edges
        assert "element sex: 12 edges (beta=0.0)" in captured.out
        if mode == "mixed":
            # ages within 2 of each other: (50,52), (60,61), (70,71) -> 3 edges
            assert "element age: 3 edges (beta=2.0)" in captured.out
            assert "mixed over 2 elements" in captured.out
        else:
            # only the gate that was summed is reported
            assert "element age" not in captured.out
            assert "single over 1 elements" in captured.out
        assert read_edge_list(out / "edges.txt", n_nodes=8).nnz > 0
        feats, labels, train = read_features_csv(out / "features.csv")
        assert feats.shape == (8, 4)

    def test_node_without_its_only_gating_value_is_reported_isolated(self, tmp_path, capsys):
        meta_fixture(tmp_path)
        path = tmp_path / "meta.csv"
        path.write_text(path.read_text().replace("3,61,M", "3,na,M"))
        out = tmp_path / "res"
        sections = quick_sections(out, affinity={
            "meta": str(path), "features": str(tmp_path / "features.csv"),
            "elements": ["age"], "betas": {"age": 2.0}, "mode": "single", "element": "age",
        })
        assert main(["build-graph", "--config", write_cfg(tmp_path, sections)]) == 0
        # (50, 52) and (70, 71) stay linked; node 2 (age 60) lost its only
        # partner to node 3's missing age, and 80 and 95 have none
        assert capsys.readouterr().err.splitlines() == [
            "warning: 4 nodes are isolated under the current thresholds"]
        assert (out / "edges.txt").exists()

    def test_edgeless_graph_gets_one_warning(self, tmp_path, capsys):
        # one site per node: no two nodes share a gate
        (tmp_path / "features.csv").write_text(
            "node,f0,f1,label,split\n"
            + "".join(f"{i},{i + 1},{i % 3},{i % 2},train\n" for i in range(6)))
        (tmp_path / "meta.csv").write_text(
            "node,site\n" + "".join(f"{i},s{i}\n" for i in range(6)))
        sections = quick_sections(tmp_path / "res", affinity={
            "meta": str(tmp_path / "meta.csv"), "features": str(tmp_path / "features.csv"),
        })
        assert main(["build-graph", "--config", write_cfg(tmp_path, sections)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: graph has no edges; every node is isolated"]

    def test_missing_meta_column_is_a_config_error(self, tmp_path, capsys):
        meta_fixture(tmp_path)
        sections = quick_sections(tmp_path / "res", affinity={
            "meta": str(tmp_path / "meta.csv"),
            "features": str(tmp_path / "features.csv"),
            "elements": ["age", "weight"],
        })
        cfg = write_cfg(tmp_path, sections)
        assert main(["build-graph", "--config", cfg]) == 2
        assert "no column 'weight'" in capsys.readouterr().err

    @pytest.mark.parametrize("affinity, field", [
        ({"betas": {"agee": 2.0}}, "affinity.betas"),
        ({"elements": ["age"], "betas": {"age": 2.0, "sex": 0.0}}, "affinity.betas"),
        ({"betas": {"age": "two"}}, "affinity.betas.age"),
        ({"element": "sex"}, "affinity.element "),
        ({"elements": "age"}, "affinity.elements must be a non-empty list"),
    ])
    def test_bad_affinity_config_exits_2_naming_the_field(self, tmp_path, capsys,
                                                          affinity, field):
        meta_fixture(tmp_path)
        out = tmp_path / "res"
        sections = quick_sections(out, affinity={
            "meta": str(tmp_path / "meta.csv"),
            "features": str(tmp_path / "features.csv"),
            **affinity,
        })
        assert main(["build-graph", "--config", write_cfg(tmp_path, sections)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (out / "edges.txt").exists()

    def test_requires_input_files(self, tmp_path, capsys):
        sections = quick_sections(tmp_path / "res", affinity={
            "meta": str(tmp_path / "nope.csv"),
            "features": str(tmp_path / "also-nope.csv"),
        })
        cfg = write_cfg(tmp_path, sections)
        assert main(["build-graph", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err


def generated_graph(tmp_path):
    return generate(SimConfig(n_per_class=4))


def affinity_built_graph(tmp_path):
    site = MetaElement(name="site", values=np.array([0.0, 0.0, 1.0, 1.0]), beta=0.0)
    return affinity_graph([site], np.eye(4), np.array([0, 1, 0, 1]))


def loaded_graph(tmp_path):
    meta_fixture(tmp_path)
    (tmp_path / "edges.txt").write_text("0 1 1.0\n")
    return load_graph(tmp_path / "features.csv", tmp_path / "edges.txt")


def build_graph_output(tmp_path):
    meta_fixture(tmp_path)
    out = tmp_path / "res"
    sections = quick_sections(out, affinity={"meta": str(tmp_path / "meta.csv"),
                                             "features": str(tmp_path / "features.csv")})
    assert main(["build-graph", "--config", write_cfg(tmp_path, sections)]) == 0
    return load_graph(out / "features.csv", out / "edges.txt")


@pytest.mark.parametrize("produce, train", [
    (generated_graph, [True] * 8),
    (affinity_built_graph, [True] * 4),
    (loaded_graph, [True] * 4 + [False] * 4),  # meta_fixture's mixed split
    (build_graph_output, [True] * 4 + [False] * 4),
])
def test_test_mask_is_the_read_only_complement_of_train_mask(tmp_path, produce, train):
    graph = produce(tmp_path)
    npt.assert_array_equal(graph.train_mask, train)
    npt.assert_array_equal(graph.test_mask, ~graph.train_mask)
    with pytest.raises(ValueError, match="read-only"):
        graph.test_mask[0] = not graph.test_mask[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.test_mask = graph.train_mask


@pytest.mark.parametrize("command, mode, result", [
    ("simdata", "pairs", "edges.txt"),
    ("build-graph", "pairs", "edges.txt"),
    ("train", "pairs", "cv.csv"),
    ("compare", "pairs", "compare.csv"),
    ("sweep", "single", "boxplot.csv"),
    ("sweep", "pairs", "sweep.csv"),
])
def test_results_do_not_depend_on_threads(tmp_path, monkeypatch, command, mode, result):
    # Graph files of any size are formatted by the workers, in many chunks.
    monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
    monkeypatch.setattr("chebgcn.io._CHUNK_FIELDS", 12)
    started = []
    pool_class = chebgcn.workers.ProcessPoolExecutor
    monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                        lambda **kw: started.append(kw["max_workers"]) or pool_class(**kw))
    meta_fixture(tmp_path)
    out = tmp_path / "res"
    extra = {"affinity": {"meta": str(tmp_path / "meta.csv"),
                          "features": str(tmp_path / "features.csv")}}
    sections = quick_sections(out, training={"epochs": 5, "optimizer": "adam", "dropout": 0.2},
                              experiment={"k_range": [1, 2], "k1": 1, "k2": 2, "width": 4,
                                          "sweep_mode": mode},
                              **(extra if command == "build-graph" else {}))
    cfg = write_cfg(tmp_path, sections)
    outputs = []
    for threads in ("1", "2"):
        assert main([command, "--config", cfg, "--threads", threads]) == 0
        # every file but the echoed config, which records the count
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()
                        if path.name != "effective-config.yaml"})
        assert bool(started) == (threads == "2")
    assert result in outputs[0]
    if command in ("simdata", "build-graph"):
        assert "edges.txt.cache" in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, sparse", [("simdata", True), ("build-graph", False)])
def test_the_graph_sidecar_changes_no_result(tmp_path, monkeypatch, command, sparse):
    meta_fixture(tmp_path)
    data = tmp_path / "data"
    extra = {"affinity": {"meta": str(tmp_path / "meta.csv"),
                          "features": str(tmp_path / "features.csv")}}
    sections = quick_sections(data, sim={"beta": 0.4}, **(extra if command == "build-graph" else {}))
    assert main([command, "--config", write_cfg(tmp_path, sections, "graph.yaml")]) == 0
    paths = data / "features.csv", data / "edges.txt"
    sidecar = data / "edges.txt.cache"
    saved = sidecar.read_bytes()
    parses = []
    read_edge_columns = chebgcn.io._read_edge_columns
    monkeypatch.setattr("chebgcn.io._read_edge_columns",
                        lambda *a, **kw: parses.append(a) or read_edge_columns(*a, **kw))
    graphs, results = [], []
    for use_sidecar in (True, False):
        if use_sidecar:
            sidecar.write_bytes(saved)
        else:
            sidecar.unlink()
        graphs.append(load_graph(*paths))
        out = tmp_path / f"res-{use_sidecar}"
        train = quick_sections(out, dataset={"source": "files", "features": str(paths[0]),
                                             "edges": str(paths[1])})
        assert main(["train", "--config", write_cfg(tmp_path, train, "train.yaml")]) == 0
        results.append({name: (out / name).read_bytes() for name in ("cv.csv", "summary.json")})
        # the sidecar run parses nothing; the other parses once per load
        assert len(parses) == (0 if use_sidecar else 2)
    hit, miss = graphs
    assert type(hit.adjacency) is type(miss.adjacency)
    assert isinstance(hit.adjacency, CsrMatrix) == sparse
    npt.assert_array_equal(*(m.toarray() if sparse else m for m in (hit.adjacency, miss.adjacency)))
    for field in ("features", "labels", "train_mask", "test_mask"):
        npt.assert_array_equal(getattr(hit, field), getattr(miss, field))
    assert results[0] == results[1]


def test_an_untokenizable_sidecar_header_falls_back_to_the_text(tmp_path):
    # NumPy's header parser raises tokenize.TokenError on this sidecar: the
    # train run parses the text instead and writes what a run without one writes
    data = tmp_path / "data"
    assert main(["simdata", "--config", write_cfg(tmp_path, quick_sections(data), "sim.yaml")]) == 0
    sidecar = data / "edges.txt.cache"
    broken = sidecar.read_bytes().replace(b"}", b"(", 1)
    results = []
    for name in ("no-sidecar", "untokenizable"):
        if name == "no-sidecar":
            sidecar.unlink()
        else:
            sidecar.write_bytes(broken)
        out = tmp_path / name
        train = quick_sections(out, dataset={"source": "files",
                                             "features": str(data / "features.csv"),
                                             "edges": str(data / "edges.txt")})
        assert main(["train", "--config", write_cfg(tmp_path, train, f"{name}.yaml")]) == 0
        results.append({p: (out / p).read_bytes() for p in ("cv.csv", "summary.json")})
    assert results[0] == results[1]


@pytest.mark.parametrize("config, threads, min_fields", [
    ("overlap-compare.cfg", None, None),  # 600 nodes: below the size rule
    ("quick", "1", 0),
])
def test_graph_writes_start_no_pool_where_one_costs_more(tmp_path, monkeypatch, no_pool,
                                                         config, threads, min_fields):
    if min_fields is not None:
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", min_fields)
    # Many small chunks, so that only the size rule or the count keeps a pool away.
    monkeypatch.setattr("chebgcn.io._CHUNK_FIELDS", 12)
    out = tmp_path / "res"
    if config == "quick":
        config = write_cfg(tmp_path, quick_sections(out))
    argv = ["simdata", "--config", config, "--out", str(out)]
    assert main(argv + (["--threads", threads] if threads else [])) == 0
    assert (out / "edges.txt").stat().st_size > 0


@pytest.mark.parametrize("command", ["train", "compare", "sweep"])
def test_default_threads_are_left_to_the_library(tmp_path, capsys, monkeypatch, command):
    # BLAS unpinned in the environment: the workers pin their own, so
    # nothing is printed about threads, and the echoed config keeps null
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "res"
    extra = {"training": {"epochs": 2},
             "experiment": {"k_range": [1, 1], "k1": 1, "k2": 1, "width": 2}}
    assert main([command, "--config", write_cfg(tmp_path, quick_sections(out, **extra))]) == 0
    assert "warning:" not in capsys.readouterr().err
    echoed = yaml.safe_load((out / "effective-config.yaml").read_text())
    assert echoed["experiment"]["threads"] is None


def reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


def test_all_diverged_train_writes_strict_json(tmp_path, capsys):
    out = tmp_path / "res"
    cfg = write_cfg(tmp_path, quick_sections(out, training={"lr": 1.0e300}))
    assert main(["train", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "(3 diverged)" in captured.out
    assert captured.err == "error: train: all 3 folds diverged\n"

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["result"]["mean_accuracy"] is None
    assert summary["result"]["failed_folds"] == [0, 1, 2]


def test_all_diverged_compare_names_every_model(tmp_path, capsys):
    out = tmp_path / "res"
    sections = quick_sections(out, training={"lr": 1.0e300},
                              experiment={"k1": 1, "k2": 2, "width": 4})
    assert main(["compare", "--config", write_cfg(tmp_path, sections)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name}: all 3 folds diverged" for name in COMPARE_MODELS]

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    assert summary["convergence_ratios"] == {"concat": None, "maxpool": None}
    for name in COMPARE_MODELS:
        assert summary["models"][name]["mean_accuracy"] is None
        assert summary["models"][name]["failed_folds"] == [0, 1, 2]
    assert (out / "compare.csv").read_text() == "model,fold,accuracy,epochs\n"


@pytest.mark.parametrize("mode, cells", [
    ("single", ["k = 1", "k = 2"]),
    ("pairs", ["(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)"]),
])
def test_all_diverged_sweep_names_every_cell(tmp_path, capsys, mode, cells):
    sections = quick_sections(tmp_path / "res", training={"lr": 1.0e300},
                              experiment={"k_range": [1, 2], "width": 4, "sweep_mode": mode})
    assert main(["sweep", "--config", write_cfg(tmp_path, sections)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cell}: all 3 folds diverged" for cell in cells]


def allocate_an_exbibyte(*args):
    # more than any address space holds, so NumPy raises at once
    return np.empty(1 << 57)


@pytest.mark.parametrize("patched, threads", [
    ("chebgcn.cli.generate", "1"),
    ("chebgcn.experiments._run_folds", "1"),
    ("chebgcn.experiments._run_folds", "2"),
], ids=["loader", "folds-in-process", "folds-in-workers"])
def test_out_of_memory_exits_2_naming_the_size(tmp_path, capsys, monkeypatch, patched, threads):
    started = []
    pool_class = chebgcn.workers.ProcessPoolExecutor
    monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                        lambda **kw: started.append(kw["max_workers"]) or pool_class(**kw))
    monkeypatch.setattr(patched, allocate_an_exbibyte)
    cfg = write_cfg(tmp_path, quick_sections(tmp_path / "res"))
    assert main(["train", "--config", cfg, "--threads", threads]) == 2
    assert capsys.readouterr().err == (
        "error: train: out of memory: Unable to allocate 1.00 EiB for an array with shape "
        "(144115188075855872,) and data type float64\n")
    assert started == ([2] if threads == "2" else [])


# The test process; a task run anywhere else runs in a forked worker.
TEST_PROCESS = os.getpid()


def kill_own_worker(*args):
    """A task that ends its worker process as the kernel's out-of-memory
    killer would, with SIGKILL."""
    assert os.getpid() != TEST_PROCESS, "the task ran in the calling process"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("command, patched", [
    ("train", "chebgcn.experiments._run_folds"),
    ("simdata", "chebgcn.io._edge_lines"),
], ids=["fold-worker", "formatting-worker"])
def test_a_killed_worker_exits_2_naming_a_likely_memory_kill(tmp_path, capsys, monkeypatch,
                                                             command, patched):
    # Graph files of any size are formatted by the workers, in many chunks.
    monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
    monkeypatch.setattr("chebgcn.io._CHUNK_FIELDS", 12)
    monkeypatch.setattr(patched, kill_own_worker)
    out = tmp_path / "res"
    cfg = write_cfg(tmp_path, quick_sections(out))
    assert main([command, "--config", cfg, "--threads", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error: {command}: a worker process was killed, most likely for lack of memory\n")
    assert not out.exists() or [p.name for p in out.iterdir()] == ["effective-config.yaml"]


def test_train_frees_the_edge_columns_before_the_basis(tmp_path, monkeypatch):
    # No fold reads the loaded graph's edge columns once L̃ exists, so they
    # are freed before the first-module basis and the folds take memory.
    data = tmp_path / "data"
    assert main(["simdata", "--config", write_cfg(tmp_path, quick_sections(data))]) == 0
    columns, freed = [], []

    def load(*paths):
        graph = load_graph(*paths)
        columns.extend(weakref.ref(column) for column in graph.edges)
        return graph

    def probe(name, real):
        def call(*args, **kwargs):
            freed.append((name, [column() is None for column in columns]))
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr("chebgcn.cli.load_graph", load)
    for name in ("_chebyshev_basis", "_run_folds"):
        monkeypatch.setattr(f"chebgcn.experiments.{name}",
                            probe(name, getattr(chebgcn.experiments, name)))
    sections = quick_sections(tmp_path / "res", dataset={
        "source": "files", "features": str(data / "features.csv"),
        "edges": str(data / "edges.txt")})
    assert main(["train", "--config", write_cfg(tmp_path, sections), "--threads", "1"]) == 0
    assert len(columns) == 3
    assert freed[:2] == [("_chebyshev_basis", [True] * 3), ("_run_folds", [True] * 3)]


def test_classifier_free_net_must_cover_the_classes(tmp_path, capsys):
    out = tmp_path / "res"
    sections = quick_sections(out, architecture={
        "classifier": False, "modules": [{"orders": [1], "width": 1}]})
    assert main(["train", "--config", write_cfg(tmp_path, sections)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: architecture.classifier")
    assert "width 1" in err and "2 classes" in err
    assert not (out / "cv.csv").exists()


class TestErrorHandling:
    def test_unknown_preset_exits_2(self, capsys):
        assert main(["train", "--config", "no-such-preset.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"training": {"epochs": 0}})
        assert main(["train", "--config", cfg]) == 2
        assert "training" in capsys.readouterr().err

    @pytest.mark.parametrize("section, payload, message", [
        ("architecture", {"activation": "tanh"}, "architecture: activation must be one of"),
        ("training", {"epochs": 2.5}, "training.epochs must be an integer, got 2.5"),
        ("architecture", {"classifier": "no"}, "architecture.classifier must be true or false"),
        ("training", {"lr": float("inf")}, "training: lr must be positive and finite"),
        ("training", {"lr": 10**400}, "training.lr must be a number within float range, got 1"),
        ("experiment", {"folds": 1}, "experiment.folds must be at least 2, got 1"),
        ("experiment", {"folds": 100},
         "experiment.folds is 100, but the largest class of the 30 nodes has 15"),
        ("sim", {"seed": -1}, "sim: seed must be >= 0, got -1"),
    ])
    def test_bad_config_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                       section, payload, message):
        out = tmp_path / "res"
        cfg = write_cfg(tmp_path, quick_sections(out, **{section: payload}))
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_bad_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHEBGCN_SEED", "many")
        cfg = write_cfg(tmp_path, quick_sections(tmp_path / "res"))
        assert main(["simdata", "--config", cfg]) == 2
        assert "CHEBGCN_SEED" in capsys.readouterr().err

    def files_config(self, tmp_path, features_text=None, edges_text=None):
        assert main(["simdata", "--config", write_cfg(tmp_path, quick_sections(tmp_path / "data"))]) == 0
        features, edges = tmp_path / "data" / "features.csv", tmp_path / "data" / "edges.txt"
        if features_text is not None:
            features.write_bytes(features_text(features.read_bytes()))
        if edges_text is not None:
            edges.write_text(edges_text)
        sections = quick_sections(tmp_path / "res", dataset={
            "source": "files", "features": str(features), "edges": str(edges),
        })
        return write_cfg(tmp_path, sections)

    def test_nan_feature_cell_exits_2_naming_the_line(self, tmp_path, capsys):
        def spoil_node_1(data):
            lines = data.split(b"\r\n")
            fields = lines[2].split(b",")
            lines[2] = b",".join([fields[0], b"nan", *fields[2:]])
            return b"\r\n".join(lines)

        cfg = self.files_config(tmp_path, features_text=spoil_node_1)
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "features.csv:3: feature f0 must be finite, got nan" in err
        assert not (tmp_path / "res" / "cv.csv").exists()

    def test_nan_edge_weight_exits_2_naming_the_line(self, tmp_path, capsys):
        cfg = self.files_config(tmp_path, edges_text="0 1 1.0\n0 2 nan\n")
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "edges.txt:2: edge weight must be finite, got nan" in err
        assert "symmetric" not in err

    def test_nan_feature_in_build_graph_input_exits_2(self, tmp_path, capsys):
        meta_fixture(tmp_path)
        path = tmp_path / "features.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join([fields[0], "inf", *fields[2:]])
        path.write_text("\n".join(lines) + "\n")
        sections = quick_sections(tmp_path / "res", affinity={
            "meta": str(tmp_path / "meta.csv"), "features": str(path),
        })
        assert main(["build-graph", "--config", write_cfg(tmp_path, sections)]) == 2
        assert "features.csv:3: feature f0 must be finite, got inf" in capsys.readouterr().err

    def test_inf_meta_value_in_build_graph_exits_2_naming_line_and_column(self, tmp_path, capsys):
        meta_fixture(tmp_path)
        path = tmp_path / "meta.csv"
        path.write_text(path.read_text().replace("1,52,M", "1,inf,M"))
        sections = quick_sections(tmp_path / "res", affinity={
            "meta": str(path), "features": str(tmp_path / "features.csv"),
        })
        assert main(["build-graph", "--config", write_cfg(tmp_path, sections)]) == 2
        assert "meta.csv:3: column 'age' must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "res" / "edges.txt").exists()

    def test_env_out_is_honored(self, tmp_path, capsys, monkeypatch):
        envdir = tmp_path / "from-env"
        monkeypatch.setenv("CHEBGCN_OUT", str(envdir))
        cfg = write_cfg(tmp_path, {
            "sim": {"n_per_class": 10, "beta": 0.8, "variances": [0.3, 0.3]},
            "training": {"epochs": 5},
            "experiment": {"folds": 3},
        })
        assert main(["simdata", "--config", cfg]) == 0
        assert (envdir / "features.csv").exists()


@pytest.mark.parametrize("command, section, payload, fragment", [
    ("build-graph", "affinity", {"features": "features.csv"},
     "affinity.meta is required for this command"),
    ("train", "dataset", {"source": "files", "features": "no-such.csv", "edges": "edges.txt"},
     "dataset.features: no such file: no-such.csv"),
    ("build-graph", "affinity", {"meta": "short-meta.csv", "features": "features.csv"},
     "meta-data covers 7 nodes but features cover 8"),
])
def test_input_checks_exit_2_naming_the_field(tmp_path, capsys, monkeypatch,
                                              command, section, payload, fragment):
    meta_fixture(tmp_path)
    rows = (tmp_path / "meta.csv").read_text().splitlines()
    (tmp_path / "short-meta.csv").write_text("\n".join(rows[:-1]) + "\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "res"
    cfg = write_cfg(tmp_path, quick_sections(out, **{section: payload}))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["features", "edges", "meta", "config"])
def test_a_byte_that_is_not_utf8_is_bad_input(tmp_path, capsys, kind):
    meta_fixture(tmp_path)
    (tmp_path / "edges.txt").write_text("0 1 1.0\n1 2 1.0\n2 3 0.5\n")
    out = tmp_path / "res"
    if kind == "meta":
        command, extra = "build-graph", {"affinity": {"meta": str(tmp_path / "meta.csv"),
                                                      "features": str(tmp_path / "features.csv")}}
    else:
        command, extra = "train", {"dataset": {"source": "files",
                                               "features": str(tmp_path / "features.csv"),
                                               "edges": str(tmp_path / "edges.txt")}}
    cfg = write_cfg(tmp_path, quick_sections(out, experiment={"folds": 2}, **extra))
    assert main([command, "--config", cfg, "--threads", "1"]) == 0
    path = {"features": tmp_path / "features.csv", "edges": tmp_path / "edges.txt",
            "meta": tmp_path / "meta.csv", "config": tmp_path / "run.yaml"}[kind]
    lines = path.read_bytes().split(b"\n")
    if kind == "config":
        line, lines = 1, [b"# \xff", *lines]
    else:
        line = 3
        lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    offset = path.read_bytes().index(b"\xff")
    assert main([command, "--config", cfg, "--threads", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {path}:{line}: not UTF-8 text: byte 0xff at offset {offset}")


@pytest.mark.parametrize("kind", ["features", "edges", "meta"])
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, kind):
    # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
    meta_fixture(tmp_path)
    (tmp_path / "edges.txt").write_text("0 1 1.0\n1 2 1.0\n2 3 0.5\n")
    if kind == "meta":
        command, extra = "build-graph", {"affinity": {"meta": str(tmp_path / "meta.csv"),
                                                      "features": str(tmp_path / "features.csv")}}
    else:
        command, extra = "train", {"dataset": {"source": "files",
                                               "features": str(tmp_path / "features.csv"),
                                               "edges": str(tmp_path / "edges.txt")}}
    path = tmp_path / {"features": "features.csv", "edges": "edges.txt", "meta": "meta.csv"}[kind]
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + path.read_bytes())
        out = tmp_path / f"res-{len(bom)}"
        cfg = write_cfg(tmp_path, quick_sections(out, experiment={"folds": 2}, **extra))
        assert main([command, "--config", cfg, "--threads", "1"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "effective-config.yaml"})
    assert outputs[0] == outputs[1]


# Each command runs in a fresh interpreter: it prints whether importing the
# package loaded scipy.sparse, the exit code, whether the run loaded it, and
# whether the run multiplied by a CSR Laplacian (loaded SciPy's kernels).
SCIPY_PROBE = """\
import sys
import chebgcn.cli
from chebgcn.graph import _sparsetools
imported = "scipy.sparse" in sys.modules
code = chebgcn.cli.main(sys.argv[1:])
print(imported, code, "scipy.sparse" in sys.modules, _sparsetools.cache_info().currsize == 1)
"""


def test_no_command_loads_scipy_sparse(tmp_path):
    # Importing scipy.sparse takes longer than NumPy, so the package import,
    # building and writing a graph of any density, and training on one leave
    # it out: a CSR Laplacian multiplies with SciPy's kernel module, opened by
    # its file path.
    env = package_env()

    def run(command, sections):
        cfg = write_cfg(tmp_path, sections, f"{command}.yaml")
        done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, command, "--config", cfg,
                               "--threads", "1"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()[-4:]

    meta_fixture(tmp_path)
    # 40 nodes on 8 sites: a site-only gate joins each node to 4 others, 10% of the pairs
    sites = tmp_path / "sites"
    sites.mkdir()
    n = 40
    write_features_csv(sites / "features.csv", PopulationGraph(
        adjacency=np.zeros((n, n)), features=np.random.default_rng(0).standard_normal((n, 4)),
        labels=np.arange(n) % 2, train_mask=np.ones(n, dtype=bool)))
    (sites / "meta.csv").write_text("node,site\n" + "".join(f"{i},s{i % 8}\n" for i in range(n)))
    for graph_command, inputs, data, sparse in [
        ("build-graph", tmp_path, tmp_path / "dense", "False"),
        ("simdata", tmp_path, tmp_path / "csr", "True"),
        ("build-graph", sites, tmp_path / "sites-csr", "True"),
    ]:
        graph = quick_sections(data, sim={"beta": 0.4}, affinity={
            "meta": str(inputs / "meta.csv"), "features": str(inputs / "features.csv")})
        assert run(graph_command, graph) == ["False", "0", "False", "False"]
        dataset = {"source": "files", "features": str(data / "features.csv"),
                   "edges": str(data / "edges.txt")}
        train = quick_sections(tmp_path / "res", experiment={"folds": 2}, dataset=dataset)
        assert run("train", train) == ["False", "0", "False", sparse]
    compare = quick_sections(tmp_path / "res", training={"epochs": 3}, dataset={
        "source": "files", "features": str(tmp_path / "csr" / "features.csv"),
        "edges": str(tmp_path / "csr" / "edges.txt")},
        experiment={"folds": 2, "k1": 1, "k2": 3, "width": 4})
    assert run("compare", compare) == ["False", "0", "False", "True"]


SPAWN_PROBE = """\
import multiprocessing
import sys
import chebgcn.cli
multiprocessing.set_start_method("spawn", force=True)
sys.exit(chebgcn.cli.main(sys.argv[1:]))
"""


def test_spawned_workers_train_on_a_csr_graph(tmp_path):
    # Under spawn each worker unpickles the CSR Laplacian and loads SciPy's
    # kernels itself; the results are the one-process run's, byte for byte.
    env = package_env()
    data = tmp_path / "data"
    assert main(["simdata", "--config", write_cfg(tmp_path, quick_sections(
        data, sim={"beta": 0.4})), "--threads", "1"]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"res-{threads}"
        cfg = write_cfg(tmp_path, quick_sections(
            out, training={"epochs": 3},
            experiment={"folds": 2, "k1": 1, "k2": 3, "width": 4},
            dataset={"source": "files", "features": str(data / "features.csv"),
                     "edges": str(data / "edges.txt")}), f"compare-{threads}.yaml")
        done = subprocess.run([sys.executable, "-c", SPAWN_PROBE, "compare", "--config", cfg,
                               "--threads", threads], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "effective-config.yaml"})
    assert set(outputs[0]) == {"compare.csv", "summary.json"} and outputs[0] == outputs[1]


MA_PROBE = """\
import sys
import chebgcn.cli
code = chebgcn.cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def test_train_on_a_dense_graph_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma (about 10 ms and 1.6 MB) on its first call;
    # counting classes with np.bincount keeps a run on a dense graph off it.
    env = package_env()
    data = tmp_path / "data"
    cfg = write_cfg(tmp_path, quick_sections(
        tmp_path / "res", sim={"beta": 3.0}, dataset={
            "source": "files", "features": str(data / "features.csv"),
            "edges": str(data / "edges.txt")}))
    assert main(["simdata", "--config", cfg, "--out", str(data)]) == 0
    assert isinstance(load_graph(data / "features.csv", data / "edges.txt").adjacency, np.ndarray)
    done = subprocess.run([sys.executable, "-c", MA_PROBE, "train", "--config", cfg,
                           "--threads", "1"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]


# Each command runs in a fresh interpreter: it prints whether concurrent.futures'
# process pool was loaded at start, after importing the package, and after the
# run, with the run's exit code before the last.
POOL_PROBE = """\
import sys
name = "concurrent.futures.process"
loaded = [name in sys.modules]
import chebgcn.cli
loaded.append(name in sys.modules)
code = chebgcn.cli.main(sys.argv[1:])
print(*loaded, code, name in sys.modules)
"""


def test_concurrent_futures_loads_only_with_a_pool(tmp_path):
    # The process pool and multiprocessing take about 20 ms to import, so
    # the package import and runs that start no pool leave them out.
    env = package_env()
    meta_fixture(tmp_path)
    sections = quick_sections(tmp_path / "res", affinity={
        "meta": str(tmp_path / "meta.csv"), "features": str(tmp_path / "features.csv")})
    cfg = write_cfg(tmp_path, sections)
    for argv, pooled in [
        (["simdata"], False),  # 30 nodes: below the size rule
        (["build-graph"], False),
        (["train", "--threads", "2"], True),  # 3 folds in 2 workers
    ]:
        done = subprocess.run([sys.executable, "-c", POOL_PROBE, *argv, "--config", cfg],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-4:] == ["False", "False", "0", str(pooled)]


def cohort_inputs(directory, n=300, d=8, seed=26):
    """Write a seeded build-graph input shaped like the benchmark's cohort:
    two classes that differ in the mean of the first two of ``d`` features,
    and meta-data with an age that is ``na`` for about 5% of the subjects,
    a sex and one of 6 sites."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 2)
    features = rng.standard_normal((n, d))
    features[:, :2] += np.where(labels == 1, 0.5, -0.5)[:, None]
    train = rng.random(n) < 0.9
    age = np.round(rng.uniform(20.0, 80.0, n), 1)
    age_missing = rng.random(n) < 0.05
    sex = rng.integers(0, 2, n)
    site = rng.integers(0, 6, n)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [",".join(["node", *(f"f{j}" for j in range(d)), "label", "split"])]
    rows += [",".join([str(i), *map(repr, features[i].tolist()), str(labels[i]),
                       "train" if train[i] else "test"]) for i in range(n)]
    (directory / "features.csv").write_text("\n".join(rows) + "\n")
    rows = ["node,age,sex,site"]
    rows += [f"{i},{'na' if age_missing[i] else age[i]!r},{'FM'[sex[i]]},site{site[i]}"
             for i in range(n)]
    (directory / "meta.csv").write_text("\n".join(rows) + "\n")


class TestBuildGraphBytes:
    # sha256 of what build-graph writes for cohort_inputs()
    DIGESTS = {
        "features.csv": "0b1ab60e701eb4f04ee5b458b1bd0558651a41826c71aa1110acdac6e89c027f",
        "edges.txt": "405068b76998ea4c4f895d2cbc6d6062f1ca1e2da47580f7a80362aedb38e42c",
        "edges.txt.cache": "086df018d5e409c6f98b31b10e3a81f21b52076d8655761e301813734f27525a",
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_build_graph_keeps_its_bytes(self, tmp_path, monkeypatch, threads):
        # every size starts a pool at 2 threads, and the files take many chunks
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        monkeypatch.setattr("chebgcn.io._CHUNK_FIELDS", 3 * 1024)
        started = []
        pool_class = chebgcn.workers.ProcessPoolExecutor
        monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                            lambda **kw: started.append(kw["max_workers"]) or pool_class(**kw))
        inputs, out = tmp_path / "cohort", tmp_path / "graph"
        cohort_inputs(inputs)
        # sigma is so wide that every similarity weight is exp(-tiny) = 1.0,
        # so each edge weight is the share of the three gates it passes, and
        # the digests do not depend on the platform's exp or BLAS
        cfg = write_cfg(tmp_path, quick_sections(out, affinity={
            "meta": str(inputs / "meta.csv"), "features": str(inputs / "features.csv"),
            "betas": {"age": 2.0, "sex": 0.0, "site": 0.0}, "mode": "mixed", "sigma": 1.0e10}))
        assert main(["build-graph", "--config", cfg, "--threads", threads]) == 0
        assert started == ([2] if threads == "2" else [])
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self.DIGESTS}
        assert got == self.DIGESTS


@pytest.mark.parametrize("n, d, threads, pooled", [
    # 3 * 590 * 589 / 2 = 521,265 fields for the edges, and 590 * (d + 3) for
    # the features: 524,215 at d = 2, below POOL_MIN_FIELDS = 524,288
    (590, 2, "2", False),
    (590, 3, "2", True),  # 524,805
    (590, 3, "1", False),
])
def test_build_graph_sizes_its_pool_by_every_pair_being_an_edge(tmp_path, monkeypatch,
                                                                n, d, threads, pooled):
    # The pool starts before the graph exists, so it counts N(N - 1) / 2
    # edges: with one site per node there are none, yet 590 nodes at d = 3
    # start a pool.
    pools = []
    monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                        lambda **kw: pools.append(CountingPool(**kw)) or pools[-1])
    rng = np.random.default_rng(0)
    write_features_csv(tmp_path / "features.csv", PopulationGraph(
        adjacency=np.zeros((n, n)), features=rng.standard_normal((n, d)),
        labels=np.arange(n) % 2, train_mask=np.ones(n, dtype=bool)))
    (tmp_path / "meta.csv").write_text("node,site\n" + "".join(f"{i},s{i}\n" for i in range(n)))
    out = tmp_path / "res"
    sections = quick_sections(out, affinity={
        "meta": str(tmp_path / "meta.csv"), "features": str(tmp_path / "features.csv")})
    assert main(["build-graph", "--config", write_cfg(tmp_path, sections),
                 "--threads", threads]) == 0
    assert [p.max_workers for p in pools] == ([2] if pooled else [])
    assert (out / "edges.txt").read_text() == ""


def failing_feature_lines(chunk):
    raise RuntimeError("formatting failed in a worker")


def out_state(out):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}


@pytest.mark.parametrize("fault", ["affinity", "config", "worker"])
@pytest.mark.parametrize("earlier", [False, True], ids=["empty-out", "earlier-graph"])
def test_a_build_that_fails_once_its_pool_started_leaves_out_as_it_was(tmp_path, capsys,
                                                                       monkeypatch, fault,
                                                                       earlier):
    meta_fixture(tmp_path)
    # node 5's features are constant, which only the correlation distance rejects
    features = tmp_path / "features.csv"
    lines = features.read_bytes().split(b"\r\n")
    fields = lines[6].split(b",")
    lines[6] = b",".join([fields[0], b"1.5", b"1.5", b"1.5", b"1.5", *fields[5:]])
    features.write_bytes(b"\r\n".join(lines))
    out = tmp_path / "res"
    out.mkdir()

    def config(name, **affinity):
        sections = quick_sections(out, affinity={
            "meta": str(tmp_path / "meta.csv"), "features": str(features), **affinity})
        return write_cfg(tmp_path, sections, name)

    if earlier:
        assert main(["build-graph", "--config", config("earlier.yaml", mode="mixed_nosim"),
                     "--threads", "1"]) == 0
    before = out_state(out)
    capsys.readouterr()
    # a pool starts for any size, before the graph is built
    monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
    monkeypatch.setattr("chebgcn.io._CHUNK_FIELDS", 12)
    started = []
    pool_class = chebgcn.workers.ProcessPoolExecutor
    monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                        lambda **kw: started.append(kw["max_workers"]) or pool_class(**kw))
    argv = ["build-graph", "--threads", "2", "--config"]
    if fault == "affinity":
        assert main(argv + [config("bad.yaml", mode="mixed")]) == 2
        message = "node 5 has constant features; correlation distance is undefined"
    elif fault == "config":
        cfg = config("bad.yaml", mode="mixed_nosim", elements=["age", "weight"])
        assert main(argv + [cfg]) == 2
        message = f"affinity.elements: no column 'weight' in {tmp_path / 'meta.csv'}"
    else:
        monkeypatch.setattr("chebgcn.io._feature_lines", failing_feature_lines)
        with pytest.raises(RuntimeError, match="formatting failed in a worker"):
            main(argv + [config("bad.yaml", mode="mixed_nosim")])
        message = None
    assert started == [2]
    if message is not None:
        assert capsys.readouterr().err == f"error: {message}\n"
    after = out_state(out)
    if fault == "worker":
        # the output directory is prepared, with its echoed config, before
        # the files are written
        before.pop("effective-config.yaml", None)
        assert after.pop("effective-config.yaml")
    assert after == before
    assert multiprocessing.active_children() == []
