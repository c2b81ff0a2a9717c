import copy
import re

import pytest
import yaml

from chebgcn.config import (
    DEFAULTS,
    ConfigError,
    available_presets,
    deep_merge,
    effective_yaml,
    find_config,
    load_config_file,
    resolve_config,
    to_arch_spec,
    to_sim_config,
    to_train_config,
    validate_config,
)
from chebgcn.experiments import derive_seed


DEFAULT_YAML = """\
affinity:
  betas: {}
  distance: correlation
  element: null
  elements: null
  features: null
  meta: null
  mode: mixed
  sigma: null
  strict: false
architecture:
  activation: relu
  classifier: true
  modules:
  - aggregator: concat
    orders:
    - 1
    width: 16
dataset:
  edges: null
  features: null
  source: sim
experiment:
  folds: 10
  k1: 1
  k2: 10
  k_range:
  - 1
  - 6
  out: results
  seed: 0
  sweep_mode: pairs
  threads: null
  width: 16
sim:
  beta: 0.5
  edge_weights: binary
  feature_mode: discriminative
  means:
  - -1.0
  - 1.0
  n_per_class: 300
  seed: null
  variances:
  - 0.5
  - 0.1
training:
  dropout: 0.0
  early_stop_window: 0
  epochs: 200
  lr: 0.2
  optimizer: sgd
  stop_metric: val
  val_fraction: 0.1
  weight_decay: 0.0
"""


def write_cfg(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


class TestDeepMerge:
    def test_nested_override(self):
        base = {"a": {"x": 1, "y": 2}, "b": 3}
        out = deep_merge(base, {"a": {"y": 9}})
        assert out == {"a": {"x": 1, "y": 9}, "b": 3}
        assert base["a"]["y"] == 2  # original untouched

    def test_scalar_replaces_dict(self):
        assert deep_merge({"a": {"x": 1}}, {"a": 5}) == {"a": 5}

    def test_new_keys_pass_through(self):
        assert deep_merge({}, {"k": 1}) == {"k": 1}


class TestPresets:
    def test_all_packaged_presets_listed(self):
        names = available_presets()
        assert "compact-clusters.cfg" in names
        assert "overlap-compare.cfg" in names
        assert "random-features.cfg" in names
        assert "order-pairs-sweep.cfg" in names
        assert "order-sensitivity.cfg" in names

    def test_every_preset_resolves_and_validates(self):
        for name in available_presets():
            cfg = resolve_config(config=name, env={})
            validate_config(cfg)

    def test_find_config_prefers_existing_path(self, tmp_path):
        path = write_cfg(tmp_path, {"experiment": {"seed": 3}})
        assert find_config(path) == path

    def test_find_config_falls_back_to_preset(self):
        assert find_config("order-pairs-sweep.cfg").endswith("order-pairs-sweep.cfg")

    def test_missing_config_names_presets(self):
        with pytest.raises(ConfigError, match="order-pairs-sweep.cfg"):
            find_config("no-such-config.cfg")


class TestLoadConfigFile:
    def test_yaml_mapping(self, tmp_path):
        path = write_cfg(tmp_path, {"training": {"epochs": 7}})
        assert load_config_file(path) == {"training": {"epochs": 7}}

    def test_empty_file_is_empty_override(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config_file(str(path)) == {}

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config_file(str(path))

    def test_broken_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1, 2\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


class TestResolvePrecedence:
    def test_defaults_validate(self):
        cfg = resolve_config(env={})
        assert cfg == DEFAULTS

    def test_file_overrides_defaults(self, tmp_path):
        path = write_cfg(tmp_path, {"experiment": {"seed": 11}})
        assert resolve_config(config=path, env={})["experiment"]["seed"] == 11

    def test_env_overrides_file(self, tmp_path):
        path = write_cfg(tmp_path, {"experiment": {"seed": 11}})
        cfg = resolve_config(config=path, env={"CHEBGCN_SEED": "22"})
        assert cfg["experiment"]["seed"] == 22

    def test_flags_override_env(self, tmp_path):
        path = write_cfg(tmp_path, {"experiment": {"seed": 11, "out": "a"}})
        cfg = resolve_config(
            config=path, seed=33, out="c",
            env={"CHEBGCN_SEED": "22", "CHEBGCN_OUT": "b", "CHEBGCN_THREADS": "4"},
        )
        assert cfg["experiment"]["seed"] == 33
        assert cfg["experiment"]["out"] == "c"
        assert cfg["experiment"]["threads"] == 4

    @pytest.mark.parametrize("env, threads", [
        ({}, None),  # the experiment functions pick the count
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, None),  # BLAS variables unread
        ({"MKL_NUM_THREADS": "4"}, None),
        ({"OMP_NUM_THREADS": "²"}, None),  # not a count, and not read either
        ({"OPENBLAS_NUM_THREADS": "1", "CHEBGCN_THREADS": "4"}, 4),
    ])
    def test_threads_default_to_null(self, env, threads):
        assert resolve_config(env=env)["experiment"]["threads"] == threads

    def test_bad_env_integer_rejected(self):
        with pytest.raises(ConfigError, match="CHEBGCN_SEED"):
            resolve_config(env={"CHEBGCN_SEED": "lots"})


class TestValidateConfig:
    def base(self):
        return copy.deepcopy(DEFAULTS)

    def check_rejects(self, mutate, match):
        cfg = self.base()
        mutate(cfg)
        with pytest.raises(ConfigError, match=match):
            validate_config(cfg)

    def test_unknown_section(self):
        self.check_rejects(lambda c: c.update({"modle": {}}), "unknown config sections")

    def test_unknown_key(self):
        self.check_rejects(lambda c: c["training"].update({"epoch": 5}), "unknown keys")

    def test_bad_source(self):
        self.check_rejects(lambda c: c["dataset"].update({"source": "url"}), "dataset.source")

    def test_files_source_requires_paths(self):
        self.check_rejects(lambda c: c["dataset"].update({"source": "files"}),
                           "dataset.features")

    def test_bool_is_not_an_integer(self):
        self.check_rejects(lambda c: c["experiment"].update({"folds": True}),
                           "experiment.folds")

    def test_fold_minimum(self):
        self.check_rejects(lambda c: c["experiment"].update({"folds": 1}), "folds")

    def test_fold_minimum_names_the_experiment_key(self):
        self.check_rejects(lambda c: c["experiment"].update({"folds": 1}),
                           r"^experiment\.folds must be at least 2, got 1$")

    @pytest.mark.parametrize("name, value", [
        ("training.lr", 10**400),
        ("training.weight_decay", 10**400),
        ("training.dropout", 10**400),
        ("training.val_fraction", -10**400),
        ("sim.beta", 10**400),
        ("sim.means", [0, 10**400]),
        ("sim.variances", [1, 10**400]),
        ("affinity.sigma", 10**400),
        ("affinity.betas.age", 10**400),
    ], ids=lambda v: v if isinstance(v, str) else "1e400")
    def test_integers_too_large_for_a_float_are_rejected_naming_the_field(self, name, value):
        section, key, *sub = name.split(".")
        value = {sub[0]: value} if sub else value
        self.check_rejects(lambda c: c[section].update({key: value}),
                           f"^{name} must be a (list of )?number")

    def test_thread_minimum(self):
        self.check_rejects(lambda c: c["experiment"].update({"threads": 0}), "threads")

    def test_k_range_shape(self):
        self.check_rejects(lambda c: c["experiment"].update({"k_range": [3]}), "k_range")
        self.check_rejects(lambda c: c["experiment"].update({"k_range": [4, 2]}), "k_range")

    def test_sweep_mode(self):
        self.check_rejects(lambda c: c["experiment"].update({"sweep_mode": "grid"}),
                           "sweep_mode")

    def test_training_ranges_surface_under_section_name(self):
        self.check_rejects(lambda c: c["training"].update({"epochs": 0}), "training:")
        self.check_rejects(lambda c: c["training"].update({"optimizer": "lbfgs"}), "training:")

    def test_sim_ranges_surface_under_section_name(self):
        self.check_rejects(lambda c: c["sim"].update({"variances": [0.5, 0.0]}), "sim:")
        self.check_rejects(lambda c: c["sim"].update({"beta": -1.0}), "sim:")

    def test_architecture_checks(self):
        self.check_rejects(lambda c: c["architecture"].update({"modules": []}), "modules")
        self.check_rejects(
            lambda c: c["architecture"].update({"modules": [{"orders": []}]}), "orders"
        )
        self.check_rejects(
            lambda c: c["architecture"].update({"modules": [{"orders": [1], "aggregator": "sum"}]}),
            "aggregator",
        )
        self.check_rejects(
            lambda c: c["architecture"].update({"modules": [{"orders": [1], "wdth": 4}]}),
            "unknown keys",
        )

    def test_affinity_checks(self):
        self.check_rejects(lambda c: c["affinity"].update({"mode": "stack"}), "affinity.mode")
        self.check_rejects(lambda c: c["affinity"].update({"distance": "cosine"}),
                           "affinity.distance")
        self.check_rejects(lambda c: c["affinity"].update({"betas": [1, 2]}), "betas")

    @pytest.mark.parametrize("beta", ["two", True, -1.0, float("inf"), None])
    def test_affinity_beta_must_be_a_non_negative_number(self, beta):
        self.check_rejects(lambda c: c["affinity"].update({"betas": {"age": beta}}),
                           "affinity.betas.age")

    @pytest.mark.parametrize("elements", ["age", [], ["age", 3], ["age", "age"]])
    def test_affinity_elements_must_be_a_list_of_names(self, elements):
        self.check_rejects(lambda c: c["affinity"].update({"elements": elements}),
                           "affinity.elements")

    @pytest.mark.parametrize("mode", ["mixed", "mixed_nosim"])
    def test_affinity_element_only_in_single_mode(self, mode):
        self.check_rejects(lambda c: c["affinity"].update({"mode": mode, "element": "site"}),
                           "affinity.element ")
        cfg = self.base()
        cfg["affinity"].update({"mode": "single", "element": "site", "betas": {"site": 0}})
        validate_config(cfg)


def leaf_paths(node, path=()):
    """Key paths to every leaf of a DEFAULTS node; lists of mappings are walked into."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if (isinstance(value, dict) and value) or (isinstance(value, list)
                                                   and isinstance(value[0], dict)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


class TestEveryFieldIsChecked:
    @pytest.mark.parametrize("path", list(leaf_paths(DEFAULTS)), ids=str)
    def test_value_of_the_wrong_kind_names_the_field(self, path):
        cfg = copy.deepcopy(DEFAULTS)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        # A mapping where no mapping belongs; betas, which is one, gets a list.
        node[path[-1]] = [1] if path == ("affinity", "betas") else {"wrong": 1}
        name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]
        with pytest.raises(ConfigError, match=re.escape(name)):
            validate_config(cfg)


class TestTranslation:
    def test_sim_seed_derived_from_experiment_seed(self):
        cfg = copy.deepcopy(DEFAULTS)
        cfg["experiment"]["seed"] = 5
        sim = to_sim_config(cfg)
        assert sim.seed == derive_seed(5, "sim")

    def test_explicit_sim_seed_wins(self):
        cfg = copy.deepcopy(DEFAULTS)
        cfg["sim"]["seed"] = 123
        assert to_sim_config(cfg).seed == 123

    def test_sim_fields_map_over(self):
        cfg = copy.deepcopy(DEFAULTS)
        cfg["sim"].update({"n_per_class": 50, "means": [0.0, 2.0], "variances": [1.0, 1.0],
                           "beta": 0.25, "feature_mode": "random"})
        sim = to_sim_config(cfg)
        assert sim.n_per_class == 50
        assert sim.means == (0.0, 2.0)
        assert sim.beta == 0.25
        assert sim.feature_mode == "random"

    def test_train_config_pulls_folds_and_seed_from_experiment(self):
        cfg = copy.deepcopy(DEFAULTS)
        cfg["experiment"].update({"folds": 4, "seed": 9})
        cfg["training"].update({"epochs": 55, "dropout": 0.3})
        tc = to_train_config(cfg)
        assert tc.n_folds == 4 and tc.seed == 9
        assert tc.epochs == 55 and tc.dropout == 0.3

    def test_arch_spec_translation(self):
        cfg = copy.deepcopy(DEFAULTS)
        cfg["architecture"]["modules"] = [
            {"orders": [1, 5], "width": 8, "aggregator": "maxpool"},
            {"orders": [2], "width": 3},
        ]
        cfg["architecture"]["classifier"] = False
        arch = to_arch_spec(cfg)
        assert len(arch.modules) == 2
        assert [b.order for b in arch.modules[0].branches] == [1, 5]
        assert arch.modules[0].aggregator == "maxpool"
        assert arch.modules[1].branches[0].width == 3
        assert arch.modules[1].aggregator == "concat"
        assert not arch.classifier


class TestEffectiveYaml:
    def test_round_trips_through_the_loader(self, tmp_path):
        cfg = resolve_config(env={"CHEBGCN_SEED": "17"})
        path = tmp_path / "effective.yaml"
        path.write_text(effective_yaml(cfg))
        again = resolve_config(config=str(path), env={})
        assert again == cfg

    def test_defaults_render_as_pinned(self):
        # The sim, training and architecture defaults come from the dataclasses
        # they build; this pins what effective-config.yaml says for them.
        assert effective_yaml(resolve_config(env={})) == DEFAULT_YAML

    def test_rendering_is_canonical(self):
        cfg = resolve_config(env={})
        assert effective_yaml(cfg) == effective_yaml(yaml.safe_load(effective_yaml(cfg)))
