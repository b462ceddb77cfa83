import json

import pytest

from robustquota import CARA, ConfigError, Quadratic, Zero
from robustquota.config import load_config, parse_config

BASE = {
    "payoff": {
        "agent": {"family": "quadratic", "alpha": 1.0, "beta": 1.0,
                  "quad": 0.0},
        "principal": {"family": "quadratic", "alpha": 1.0, "beta": 1.0,
                      "quad": 1.0},
    },
    "grid": {"l_max": 2.0, "n": 201},
    "prior": {"mu0": 0.6},
}


def _cfg(**extra):
    raw = json.loads(json.dumps(BASE))
    raw.update(extra)
    return raw


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(_cfg())
    assert isinstance(cfg.agent, Quadratic)
    assert isinstance(cfg.mechanism, Zero)
    assert cfg.mu0 == 0.6
    assert cfg.n_mu == 1001
    assert cfg.seed is None
    assert cfg.n_refinements == 50


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_cfg(bogus=1))


def test_unknown_nested_key_rejected():
    raw = _cfg()
    raw["grid"]["spacing"] = 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(raw)


def test_missing_prior_rejected():
    raw = _cfg()
    del raw["prior"]
    with pytest.raises(ConfigError, match="prior"):
        parse_config(raw)


def test_prior_out_of_range_rejected():
    raw = _cfg()
    raw["prior"]["mu0"] = 1.5
    with pytest.raises(ConfigError, match="outside"):
        parse_config(raw)


def test_non_integer_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(_cfg(seed=0.5))


def test_unknown_tree_type_rejected():
    with pytest.raises(ConfigError, match="tree type"):
        parse_config(_cfg(tree={"type": "trinomial"}))


def test_bad_grid_values_become_config_errors():
    raw = _cfg()
    raw["grid"]["n"] = 1
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("key, sub, value", [
    ("refinements", "count", 0),
    ("refinements", "count", -3),
    ("refinements", "count", 2.5),
    ("belief_grid", "n_mu", 1),
    ("belief_grid", "n_mu", 100.5),
    ("grid", "n", 9.7),
    ("grid", "n", "9"),
    ("seed", None, True),
])
def test_bad_integer_settings_rejected(key, sub, value):
    raw = _cfg()
    if sub is None:
        raw[key] = value
    else:
        raw.setdefault(key, {})[sub] = value
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("l_max", [float("inf"), float("nan"), "2.0", 0.0])
def test_bad_grid_l_max_rejected(l_max):
    raw = _cfg()
    raw["grid"]["l_max"] = l_max
    with pytest.raises(ConfigError, match="l_max"):
        parse_config(raw)


@pytest.mark.parametrize("tree", [
    {"type": "binomial", "p_good": 1.5},
    {"type": "binomial", "p_good": 0.3, "p_bad": 0.7},
    {"type": "binomial", "p_good": 0.6, "p_bad": 0.6},
    {"type": "binomial", "p_bad": 0.0},
    {"type": "binomial", "p_bad": 0.7},           # above the default p_good
    {"type": "binomial", "p_good": "0.7"},
    {"type": "binomial", "p_good": True},
    {"type": "no_learning", "p_good": float("nan")},
])
def test_bad_tree_probabilities_rejected(tree):
    with pytest.raises(ConfigError, match="p_good|p_bad"):
        parse_config(_cfg(tree=tree))


def test_tree_probabilities_default_and_pass_through():
    assert parse_config(_cfg(tree={"type": "binomial"})).tree == \
        {"type": "binomial", "p_good": 0.6, "p_bad": 0.4}
    assert parse_config(_cfg(tree={"type": "binomial", "p_good": 0.7,
                                   "p_bad": 0.3})).tree["p_good"] == 0.7


@pytest.mark.parametrize("l_max", [[], [-1.0], [2.0, 0.0], [float("inf")],
                                   [float("nan")], ["2.0"], 2.0])
def test_bad_sweep_rejected(l_max):
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(_cfg(sweep={"l_max": l_max}))


def test_ambiguity_and_mechanisms_lists():
    raw = _cfg(
        ambiguity=[{"family": "cara", "gamma": 1.0},
                   {"family": "cara", "gamma": 2.0}],
        mechanisms=[{"type": "zero"},
                    {"type": "fixed_tax_hard_quota", "lambda": 0.0,
                     "quota": 0.5}],
        sweep={"l_max": [2.0, 4.0]},
    )
    cfg = parse_config(raw)
    assert len(cfg.ambiguity) == 2
    assert isinstance(cfg.ambiguity[0], CARA)
    assert len(cfg.mechanisms) == 2
    assert cfg.sweep_l_max == (2.0, 4.0)


def test_require_seed():
    cfg = parse_config(_cfg())
    with pytest.raises(ConfigError, match="seed"):
        cfg.require_seed("adaptive")
    assert parse_config(_cfg(seed=7)).require_seed("adaptive") == 7


@pytest.mark.parametrize("value", [{"gap": "small"}, {}],
                         ids=["non_numeric", "empty"])
def test_tolerances_key_rejected(value):
    """The library reads no tolerance override, so the key is unknown."""
    with pytest.raises(ConfigError, match="unknown key.*tolerances"):
        parse_config(_cfg(tolerances=value))


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(p))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
