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
    assert cfg.seed is None
    assert cfg.n_refinements == 50


def test_optional_lists_and_tree_get_filled_defaults():
    """Without ambiguity, mechanisms, sweep or tree, the config holds the
    values each command would use: the agent, the mechanism, the grid's
    l_max and a no-learning tree."""
    cfg = parse_config(_cfg(mechanism={"type": "linear", "beta_tax": 0.5}))
    assert cfg.ambiguity == (cfg.agent,)
    assert cfg.mechanisms == (cfg.mechanism,)
    assert cfg.sweep_l_max == (cfg.grid.l_max,) == (2.0,)
    assert cfg.tree == {"type": "no_learning", "p_good": 0.6, "p_bad": 0.4}


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


@pytest.mark.parametrize("n_mu", [1001, 1, 100.5])
def test_belief_grid_key_rejected(n_mu):
    """Belief scans read exact breakpoints, so no belief grid is configured."""
    with pytest.raises(ConfigError, match="unknown key.*belief_grid"):
        parse_config(_cfg(belief_grid={"n_mu": n_mu}))


@pytest.mark.parametrize("where, spec, match", [
    ("agent", {"family": "cara"}, "missing required key 'gamma'"),
    ("agent", {"family": "cara", "gamma": "x"}, "gamma must be a finite"),
    ("agent", {"family": "cara", "gamma": True}, "gamma must be a finite"),
    ("agent", {"family": "cara", "gamma": 1.0, "beta": 2.0}, "unknown key"),
    ("principal", {"family": "quadratic", "alpha": 1.0, "beta": 1.0,
                   "quad": 1.0, "extra": 0}, "unknown key"),
    ("agent", {"family": "tabulated", "u1": "x", "u0": []}, "u1 must be a list"),
    ("agent", {"family": "tabulated", "u1": [0, "1"], "u0": [0, 1]},
     "u1 entry must be a finite"),
    ("agent", {"family": "logit", "gamma": 1.0}, "unknown family"),
    ("agent", [1.0], "must be an object"),
    ("mechanism", {"type": "linear"}, "missing required key 'beta_tax'"),
    ("mechanism", {"type": "linear", "beta_tax": "0.1"}, "beta_tax must be"),
    ("mechanism", {"type": "zero", "lambda": 0.1}, "unknown key"),
    ("mechanism", {"type": "fixed_tax_hard_quota", "lambda": 0.1,
                   "quota": 1.0, "cap": 2.0}, "unknown key"),
    ("mechanism", {"type": "tabulated", "phi": ["inf", "0.5"]},
     "phi entry must be a finite"),
    ("mechanisms", [{"type": "exponential"}], "missing required key 'eta'"),
    ("mechanisms", {"type": "zero"}, "'mechanisms' must be a non-empty list"),
    ("mechanisms", [], "'mechanisms' must be a non-empty list"),
    ("ambiguity", [], "'ambiguity' must be a non-empty list"),
    ("ambiguity", [{"family": "crra", "gamma": 2.0, "eps": None}],
     "eps must be a finite"),
])
def test_bad_payoff_and_mechanism_payload_rejected(where, spec, match):
    raw = _cfg()
    if where in ("agent", "principal"):
        raw["payoff"][where] = spec
    else:
        raw[where] = spec
    with pytest.raises(ConfigError, match=match):
        parse_config(raw)


def test_tabulated_specs_with_prohibited_levels_parse():
    raw = _cfg(mechanism={"type": "tabulated", "phi": [0.0, 0.5, "inf"]})
    raw["grid"]["n"] = 3
    raw["payoff"]["agent"] = {"family": "tabulated", "u1": [0, 1, 2],
                              "u0": [0.0, -1.0, -2.5]}
    cfg = parse_config(raw)
    assert cfg.mechanism.tax_profile(cfg.grid).tolist() == [0.0, 0.5]
    assert cfg.agent.profile(cfg.grid.points)[1].tolist() == [0.0, -1.0, -2.5]


@pytest.mark.parametrize("mu0", ["0.6", True, None, [0.6]])
def test_prior_must_be_a_number(mu0):
    raw = _cfg()
    raw["prior"]["mu0"] = mu0
    with pytest.raises(ConfigError, match="prior.mu0 must be a finite"):
        parse_config(raw)


@pytest.mark.parametrize("key", ["grid", "prior", "payoff", "tree",
                                 "refinements"])
def test_non_object_sections_rejected(key):
    with pytest.raises(ConfigError, match="must be an object"):
        parse_config(_cfg(**{key: [1]}))


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
    with pytest.raises(ConfigError, match="'seed' must be a nonnegative"):
        parse_config(_cfg(seed=-1)).require_seed("adaptive")


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
