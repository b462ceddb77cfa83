"""JSON run configuration: schema validation and object construction.

Schema (all nesting literal; unknown keys are rejected):

    {
      "payoff":      {"agent": <payoff>, "principal": <payoff>},
      "mechanism":   <mechanism>,                  # optional, default zero
      "grid":        {"l_max": float > 0, "n": int >= 2},
      "belief_grid": {"n_mu": int >= 2},           # optional, default 1001
      "prior":       {"mu0": float},
      "seed":        int,                          # required by stochastic cmds
      "ambiguity":   [<payoff>, ...],              # optional
      "tree":        {"type": "no_learning" | "binomial",
                      "p_good": float, "p_bad": float},      # optional,
                                   # 0 < p_bad < p_good < 1, default 0.6, 0.4
      "mechanisms":  [<mechanism>, ...],           # optional (gap tables)
      "sweep":       {"l_max": [float > 0, ...]},  # optional (gap tables),
                                                   # finite, at least one
      "refinements": {"count": int >= 1}           # optional
    }

<payoff> is {"family": "quadratic"|"cara"|"crra"|"tabulated", ...}; <mechanism>
is {"type": "zero"|"fixed_tax_hard_quota"|"linear"|"exponential"|"tabulated",
...} as produced by the respective to_dict methods.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, DomainError
from .grid import LevelGrid
from .mechanisms import Mechanism, Zero, mechanism_from_dict
from .payoffs import PayoffSpec, payoff_from_dict

_TOP_KEYS = {"payoff", "mechanism", "grid", "belief_grid", "prior", "seed",
             "ambiguity", "tree", "mechanisms", "sweep", "refinements"}


@dataclass(frozen=True)
class RunConfig:
    agent: PayoffSpec
    principal: PayoffSpec
    mechanism: Mechanism
    grid: LevelGrid
    mu0: float
    n_mu: int = 1001
    seed: Optional[int] = None
    ambiguity: Optional[tuple] = None          # tuple of agent PayoffSpec
    tree: Optional[dict] = None
    mechanisms: Optional[tuple] = None
    sweep_l_max: Optional[tuple] = None
    n_refinements: int = 50

    def require_seed(self, command: str) -> int:
        if self.seed is None:
            raise ConfigError(f"'{command}' draws random samples: the config "
                              "must set an integer 'seed'")
        return self.seed


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return d[key]


def _integer(value, where: str, least: int) -> int:
    """An integral JSON number (9 or 9.0, not true) of at least `least`."""
    ok = type(value) is int or type(value) is float and value.is_integer()
    if not ok or value < least:
        raise ConfigError(f"{where} must be an integer >= {least}, "
                          f"got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    """A finite JSON number (not true, not a string)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config root")

    gd = _require(raw, "grid", "config")
    _check_keys(gd, {"l_max", "n"}, "'grid'")
    try:
        l_max = _number(_require(gd, "l_max", "'grid'"), "grid.l_max")
        grid = LevelGrid(l_max,
                         _integer(_require(gd, "n", "'grid'"), "grid.n", 2))
    except DomainError as e:
        raise ConfigError(str(e))

    pd = _require(raw, "payoff", "config")
    _check_keys(pd, {"agent", "principal"}, "'payoff'")
    prior = _require(raw, "prior", "config")
    _check_keys(prior, {"mu0"}, "'prior'")
    mu0 = float(_require(prior, "mu0", "'prior'"))
    if not 0.0 <= mu0 <= 1.0:
        raise ConfigError(f"prior.mu0 = {mu0} outside [0, 1]")

    try:
        agent = payoff_from_dict(_require(pd, "agent", "'payoff'"), grid)
        principal = payoff_from_dict(_require(pd, "principal", "'payoff'"), grid)
        mech = mechanism_from_dict(raw["mechanism"], grid) \
            if "mechanism" in raw else Zero()
        ambiguity = tuple(payoff_from_dict(x, grid) for x in raw["ambiguity"]) \
            if "ambiguity" in raw else None
        mechanisms = tuple(mechanism_from_dict(x, grid) for x in raw["mechanisms"]) \
            if "mechanisms" in raw else None
    except DomainError as e:
        raise ConfigError(str(e))

    n_mu = 1001
    if "belief_grid" in raw:
        _check_keys(raw["belief_grid"], {"n_mu"}, "'belief_grid'")
        n_mu = _integer(_require(raw["belief_grid"], "n_mu", "'belief_grid'"),
                        "belief_grid.n_mu", 2)

    seed = raw.get("seed")
    if seed is not None and type(seed) is not int:     # a bool is refused
        raise ConfigError("'seed' must be an integer")

    tree = raw.get("tree")
    if tree is not None:
        _check_keys(tree, {"type", "p_good", "p_bad"}, "'tree'")
        if _require(tree, "type", "'tree'") not in ("no_learning", "binomial"):
            raise ConfigError(f"unknown tree type {tree['type']!r}")
        p_good = _number(tree.get("p_good", 0.6), "tree.p_good")
        p_bad = _number(tree.get("p_bad", 0.4), "tree.p_bad")
        if not 0.0 < p_bad < p_good < 1.0:
            raise ConfigError(f"tree needs 0 < p_bad < p_good < 1, got "
                              f"p_good={p_good}, p_bad={p_bad}")
        tree = {"type": tree["type"], "p_good": p_good, "p_bad": p_bad}

    sweep = None
    if "sweep" in raw:
        _check_keys(raw["sweep"], {"l_max"}, "'sweep'")
        sweep = _require(raw["sweep"], "l_max", "'sweep'")
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("sweep.l_max must be a non-empty list")
        sweep = tuple(_number(x, "sweep.l_max entry") for x in sweep)
        if min(sweep) <= 0.0:
            raise ConfigError(f"sweep.l_max entries must be positive, got "
                              f"{min(sweep)}")

    n_ref = 50
    if "refinements" in raw:
        _check_keys(raw["refinements"], {"count"}, "'refinements'")
        n_ref = _integer(_require(raw["refinements"], "count", "'refinements'"),
                         "refinements.count", 1)

    return RunConfig(agent, principal, mech, grid, mu0, n_mu, seed, ambiguity,
                     tree, mechanisms, sweep, n_ref)
