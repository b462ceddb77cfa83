"""JSON run configuration: schema validation and object construction.

Schema (all nesting literal; unknown keys are rejected):

    {
      "payoff":      {"agent": <payoff>, "principal": <payoff>},
      "mechanism":   <mechanism>,                  # optional, default zero
      "grid":        {"l_max": float > 0, "n": int >= 2},
      "prior":       {"mu0": float in [0, 1]},
      "seed":        int,                          # required by stochastic cmds
      "ambiguity":   [<payoff>, ...],              # optional, non-empty
      "tree":        {"type": "no_learning" | "binomial",
                      "p_good": float, "p_bad": float},      # optional,
                                   # 0 < p_bad < p_good < 1, default 0.6, 0.4
      "mechanisms":  [<mechanism>, ...],           # optional, non-empty
                                                   # (gap tables)
      "sweep":       {"l_max": [float > 0, ...]},  # optional (gap tables),
                                                   # finite, at least one
      "refinements": {"count": int >= 1}           # optional
    }

<payoff> is {"family": <family>, ...} and <mechanism> is {"type": <type>,
...}, as produced by the respective to_dict methods, with these keys
(optional ones in brackets):

    quadratic: alpha, beta, [quad]    zero: (none)
    cara:      gamma                  fixed_tax_hard_quota: lambda, quota
    crra:      gamma, [eps]           linear: beta_tax
    tabulated: u1, u0                 exponential: eta
                                      tabulated: phi

Each holds a finite JSON number (not true, not a string); u1, u0 and phi
hold lists of them, phi also "inf" for a prohibited level.  A missing,
unknown or ill-typed key is a ConfigError.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, DomainError
from .grid import LevelGrid
from .mechanisms import Mechanism, Zero, mechanism_from_dict
from .payoffs import PayoffSpec, payoff_from_dict

_TOP_KEYS = {"payoff", "mechanism", "grid", "prior", "seed", "ambiguity",
             "tree", "mechanisms", "sweep", "refinements"}
#: keys of each payoff family and mechanism type: (required, optional)
_PAYOFF_KEYS = {"quadratic": (("alpha", "beta"), ("quad",)),
                "cara": (("gamma",), ()),
                "crra": (("gamma",), ("eps",)),
                "tabulated": (("u1", "u0"), ())}
_MECHANISM_KEYS = {"zero": ((), ()),
                   "fixed_tax_hard_quota": (("lambda", "quota"), ()),
                   "linear": (("beta_tax",), ()),
                   "exponential": (("eta",), ()),
                   "tabulated": (("phi",), ())}
#: keys whose value is a list of numbers
_TABLES = {"u1", "u0", "phi"}


@dataclass(frozen=True)
class RunConfig:
    agent: PayoffSpec
    principal: PayoffSpec
    mechanism: Mechanism
    grid: LevelGrid
    mu0: float
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
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
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


def _spec(d, tag: str, kinds: dict, where: str) -> dict:
    """A payoff or mechanism object: a known `tag` value, its required keys
    and no others, each a finite number or, for a table, a list of them
    ("inf" also allowed in phi)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    kind = _require(d, tag, where)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {tag} {kind!r} in {where}")
    required, optional = kinds[kind]
    _check_keys(d, {tag, *required, *optional}, where)
    for key in required:
        _require(d, key, where)
    for key in sorted(set(d) - {tag}):
        if key not in _TABLES:
            _number(d[key], f"{where}.{key}")
        elif not isinstance(d[key], list):
            raise ConfigError(f"{where}.{key} must be a list of numbers")
        else:
            for x in d[key]:
                if not (key == "phi" and x == "inf"):
                    _number(x, f"{where}.{key} entry")
    return d


def _list(raw: dict, key: str) -> list:
    """A non-empty list: an empty one would silently mean the key is unset."""
    if not isinstance(raw[key], list) or not raw[key]:
        raise ConfigError(f"'{key}' must be a non-empty list")
    return raw[key]


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
    mu0 = _number(_require(prior, "mu0", "'prior'"), "prior.mu0")
    if not 0.0 <= mu0 <= 1.0:
        raise ConfigError(f"prior.mu0 = {mu0} outside [0, 1]")

    def payoff(d, where):
        return payoff_from_dict(_spec(d, "family", _PAYOFF_KEYS, where), grid)

    def mechanism(d, where):
        return mechanism_from_dict(_spec(d, "type", _MECHANISM_KEYS, where),
                                   grid)

    try:
        agent = payoff(_require(pd, "agent", "'payoff'"), "payoff.agent")
        principal = payoff(_require(pd, "principal", "'payoff'"),
                           "payoff.principal")
        mech = mechanism(raw["mechanism"], "'mechanism'") \
            if "mechanism" in raw else Zero()
        ambiguity = tuple(payoff(x, "'ambiguity' entry")
                          for x in _list(raw, "ambiguity")) \
            if "ambiguity" in raw else None
        mechanisms = tuple(mechanism(x, "'mechanisms' entry")
                           for x in _list(raw, "mechanisms")) \
            if "mechanisms" in raw else None
    except DomainError as e:
        raise ConfigError(str(e))

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

    return RunConfig(agent, principal, mech, grid, mu0, seed, ambiguity, tree,
                     mechanisms, sweep, n_ref)
