"""JSON run configuration: schema validation and object construction.

Schema (all nesting literal; unknown keys are rejected):

    {
      "payoff":      {"agent": <payoff>, "principal": <payoff>},
      "mechanism":   <mechanism>,                  # optional, default zero
      "grid":        {"l_max": float > 0, "n": int >= 2},
      "prior":       {"mu0": float in [0, 1]},
      "seed":        int >= 0,                     # required by stochastic cmds
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
...}, the JSON form to_dict writes from the name and keys each class
declares (json_name, json_keys); `_from_json` reads it.  `parse_config`
fills every default: ambiguity [agent], tree no_learning, mechanisms
[mechanism], sweep [grid.l_max] and 50 refinements.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, DomainError, is_real
from .grid import LevelGrid
from .mechanisms import (Exponential, FixedTaxHardQuota, Linear, Mechanism,
                         TabulatedMechanism, Zero)
from .payoffs import CARA, CRRA, PayoffSpec, Quadratic, Tabulated

_TOP_KEYS = {"payoff", "mechanism", "grid", "prior", "seed", "ambiguity",
             "tree", "mechanisms", "sweep", "refinements"}
#: the payoff families and mechanism types, by their declared names
_PAYOFFS = {c.json_name: c for c in (Quadratic, CARA, CRRA, Tabulated)}
_MECHANISMS = {c.json_name: c for c in (Zero, FixedTaxHardQuota, Linear,
                                        Exponential, TabulatedMechanism)}


@dataclass(frozen=True)
class RunConfig:
    agent: PayoffSpec
    principal: PayoffSpec
    mechanism: Mechanism
    grid: LevelGrid
    mu0: float
    seed: Optional[int]
    ambiguity: tuple            # of agent PayoffSpec
    tree: dict
    mechanisms: tuple
    sweep_l_max: tuple
    n_refinements: int

    def require_seed(self, command: str) -> int:
        if self.seed is None:
            raise ConfigError(f"'{command}' draws random samples: the config "
                              "must set an integer 'seed'")
        if self.seed < 0:
            raise ConfigError("'seed' must be a nonnegative integer")
        return self.seed


def _check_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise DomainError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise DomainError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise DomainError(f"missing required key '{key}' in {where}")
    return d[key]


def _integer(value, where: str, least: int) -> int:
    """An integral JSON number (9 or 9.0, not true) of at least `least`."""
    ok = type(value) is int or type(value) is float and value.is_integer()
    if not ok or value < least:
        raise DomainError(f"{where} must be an integer >= {least}, "
                          f"got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    """A finite real number (not true, not a string), as a float."""
    if not (is_real(value) and math.isfinite(value)):
        raise DomainError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _from_json(d, tag: str, kinds: dict, grid: LevelGrid, where: str):
    """The object of the class in `kinds` that d's `tag` names, read by its
    declared json_keys: no other key, each a finite number or, for a tuple
    field (a table), a list of them with "inf" read as math.inf.  A key
    whose field has a default may be left out; a grid field takes `grid`."""
    if not isinstance(d, dict):
        raise DomainError(f"{where} must be an object, got {d!r}")
    kind = _require(d, tag, where)
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"unknown {tag} {kind!r} in {where}")
    cls, where = kinds[kind], f"{where} ({tag} {kind!r})"
    _check_keys(d, {tag, *cls.json_keys}, where)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    args = {}
    for key, attr in cls.json_keys.items():
        if key not in d and fields[attr].default is not dataclasses.MISSING:
            continue
        value = _require(d, key, where)
        if fields[attr].type is not tuple:
            args[attr] = _number(value, f"{where}: {key}")
        elif not isinstance(value, list):
            raise DomainError(f"{where}: {key} must be a list of numbers")
        else:
            args[attr] = tuple(math.inf if x == "inf" else
                               _number(x, f"{where}: {key} entry")
                               for x in value)
    if "grid" in fields:
        args["grid"] = grid
    return cls(**args)


def _list(raw: dict, key: str) -> list:
    """A non-empty list: an empty one would silently mean the key is unset."""
    if not isinstance(raw[key], list) or not raw[key]:
        raise DomainError(f"'{key}' must be a non-empty list")
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
    """The run configuration; any refusal is a ConfigError."""
    try:
        return _parse(raw)
    except DomainError as e:
        raise ConfigError(str(e)) from None


def _parse(raw: dict) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "config root")
    gd = _require(raw, "grid", "config")
    _check_keys(gd, {"l_max", "n"}, "'grid'")
    grid = LevelGrid(_number(_require(gd, "l_max", "'grid'"), "grid.l_max"),
                     _integer(_require(gd, "n", "'grid'"), "grid.n", 2))

    pd = _require(raw, "payoff", "config")
    _check_keys(pd, {"agent", "principal"}, "'payoff'")
    prior = _require(raw, "prior", "config")
    _check_keys(prior, {"mu0"}, "'prior'")
    mu0 = _number(_require(prior, "mu0", "'prior'"), "prior.mu0")
    if not 0.0 <= mu0 <= 1.0:
        raise DomainError(f"prior.mu0 = {mu0} outside [0, 1]")

    def payoff(d, where):
        return _from_json(d, "family", _PAYOFFS, grid, where)

    def mechanism(d, where):
        return _from_json(d, "type", _MECHANISMS, grid, where)

    agent = payoff(_require(pd, "agent", "'payoff'"), "payoff.agent")
    principal = payoff(_require(pd, "principal", "'payoff'"),
                       "payoff.principal")
    mech = mechanism(raw["mechanism"], "'mechanism'") \
        if "mechanism" in raw else Zero()
    ambiguity = tuple(payoff(x, "'ambiguity' entry")
                      for x in _list(raw, "ambiguity")) \
        if "ambiguity" in raw else (agent,)
    mechanisms = tuple(mechanism(x, "'mechanisms' entry")
                       for x in _list(raw, "mechanisms")) \
        if "mechanisms" in raw else (mech,)

    seed = raw.get("seed")
    if seed is not None and type(seed) is not int:     # a bool is refused
        raise DomainError("'seed' must be an integer")

    tree = raw.get("tree")
    tree = {"type": "no_learning"} if tree is None else tree
    _check_keys(tree, {"type", "p_good", "p_bad"}, "'tree'")
    if _require(tree, "type", "'tree'") not in ("no_learning", "binomial"):
        raise DomainError(f"unknown tree type {tree['type']!r}")
    p_good = _number(tree.get("p_good", 0.6), "tree.p_good")
    p_bad = _number(tree.get("p_bad", 0.4), "tree.p_bad")
    if not 0.0 < p_bad < p_good < 1.0:
        raise DomainError(f"tree needs 0 < p_bad < p_good < 1, got "
                          f"p_good={p_good}, p_bad={p_bad}")
    tree = {"type": tree["type"], "p_good": p_good, "p_bad": p_bad}

    sweep = (grid.l_max,)
    if "sweep" in raw:
        _check_keys(raw["sweep"], {"l_max"}, "'sweep'")
        sweep = _require(raw["sweep"], "l_max", "'sweep'")
        if not isinstance(sweep, list) or not sweep:
            raise DomainError("sweep.l_max must be a non-empty list")
        sweep = tuple(_number(x, "sweep.l_max entry") for x in sweep)
        if min(sweep) <= 0.0:
            raise DomainError(f"sweep.l_max entries must be positive, got "
                              f"{min(sweep)}")

    n_ref = 50
    if "refinements" in raw:
        _check_keys(raw["refinements"], {"count"}, "'refinements'")
        n_ref = _integer(_require(raw["refinements"], "count", "'refinements'"),
                         "refinements.count", 1)

    return RunConfig(agent, principal, mech, grid, mu0, seed, ambiguity, tree,
                     mechanisms, sweep, n_ref)
