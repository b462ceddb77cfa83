"""Transfer mechanisms phi(l) on the level grid, with hard quotas.

A positive phi is a tax.  A hard quota bounds development from above, so the
levels a mechanism prohibits (conceptually an infinite tax) are a suffix of
the grid: `tax_profile` returns phi on the allowed prefix only, and its
length is the quota.  A quota allows the grid points at or below its level,
by one rule, `_allowed`, for a fixed quota and a table's last allowed level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyMechanismError, is_real
from .grid import LevelGrid
from .payoffs import PayoffSpec, _finite


def _allowed(grid: LevelGrid, top: float) -> int:
    """The number of grid points at or below the level `top`, within 4 ulps
    of it: the computed point 0.30000000000000004 of a step of 0.1 meets a
    quota of 0.3."""
    top = float(top)
    return int(grid.points.searchsorted(top + 4.0 * math.ulp(top), "right"))


class Mechanism:
    """Base class.  `tax_profile(grid)` is the single evaluation entry point.
    The JSON form {"type": json_name, ...} is declared as PayoffSpec's."""

    json_name = None
    json_keys = {}

    def tax_profile(self, grid: LevelGrid) -> np.ndarray:
        """phi at the allowed levels, the first len(phi) grid points; the
        levels past them are prohibited."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The JSON form, every number a plain float."""
        return {"type": self.json_name,
                **{key: float(getattr(self, attr))
                   for key, attr in self.json_keys.items()}}


@dataclass(frozen=True)
class Zero(Mechanism):
    """Laissez-faire: no transfers, no quota."""

    json_name = "zero"

    def tax_profile(self, grid):
        return np.zeros(grid.n)


@dataclass(frozen=True)
class FixedTaxHardQuota(Mechanism):
    """Flat transfer lam at every allowed level, prohibition beyond the quota."""

    lam: float
    quota: float
    json_name = "fixed_tax_hard_quota"
    json_keys = {"lambda": "lam", "quota": "quota"}

    def __post_init__(self):
        _finite("tax", self.lam)
        if not is_real(self.quota):
            raise DomainError(f"quota must be a number, got {self.quota!r}")
        if not self.quota >= 0:
            raise DomainError("quota must be nonnegative")

    def tax_profile(self, grid):
        return np.array([float(self.lam)]).repeat(_allowed(grid, self.quota))


@dataclass(frozen=True)
class Linear(Mechanism):
    """phi(l) = beta_tax * l."""

    beta_tax: float
    json_name = "linear"
    json_keys = {"beta_tax": "beta_tax"}

    def __post_init__(self):
        _finite("beta_tax", self.beta_tax)

    def tax_profile(self, grid):
        # an overflow gives inf, which adjusted_profiles refuses
        with np.errstate(over="ignore"):
            return self.beta_tax * grid.points


@dataclass(frozen=True)
class Exponential(Mechanism):
    """phi(l) = exp(eta * l)."""

    eta: float
    json_name = "exponential"
    json_keys = {"eta": "eta"}

    def __post_init__(self):
        _finite("eta", self.eta)

    def tax_profile(self, grid):
        # an overflow gives inf, which adjusted_profiles refuses
        with np.errstate(over="ignore"):
            return np.exp(self.eta * grid.points)


@dataclass(frozen=True)
class TabulatedMechanism(Mechanism):
    """Arbitrary per-level transfers; math.inf entries mark prohibited levels.

    The prohibited set must be upward-closed (once prohibited, always
    prohibited), matching the quota semantics of the model.  On any grid,
    as a `Tabulated` payoff is, phi interpolates the table's finite points
    linearly, and the prohibited suffix is a quota at the last allowed
    level; on the table's own grid this is the finite prefix, bitwise.
    """

    grid: LevelGrid
    values: tuple
    json_name = "tabulated"
    json_keys = {"phi": "values"}

    def __post_init__(self):
        # each entry is tested as given: numpy would turn True into 1.0
        try:
            numeric = all(is_real(x) for x in self.values)
        except TypeError:                       # not a collection
            numeric = False
        if not numeric:
            raise DomainError("tabulated mechanism values must be a sequence "
                              "of numbers")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise DomainError("tabulated mechanism length must equal grid size")
        if ((v == -np.inf) | np.isnan(v)).any():
            raise DomainError("phi may not be -inf or NaN")
        proh = v == np.inf
        if proh.any() and not proh[proh.argmax():].all():
            raise DomainError("prohibited set must be upward-closed on the grid")
        object.__setattr__(self, "values", tuple(v))

    def tax_profile(self, grid):
        v = np.asarray(self.values)
        v = v[np.isfinite(v)]
        if not v.size:
            return v                            # every level prohibited
        at = self.grid.points[:v.size]
        return np.interp(grid.points[:_allowed(grid, at[-1])], at, v)

    def to_dict(self):
        """The JSON form, a prohibited level's entry written "inf"."""
        return {"type": self.json_name,
                "phi": [("inf" if math.isinf(x) else float(x))
                        for x in self.values]}


def adjusted_profiles(p: PayoffSpec, m: Mechanism, side: str, grid: LevelGrid):
    """(adjusted u(1,.), adjusted u(0,.)) at the allowed levels, the first
    len(phi) grid points.  Agent side subtracts the tax, principal side
    receives it.

    The one check on a mechanism's profile: one that is not a 1-D array of
    at most grid.n finite numbers raises DomainError, and an empty one
    (every level prohibited) EmptyMechanismError.
    """
    if side not in ("agent", "principal"):
        raise DomainError(f"side must be 'agent' or 'principal', got {side!r}")
    phi = np.asarray(m.tax_profile(grid))
    if (phi.ndim != 1 or phi.dtype.kind not in "iuf" or len(phi) > grid.n
            or not np.isfinite(phi).all()):
        raise DomainError(f"tax profile must be a 1-D array of at most "
                          f"{grid.n} finite numbers")
    if len(phi) == 0:
        raise EmptyMechanismError("all levels prohibited")
    pts = grid.points[:len(phi)]
    if side == "agent":
        return p.u1(pts) - phi, p.u0(pts) - phi
    return p.u1(pts) + phi, p.u0(pts) + phi
