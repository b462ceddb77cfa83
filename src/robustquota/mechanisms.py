"""Transfer mechanisms phi(l) on the level grid, with hard quotas.

A positive phi is a tax.  Prohibited levels (conceptually an infinite tax)
are carried as an explicit boolean mask, never as a large float, so argmax
and LP code can exclude them without overflow arithmetic.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, UnreachableLevelError
from .grid import LevelGrid
from .payoffs import PayoffSpec


class Mechanism:
    """Base class.  `tax_profile(grid)` is the single evaluation entry point."""

    def tax_profile(self, grid: LevelGrid) -> Tuple[np.ndarray, np.ndarray]:
        """Return (phi values, prohibited mask) over the grid points.

        phi is finite everywhere; prohibited levels have arbitrary phi entries
        and must be read through the mask.
        """
        raise NotImplementedError

    def tax(self, l: float, grid: LevelGrid) -> float:
        phi, proh = self.tax_profile(grid)
        j = grid.index_of(l)
        if proh[j]:
            raise UnreachableLevelError(f"level {l} is prohibited")
        return float(phi[j])

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(Mechanism):
    """Laissez-faire: no transfers, no quota."""

    def tax_profile(self, grid):
        return np.zeros(grid.n), np.zeros(grid.n, dtype=bool)

    def to_dict(self):
        return {"type": "zero"}


@dataclass(frozen=True)
class FixedTaxHardQuota(Mechanism):
    """Flat transfer lam at every allowed level, prohibition beyond the quota."""

    lam: float
    quota: float

    def __post_init__(self):
        if self.quota < 0:
            raise DomainError("quota must be nonnegative")

    def tax_profile(self, grid):
        pts = grid.points
        # Half-step slack so a quota sitting on a grid point stays allowed.
        proh = pts > self.quota + 0.5 * grid.h
        return np.full(grid.n, float(self.lam)), proh

    def to_dict(self):
        return {"type": "fixed_tax_hard_quota", "lambda": self.lam, "quota": self.quota}


@dataclass(frozen=True)
class Linear(Mechanism):
    """phi(l) = beta_tax * l."""

    beta_tax: float

    def tax_profile(self, grid):
        return self.beta_tax * grid.points.copy(), np.zeros(grid.n, dtype=bool)

    def to_dict(self):
        return {"type": "linear", "beta_tax": self.beta_tax}


@dataclass(frozen=True)
class Exponential(Mechanism):
    """phi(l) = exp(eta * l)."""

    eta: float

    def tax_profile(self, grid):
        return np.exp(self.eta * grid.points), np.zeros(grid.n, dtype=bool)

    def to_dict(self):
        return {"type": "exponential", "eta": self.eta}


@dataclass(frozen=True)
class TabulatedMechanism(Mechanism):
    """Arbitrary per-level transfers; math.inf entries mark prohibited levels.

    The prohibited set must be upward-closed (once prohibited, always
    prohibited), matching the quota semantics of the model.
    """

    grid: LevelGrid
    values: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise DomainError("tabulated mechanism length must equal grid size")
        if np.any(np.isneginf(v)) or np.any(np.isnan(v)):
            raise DomainError("phi may not be -inf or NaN")
        proh = np.isposinf(v)
        if proh.any():
            first = int(np.argmax(proh))
            if not proh[first:].all():
                raise DomainError("prohibited set must be upward-closed on the grid")
        object.__setattr__(self, "values", tuple(v))

    def tax_profile(self, grid):
        if grid.n != self.grid.n or grid.l_max != self.grid.l_max:
            raise DomainError("tabulated mechanism evaluated on a different grid")
        v = np.asarray(self.values)
        proh = np.isposinf(v)
        return np.where(proh, 0.0, v), proh

    def to_dict(self):
        return {"type": "tabulated",
                "phi": [("inf" if math.isinf(x) else x) for x in self.values]}


def adjusted_profiles(p: PayoffSpec, m: Mechanism, side: str, grid: LevelGrid):
    """(adjusted u(1,.), adjusted u(0,.), prohibited mask) over the grid.

    Agent side subtracts the tax, principal side receives it.
    """
    phi, proh = m.tax_profile(grid)
    pts = grid.points
    if side == "agent":
        return p.u1(pts) - phi, p.u0(pts) - phi, proh
    if side == "principal":
        return p.u1(pts) + phi, p.u0(pts) + phi, proh
    raise DomainError(f"side must be 'agent' or 'principal', got {side!r}")


def mechanism_from_dict(d: dict, grid: LevelGrid = None) -> Mechanism:
    if not isinstance(d, dict) or "type" not in d:
        raise DomainError("mechanism spec must be an object with a 'type' key")
    t = d["type"]
    if t == "zero":
        return Zero()
    if t == "fixed_tax_hard_quota":
        return FixedTaxHardQuota(d["lambda"], d["quota"])
    if t == "linear":
        return Linear(d["beta_tax"])
    if t == "exponential":
        return Exponential(d["eta"])
    if t == "tabulated":
        if grid is None:
            raise DomainError("tabulated mechanism requires a grid")
        vals = [math.inf if x == "inf" else float(x) for x in d["phi"]]
        return TabulatedMechanism(grid, tuple(vals))
    raise DomainError(f"unknown mechanism type {t!r}")
