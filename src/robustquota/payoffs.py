"""State-dependent payoff families and indirect utilities.

A payoff spec evaluates u(theta, l) for the binary state theta in {0, 1}
(1 = technology safe) and a development level l.  Indirect utility mixes the
two states linearly in the belief: U(mu, l) = mu u(1,l) + (1-mu) u(0,l).
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, is_real
from .grid import LevelGrid


def _finite(what: str, *xs):
    """DomainError unless every x is a finite real number (not a bool)."""
    if not all(is_real(x) and math.isfinite(x) for x in xs):
        raise DomainError(f"{what} must be finite real numbers, got {xs!r}")


@np.errstate(over="raise", invalid="raise")    # cheaper per call than `with`
def _trapping(u, l):
    """(u(1, l), u(0, l)), trapping overflow and invalid operations."""
    return u(1, l), u(0, l)


class PayoffSpec:
    """Base class; subclasses implement u(theta, l) vectorized over l, and
    `profile(l)` is the single evaluation entry point: both states at once.

    A family's JSON form is {"family": json_name, key: value, ...}, with
    json_keys mapping each key to the field holding it; `to_dict` writes it
    and `config.parse_config` reads it.
    """

    json_name = None
    json_keys = {}
    #: True when u(0, l) cannot be evaluated at l = 0 (CRRA's 1/l wealth map).
    singular_at_zero = False
    #: where the family's payoffs are finite, named when a level is not
    finite_where = "|u| <= 1.8e308"

    def u(self, theta: int, l):
        raise NotImplementedError

    def profile(self, l):
        """(u(1, l), u(0, l)) as float arrays, through which every payoff is
        evaluated, both states under one trap for overflow and invalid
        operations.  Where it springs, each state is checked on its own,
        state 1 first: one that overflows or is not a number raises
        DomainError at its first such level."""
        try:
            u1, u0 = _trapping(self.u, l)
        except FloatingPointError:
            u1, u0 = self._finite_u(1, l), self._finite_u(0, l)
        return np.asarray(u1, dtype=float), np.asarray(u0, dtype=float)

    def indirect(self, mu: float, l):
        """U(mu, l) = mu u(1,l) + (1-mu) u(0,l)."""
        u1, u0 = self.profile(l)
        return mu * u1 + (1.0 - mu) * u0

    def _finite_u(self, theta: int, l):
        """u(theta, l) when it is finite at every level, though a step on the
        way may have overflowed; DomainError at its first level where it
        is not."""
        with np.errstate(all="ignore"):
            v = self.u(theta, l)
        bad = ~np.isfinite(v)
        if not bad.any():
            return v
        at = np.broadcast_to(l, bad.shape)[bad].flat[0]
        raise DomainError(f"{self!r}: u({theta}, l) is not finite at "
                          f"level {at:g}; the family needs "
                          f"{self.finite_where}") from None

    def to_dict(self) -> dict:
        """The JSON form, every number a plain float."""
        return {"family": self.json_name,
                **{key: np.asarray(getattr(self, attr), dtype=float).tolist()
                   for key, attr in self.json_keys.items()}}


@dataclass(frozen=True)
class Quadratic(PayoffSpec):
    """u(1,l) = alpha*l, u(0,l) = -beta*l - quad*l**2.

    The risk-neutral developer is the quad=0 instance; a regulator who also
    internalizes a quadratic harm in the bad state carries quad > 0.
    """

    alpha: float
    beta: float
    quad: float = 0.0
    json_name = "quadratic"
    json_keys = {"alpha": "alpha", "beta": "beta", "quad": "quad"}

    def __post_init__(self):
        _finite("Quadratic parameters", self.alpha, self.beta, self.quad)
        if self.alpha <= 0 or self.beta <= 0 or self.quad < 0:
            raise DomainError("Quadratic requires alpha, beta > 0 and quad >= 0")

    def u(self, theta, l):
        l = np.asarray(l, dtype=float)
        if theta == 1:
            return self.alpha * l
        return -self.beta * l - self.quad * l * l


@dataclass(frozen=True)
class CARA(PayoffSpec):
    """Constant absolute risk aversion over terminal wealth W(1,l)=l, W(0,l)=-l."""

    gamma: float
    json_name = "cara"
    json_keys = {"gamma": "gamma"}
    finite_where = "gamma * l <= 709.78"

    def __post_init__(self):
        _finite("CARA gamma", self.gamma)
        if self.gamma <= 0:
            raise DomainError("CARA requires gamma > 0")

    def u(self, theta, l):
        l = np.asarray(l, dtype=float)
        w = l if theta == 1 else -l
        return -np.exp(-self.gamma * w)


@dataclass(frozen=True)
class CRRA(PayoffSpec):
    """Constant relative risk aversion (gamma != 1) over W(1,l)=l, W(0,l)=1/l.

    W(0, 0) is singular, so bad-state evaluation floors the level at `eps`;
    checkers that need derivatives skip the origin for this family.
    """

    gamma: float
    eps: float = 1e-9
    json_name = "crra"
    json_keys = {"gamma": "gamma", "eps": "eps"}
    singular_at_zero = True
    finite_where = "|1 - gamma| * |ln max(l, eps)| <= 709.78"

    def __post_init__(self):
        _finite("CRRA parameters", self.gamma, self.eps)
        if self.gamma == 1.0 or self.gamma <= 0:
            raise DomainError("CRRA requires gamma > 0, gamma != 1")
        if self.eps <= 0:
            raise DomainError("CRRA eps must be positive")

    def u(self, theta, l):
        l = np.asarray(l, dtype=float)
        l = np.maximum(l, self.eps)
        w = l if theta == 1 else 1.0 / l
        return (np.power(w, 1.0 - self.gamma) - 1.0) / (1.0 - self.gamma)


@dataclass(frozen=True)
class Tabulated(PayoffSpec):
    """Payoffs given at the grid points; off-grid levels interpolate linearly."""

    grid: LevelGrid
    values1: tuple  # u(1, l_j)
    values0: tuple  # u(0, l_j)
    json_name = "tabulated"
    json_keys = {"u1": "values1", "u0": "values0"}

    def __post_init__(self):
        v1 = np.asarray(self.values1, dtype=object)
        v0 = np.asarray(self.values0, dtype=object)
        if v1.shape != (self.grid.n,) or v0.shape != (self.grid.n,):
            raise DomainError("tabulated payoff length must equal grid size")
        _finite("tabulated payoffs", *v1, *v0)
        object.__setattr__(self, "values1", tuple(v1.astype(float)))
        object.__setattr__(self, "values0", tuple(v0.astype(float)))

    def u(self, theta, l):
        vals = self.values1 if theta == 1 else self.values0
        return np.interp(np.asarray(l, dtype=float), self.grid.points, vals)


def quadratic_pair(alpha: float, beta: float, gamma: float) -> Tuple[Quadratic, Quadratic]:
    """(developer, regulator) quadratic pair: the developer is risk neutral,
    the regulator additionally suffers gamma * l^2 in the bad state."""
    return Quadratic(alpha, beta, 0.0), Quadratic(alpha, beta, gamma)


def cara_pair(gamma_agent: float, gamma_principal: float) -> Tuple[CARA, CARA]:
    return CARA(gamma_agent), CARA(gamma_principal)
