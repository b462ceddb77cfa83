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


class PayoffSpec:
    """Base class; subclasses implement u(theta, l) vectorized over l."""

    #: True when u(0, l) cannot be evaluated at l = 0 (CRRA's 1/l wealth map).
    singular_at_zero = False

    def u(self, theta: int, l):
        raise NotImplementedError

    def u1(self, levels: np.ndarray) -> np.ndarray:
        return np.asarray(self.u(1, levels), dtype=float)

    def u0(self, levels: np.ndarray) -> np.ndarray:
        return np.asarray(self.u(0, levels), dtype=float)

    def indirect(self, mu: float, l):
        """U(mu, l) = mu u(1,l) + (1-mu) u(0,l)."""
        return mu * self.u(1, l) + (1.0 - mu) * self.u(0, l)

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Quadratic(PayoffSpec):
    """u(1,l) = alpha*l, u(0,l) = -beta*l - quad*l**2.

    The risk-neutral developer is the quad=0 instance; a regulator who also
    internalizes a quadratic harm in the bad state carries quad > 0.
    """

    alpha: float
    beta: float
    quad: float = 0.0

    def __post_init__(self):
        _finite("Quadratic parameters", self.alpha, self.beta, self.quad)
        if self.alpha <= 0 or self.beta <= 0 or self.quad < 0:
            raise DomainError("Quadratic requires alpha, beta > 0 and quad >= 0")

    def u(self, theta, l):
        l = np.asarray(l, dtype=float)
        if theta == 1:
            return self.alpha * l
        return -self.beta * l - self.quad * l * l

    def to_dict(self):
        return {"family": "quadratic", "alpha": self.alpha, "beta": self.beta,
                "quad": self.quad}


@dataclass(frozen=True)
class CARA(PayoffSpec):
    """Constant absolute risk aversion over terminal wealth W(1,l)=l, W(0,l)=-l."""

    gamma: float

    def __post_init__(self):
        _finite("CARA gamma", self.gamma)
        if self.gamma <= 0:
            raise DomainError("CARA requires gamma > 0")

    def u(self, theta, l):
        l = np.asarray(l, dtype=float)
        w = l if theta == 1 else -l
        return -np.exp(-self.gamma * w)

    def to_dict(self):
        return {"family": "cara", "gamma": self.gamma}


@dataclass(frozen=True)
class CRRA(PayoffSpec):
    """Constant relative risk aversion (gamma != 1) over W(1,l)=l, W(0,l)=1/l.

    W(0, 0) is singular, so bad-state evaluation floors the level at `eps`;
    checkers that need derivatives skip the origin for this family.
    """

    gamma: float
    eps: float = 1e-9
    singular_at_zero = True

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

    def to_dict(self):
        return {"family": "crra", "gamma": self.gamma, "eps": self.eps}


@dataclass(frozen=True)
class Tabulated(PayoffSpec):
    """Payoffs given at the grid points; off-grid levels interpolate linearly."""

    grid: LevelGrid
    values1: tuple  # u(1, l_j)
    values0: tuple  # u(0, l_j)

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

    def to_dict(self):
        return {"family": "tabulated", "u1": list(self.values1),
                "u0": list(self.values0)}


def quadratic_pair(alpha: float, beta: float, gamma: float) -> Tuple[Quadratic, Quadratic]:
    """(developer, regulator) quadratic pair: the developer is risk neutral,
    the regulator additionally suffers gamma * l^2 in the bad state."""
    return Quadratic(alpha, beta, 0.0), Quadratic(alpha, beta, gamma)


def cara_pair(gamma_agent: float, gamma_principal: float) -> Tuple[CARA, CARA]:
    return CARA(gamma_agent), CARA(gamma_principal)


def payoff_from_dict(d: dict, grid: LevelGrid = None) -> PayoffSpec:
    """Construct a payoff spec from its JSON form."""
    if not isinstance(d, dict) or "family" not in d:
        raise DomainError("payoff spec must be an object with a 'family' key")
    fam = d["family"]
    try:
        if fam == "quadratic":
            return Quadratic(d["alpha"], d["beta"], d.get("quad", 0.0))
        if fam == "cara":
            return CARA(d["gamma"])
        if fam == "crra":
            return CRRA(d["gamma"], d.get("eps", 1e-9))
        if fam == "tabulated":
            if grid is None:
                raise DomainError("tabulated payoff requires a grid")
            return Tabulated(grid, tuple(d["u1"]), tuple(d["u0"]))
    except KeyError as e:
        raise DomainError(f"{fam!r} payoff spec lacks key {e}") from None
    except (TypeError, DomainError) as e:
        raise DomainError(f"{fam!r} payoff spec {d!r}: {e}") from None
    raise DomainError(f"unknown payoff family {fam!r}")
