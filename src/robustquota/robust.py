"""Learning-robust fixed-tax / hard-quota mechanisms and their guarantee."""

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .adversary import solve_badnews_lp, tree_oracle_worst_case
from .checks import AmbiguitySet
from .errors import DomainError
from .grid import LevelGrid
from .mechanisms import FixedTaxHardQuota
from .payoffs import PayoffSpec


@dataclass(frozen=True)
class RobustMechanismResult:
    L_star: float
    lambda_star: float
    guarantee: float
    surplus_curve: np.ndarray = field(repr=False)   # per grid level
    mechanism: FixedTaxHardQuota = field(repr=False)
    mu0: float

    def to_dict(self):
        return {"type": "fixed_tax_hard_quota", "lambda": self.lambda_star,
                "quota": self.L_star, "guarantee": self.guarantee,
                "mu0": self.mu0}


def surplus_curve(agent: PayoffSpec, principal: PayoffSpec, mu0: float,
                  grid: LevelGrid) -> np.ndarray:
    """Joint surplus S(l) = [U(mu0, l) - U(mu0, 0)] + V(mu0, l) on the grid."""
    l = grid.points
    U = mu0 * agent.u1(l) + (1.0 - mu0) * agent.u0(l)
    V = mu0 * principal.u1(l) + (1.0 - mu0) * principal.u0(l)
    return (U - U[0]) + V


def _result_from_surplus(S: np.ndarray, agent: PayoffSpec, mu0: float,
                         grid: LevelGrid) -> RobustMechanismResult:
    j = int(np.argmax(S))            # argmax returns the smallest maximizer
    L = float(grid.points[j])
    lam = float(agent.indirect(mu0, L) - agent.indirect(mu0, 0.0))
    return RobustMechanismResult(L, lam, float(S[j]), S,
                                 FixedTaxHardQuota(lam, L), mu0)


def compute_robust(agent: PayoffSpec, principal: PayoffSpec, mu0: float,
                   grid: LevelGrid) -> RobustMechanismResult:
    """Quota at the smallest grid maximizer of the joint surplus; tax set so
    the no-learning agent is exactly indifferent to the outside option."""
    if not 0.0 <= mu0 <= 1.0:
        raise DomainError(f"prior {mu0} outside [0, 1]")
    return _result_from_surplus(surplus_curve(agent, principal, mu0, grid),
                                agent, mu0, grid)


def compute_joint_robust(ambiguity: Union[AmbiguitySet, Sequence[PayoffSpec]],
                         principal: PayoffSpec, mu0: float,
                         grid: LevelGrid) -> RobustMechanismResult:
    """Robust to payoff ambiguity as well: quota at the maximizer of the
    pointwise-min surplus envelope, tax at the lowest member's slack there."""
    members = ambiguity.members if isinstance(ambiguity, AmbiguitySet) else tuple(ambiguity)
    if not members:
        raise DomainError("ambiguity set is empty")
    curves = np.stack([surplus_curve(a, principal, mu0, grid) for a in members])
    env = curves.min(axis=0)
    j = int(np.argmax(env))
    L = float(grid.points[j])
    lam = min(float(a.indirect(mu0, L) - a.indirect(mu0, 0.0)) for a in members)
    return RobustMechanismResult(L, lam, float(env[j]), env,
                                 FixedTaxHardQuota(lam, L), mu0)


@dataclass(frozen=True)
class GuaranteeReport:
    guarantee: float
    min_value: float
    abs_gap: float
    per_agent: tuple      # (lp_value, oracle_value) per agent payoff

    @property
    def ok(self) -> bool:
        return self.min_value >= self.guarantee - 1e-8


def verify_guarantee(result: RobustMechanismResult,
                     agents: Union[PayoffSpec, Sequence[PayoffSpec]],
                     principal: PayoffSpec, grid: LevelGrid) -> GuaranteeReport:
    """Attack the constructed mechanism with the bad-news LP and, on a small
    grid, the exhaustive tree oracle; report the worst value found."""
    if isinstance(agents, PayoffSpec):
        agents = (agents,)
    m = result.mechanism
    per = []
    worst = np.inf
    for a in agents:
        lp = solve_badnews_lp(a, principal, m, grid, result.mu0)
        # the small grid must contain the quota level, otherwise the
        # prohibition set it induces is a different mechanism entirely
        top = result.L_star if result.L_star > 0.0 else grid.l_max
        small = LevelGrid(top, min(grid.n, 4))
        beliefs = sorted({0.0, result.mu0, (1.0 + result.mu0) / 2, 1.0})
        oracle_val = tree_oracle_worst_case(a, principal, m, small, beliefs,
                                            result.mu0).value
        worst = min(worst, oracle_val, lp.value)
        per.append((lp.value, oracle_val))
    return GuaranteeReport(result.guarantee, float(worst),
                           float(abs(worst - result.guarantee)), tuple(per))
