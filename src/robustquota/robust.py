"""Learning-robust fixed-tax / hard-quota mechanisms, and both attacks on a
mechanism: verify_guarantee, which adds the tree oracle to the bad-news LP
only for agents whose LP value is not certified over all learning
processes, and payoff_gap, which adds it where the earlier-stopping premise
fails."""

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .adversary import solve_badnews_lp, tree_oracle_worst_case
from .errors import DomainError, is_real
from .grid import LevelGrid
from .mechanisms import FixedTaxHardQuota, Mechanism
from .payoffs import PayoffSpec


@dataclass(frozen=True)
class RobustMechanismResult:
    L_star: float
    lambda_star: float
    guarantee: float
    surplus_curve: np.ndarray = field(repr=False)   # per grid level
    mechanism: FixedTaxHardQuota = field(repr=False)
    mu0: float


def surplus_curve(agent: PayoffSpec, principal: PayoffSpec, mu0: float,
                  grid: LevelGrid) -> np.ndarray:
    """Joint surplus S(l) = [U(mu0, l) - U(mu0, 0)] + V(mu0, l) on the grid."""
    l = grid.points
    U = mu0 * agent.u1(l) + (1.0 - mu0) * agent.u0(l)
    V = mu0 * principal.u1(l) + (1.0 - mu0) * principal.u0(l)
    return (U - U[0]) + V


def compute_robust(agent: PayoffSpec, principal: PayoffSpec, mu0: float,
                   grid: LevelGrid) -> RobustMechanismResult:
    """Quota at the smallest grid maximizer of the joint surplus; tax set so
    the no-learning agent is exactly indifferent to the outside option: the
    joint-robust mechanism of the one-member ambiguity set {agent}."""
    return compute_joint_robust((agent,), principal, mu0, grid)


def compute_joint_robust(ambiguity: Sequence[PayoffSpec],
                         principal: PayoffSpec, mu0: float,
                         grid: LevelGrid) -> RobustMechanismResult:
    """Robust to payoff ambiguity as well: quota at the maximizer of the
    pointwise-min surplus envelope (its smallest maximizer), tax at the
    lowest member's slack there."""
    if not (is_real(mu0) and 0.0 <= mu0 <= 1.0):
        raise DomainError(f"prior {mu0!r} outside [0, 1]")
    members = tuple(ambiguity)
    if not members:
        raise DomainError("ambiguity set is empty")
    curves = np.stack([surplus_curve(a, principal, mu0, grid) for a in members])
    env = curves.min(axis=0)
    j = int(env.argmax())
    L = float(grid.points[j])
    lam = min(float(a.indirect(mu0, L) - a.indirect(mu0, 0.0)) for a in members)
    return RobustMechanismResult(L, lam, float(env[j]), env,
                                 FixedTaxHardQuota(lam, L), mu0)


@dataclass(frozen=True)
class GuaranteeReport:
    guarantee: float
    min_value: float
    #: (lp_value, oracle_value) per agent payoff; oracle_value is None where
    #: the LP's certificate covers every learning process on the grid
    #: (BadNewsLPResult.all_processes), so no oracle ran
    per_agent: tuple

    @property
    def ok(self) -> bool:
        return self.min_value >= self.guarantee - 1e-8


def verify_guarantee(result: RobustMechanismResult,
                     agents: Union[PayoffSpec, Sequence[PayoffSpec]],
                     principal: PayoffSpec, grid: LevelGrid) -> GuaranteeReport:
    """Attack the constructed mechanism with the bad-news LP and, for each
    agent whose LP value is not certified over all learning processes, the
    exhaustive tree oracle on a small grid; report the worst value found.
    No agent payoff to attack with raises DomainError."""
    agents = (agents,) if isinstance(agents, PayoffSpec) else tuple(agents)
    if not agents:
        raise DomainError("no agent payoff to verify the guarantee against")
    m = result.mechanism
    per = []
    for a in agents:
        lp = solve_badnews_lp(a, principal, m, grid, result.mu0)
        oracle_val = None
        if not lp.all_processes:
            # the small grid must contain the quota level, otherwise the
            # prohibition set it induces is a different mechanism entirely
            top = result.L_star if result.L_star > 0.0 else grid.l_max
            small = LevelGrid(top, min(grid.n, 4))
            beliefs = sorted({0.0, result.mu0, (1.0 + result.mu0) / 2, 1.0})
            oracle_val = tree_oracle_worst_case(a, principal, m, small,
                                                beliefs, result.mu0).value
        per.append((lp.value, oracle_val))
    worst = min(v for pair in per for v in pair if v is not None)
    return GuaranteeReport(result.guarantee, float(worst), tuple(per))


@dataclass(frozen=True)
class GapResult:
    delta: float
    guarantee: float
    worst_value: float
    route: str      # "badnews_lp", or "tree_oracle" where the premise fails


def payoff_gap(m: Mechanism, agent: PayoffSpec, principal: PayoffSpec,
               grid: LevelGrid, mu0: float) -> GapResult:
    """Delta(phi) = ADV guarantee minus the worst-case value of mechanism m.
    Without the earlier-stopping premise the tree oracle also attacks m, on 0
    and three of the LP's continuation beliefs, on at most 4 levels spanning
    [0, last allowed level] so that its agent meets the same quota."""
    guarantee = compute_robust(agent, principal, mu0, grid).guarantee
    lp = solve_badnews_lp(agent, principal, m, grid, mu0)
    if lp.premise_ok:
        return GapResult(guarantee - lp.value, guarantee, lp.value,
                         "badnews_lp")
    # earlier-stopping premise failed (never with one allowed level, where
    # both one-shot levels are 0): bound via the small tree oracle
    end = lp.bn.end
    small = LevelGrid(float(grid.points[end]), min(end + 1, 4))
    lam = lp.bn.cont_belief()
    idx = np.linspace(0, len(lam) - 1, 3).astype(int)
    beliefs = sorted({0.0, *(float(lam[i]) for i in idx)})
    oracle = tree_oracle_worst_case(agent, principal, m, small, beliefs, mu0)
    worst = min(lp.value, oracle.value)
    return GapResult(guarantee - worst, guarantee, worst, "tree_oracle")
