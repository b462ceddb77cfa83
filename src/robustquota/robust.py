"""Learning-robust fixed-tax / hard-quota mechanisms, and the one attack on
a mechanism: the bad-news LP, plus the tree oracle for agents whose LP value
is not certified over all learning processes.  verify_guarantee runs it on
the robust mechanism and payoff_gap on any mechanism; both return a
GuaranteeReport."""

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

    @property
    def delta(self) -> float:
        """The gap Delta(phi): the robust guarantee minus the worst value."""
        return self.guarantee - self.min_value

    @property
    def route(self) -> str:
        """Which attack gave the report: "tree_oracle" where the oracle ran
        for some agent, else "badnews_lp"."""
        ran = any(o is not None for _, o in self.per_agent)
        return "tree_oracle" if ran else "badnews_lp"


def _attack(m: Mechanism, guarantee: float, agents: Sequence[PayoffSpec],
            principal: PayoffSpec, grid: LevelGrid,
            mu0: float) -> GuaranteeReport:
    """Attack m for each agent with the bad-news LP and, where its value is
    not certified over all learning processes, with the exhaustive tree
    oracle on at most 4 levels spanning [0, m's last allowed level], so its
    agent meets the same quota, and beliefs {0, mu0, (1 + mu0)/2, 1}.  With
    one allowed level there is no step to test and the LP is certified."""
    per = []
    for a in agents:
        lp = solve_badnews_lp(a, principal, m, grid, mu0)
        oracle_val = None
        if not lp.all_processes:
            small = LevelGrid(float(grid.points[lp.bn.end]), min(grid.n, 4))
            beliefs = sorted({0.0, mu0, (1.0 + mu0) / 2, 1.0})
            oracle_val = tree_oracle_worst_case(a, principal, m, small,
                                                beliefs, mu0).value
        per.append((lp.value, oracle_val))
    worst = min(v for pair in per for v in pair if v is not None)
    return GuaranteeReport(guarantee, float(worst), tuple(per))


def verify_guarantee(result: RobustMechanismResult,
                     agents: Union[PayoffSpec, Sequence[PayoffSpec]],
                     principal: PayoffSpec, grid: LevelGrid) -> GuaranteeReport:
    """Attack the constructed mechanism (_attack) and hold the worst value
    found against its guarantee.  No agent payoff to attack with raises
    DomainError."""
    agents = (agents,) if isinstance(agents, PayoffSpec) else tuple(agents)
    if not agents:
        raise DomainError("no agent payoff to verify the guarantee against")
    return _attack(result.mechanism, result.guarantee, agents, principal,
                   grid, result.mu0)


def payoff_gap(m: Mechanism, agent: PayoffSpec, principal: PayoffSpec,
               grid: LevelGrid, mu0: float) -> GuaranteeReport:
    """The attack on any mechanism m, held against the robust guarantee
    for the same instance; the report's delta is Delta(phi)."""
    guarantee = compute_robust(agent, principal, mu0, grid).guarantee
    return _attack(m, guarantee, (agent,), principal, grid, mu0)
