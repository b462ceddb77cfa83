"""End-to-end acceptance checks with frozen instances and tolerances.

Each criterion returns a CriterionResult; `run_acceptance` executes all eight
and reports one pass/fail line apiece.  The CLI `accept` subcommand and the
test suite both call into this module.
"""

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .adaptive import evaluate_adaptive, random_experiment, refine_process, \
    solve_adaptive_quota
from .adversary import solve_badnews_lp, tree_oracle_worst_case
from .grid import LevelGrid
from .mechanisms import FixedTaxHardQuota, Linear, Zero, adjusted_profiles
from .payoffs import CARA, cara_pair, quadratic_pair
from .processes import binomial_tree, no_learning, random_tree, single_split
from .robust import compute_joint_robust, compute_robust
from .stopping import principal_value, solve_stopping


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"[{status}] criterion {self.index}: {self.name} "
                f"({self.seconds:.1f}s) - {self.detail}")


def _run(index: int, name: str, fn: Callable[[], str]) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except AssertionError as e:
        detail, ok = str(e), False
    except Exception:
        detail, ok = traceback.format_exc(limit=3).strip(), False
    return CriterionResult(index, name, ok, detail, time.perf_counter() - t0)


def criterion_1() -> str:
    """Robust mechanism and worst case agree with the closed form."""
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 2001)
    rob = compute_robust(agent, principal, 0.6, grid)
    assert abs(rob.L_star - 0.5) <= grid.h + 1e-15, f"L*={rob.L_star}"
    assert abs(rob.lambda_star - 0.1) <= 1e-6, f"lambda*={rob.lambda_star}"
    assert abs(rob.guarantee - 0.1) <= 1e-6, f"guarantee={rob.guarantee}"
    lp = solve_badnews_lp(agent, principal, rob.mechanism, grid, 0.6)
    assert abs(lp.value - 0.1) <= 1e-6, f"LP value={lp.value}"
    return (f"L*={rob.L_star:.6g} lambda*={rob.lambda_star:.6g} "
            f"guarantee={rob.guarantee:.6g} LP={lp.value:.6g}")


def criterion_2() -> str:
    """Max-min property over 200 seeded random belief trees."""
    mu0 = 0.6
    pairs = [quadratic_pair(1.0, 1.0, 1.0), cara_pair(1.0, 3.0)]
    worst_margin = np.inf
    for agent, principal in pairs:
        for seed in range(200):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(2, 21))
            grid = LevelGrid(2.0, n)
            tree = random_tree(mu0, grid, seed, max_beliefs=4)
            rob = compute_robust(agent, principal, mu0, grid)
            sol = solve_stopping(tree, agent, rob.mechanism)
            val = principal_value(sol, principal, rob.mechanism)
            margin = val - rob.guarantee
            worst_margin = min(worst_margin, margin)
            assert margin >= -1e-8, \
                f"seed {seed}, {type(agent).__name__}: value {val} < " \
                f"guarantee {rob.guarantee}"
    return f"400 tree/pair cases, worst margin {worst_margin:.3e}"


def criterion_3() -> str:
    """The tree oracle agrees with the bad-news LP on tiny grids."""
    battery = []
    for pair in [quadratic_pair(1.0, 1.0, 0.5), quadratic_pair(1.0, 1.0, 1.0),
                 quadratic_pair(1.0, 1.0, 2.0), quadratic_pair(2.0, 1.0, 1.0),
                 quadratic_pair(1.0, 2.0, 1.0), cara_pair(1.0, 2.0),
                 cara_pair(1.0, 3.0), cara_pair(0.5, 1.5)]:
        for mech in [Zero(), FixedTaxHardQuota(0.0, 0.5), Linear(0.02)]:
            for mu0 in (0.4, 0.6):
                battery.append((pair, mech, mu0))
    grid = LevelGrid(1.0, 3)
    n_checked = 0
    worst_dev = 0.0
    for (agent, principal), mech, mu0 in battery:
        lp = solve_badnews_lp(agent, principal, mech, grid, mu0)
        if not lp.premise_ok:
            continue
        # unrounded: where obedience binds at level 0 the agent is
        # indifferent to not starting, and a rounded belief can break
        # participation and cut the bad-news tree off
        beliefs = sorted({0.0, *lp.bn.cont_belief()})
        oracle = tree_oracle_worst_case(agent, principal, mech, grid,
                                        beliefs, mu0)
        scale = max(1.0, abs(lp.value))
        dev = abs(oracle.value - lp.value) / scale
        off0 = oracle.pre_terminal_offzero_mass(grid.points[lp.bn.end])
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-6, \
            f"oracle {oracle.value} vs LP {lp.value} ({type(mech).__name__}, " \
            f"mu0={mu0})"
        assert off0 <= 1e-9, f"off-zero pre-terminal mass {off0}"
        n_checked += 1
    assert n_checked >= 30, f"only {n_checked} instances passed the premise"
    return f"{n_checked} instances, worst relative deviation {worst_dev:.3e}"


def criterion_4() -> str:
    """Indifference beliefs match the closed form; duality gap is tight."""
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 2001)
    mu0, h = 0.5, grid.h
    lp = solve_badnews_lp(agent, principal, Zero(), grid, mu0)
    assert lp.route == "construction", \
        "indifference construction fell back to LP"
    lam = lp.bn.cont_belief()

    def closed(l):
        return 1.0 / (1.0 + np.exp(-2.0 * l))

    for j in range(lp.lbar_index, lp.bn.end):
        l = grid.points[j]
        lo, hi = closed(l - 2 * h), closed(l + 2 * h)
        assert lo - 1e-12 <= lam[j] <= hi + 1e-12, \
            f"belief {lam[j]} at l={l} outside [{lo}, {hi}]"

    assert abs(lp.gap) <= 1e-4 * abs(lp.value), \
        f"duality gap {lp.gap} vs primal {lp.value}"
    a1, a0 = adjusted_profiles(agent, Zero(), "agent", grid)
    scale = max(1.0, float(np.abs(a0).max()), float(np.abs(a1).max()))
    assert lp.comp_slack_max <= 1e-6 * scale, \
        f"complementary slackness {lp.comp_slack_max} > {1e-6 * scale}"
    return (f"primal={lp.value:.6g} dual={lp.dual_bound:.6g} "
            f"gap={lp.gap:.3e} slack={lp.comp_slack_max:.3e}")


def criterion_5() -> str:
    """Worst case diverges when the principal is risk-dominated, else bounded."""
    sweeps = {}
    for gamma_p in (3.0, 1.5):
        agent, principal = cara_pair(1.0, gamma_p)
        vals = []
        for l_max in (2.0, 4.0, 8.0, 16.0):
            grid = LevelGrid(l_max, 801)
            # the binding-obedience construction is the worst case here and
            # stays exact at payoff ranges (~e^48) where LP solvers wobble
            lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
            assert lp.route == "construction", "construction fell back to LP"
            vals.append(lp.value)
        sweeps[gamma_p] = vals
    div = sweeps[3.0]
    assert all(b < a - 1e-9 for a, b in zip(div, div[1:])), \
        f"not strictly decreasing: {div}"
    assert div[-1] < -1e3, f"value {div[-1]} at l_max=16 not below -1e3"
    bounded = sweeps[1.5]
    assert all(v > -5.0 for v in bounded), f"bounded sweep dipped: {bounded}"
    return (f"divergent {['%.3g' % v for v in div]}, "
            f"bounded min {min(bounded):.4g}")


def criterion_6() -> str:
    """A barely-optimistic single split sinks the principal without bound."""
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    vals = []
    for l_max in (10.0, 100.0):
        grid = LevelGrid(l_max, 1001)
        # the high posterior 0.51 = alpha/(alpha+beta) + 0.01 barely tips the
        # agent into full development; the prior must lie below it for a
        # binary split to exist
        proc = single_split(0.3, grid, 0.0, 0.51)
        sol = solve_stopping(proc, agent, Zero())
        vals.append(principal_value(sol, principal, Zero()))
    assert vals[0] < 0, f"value at l_max=10 is {vals[0]}, expected < 0"
    assert vals[1] <= 10.0 * vals[0], \
        f"magnitude grew only {vals[1] / vals[0]:.2f}x"
    return f"values {vals[0]:.4g} -> {vals[1]:.4g}"


def criterion_7() -> str:
    """Joint robustness equals the pointwise-min envelope scan."""
    members = (CARA(1.0), CARA(2.0))
    principal = CARA(3.0)
    mu0 = 0.6
    grid = LevelGrid(2.0, 2001)
    joint = compute_joint_robust(members, principal, mu0, grid)

    # independent scan: explicit loop over members and grid points
    best = -np.inf
    for l in grid.points:
        v = float(principal.indirect(mu0, l))
        s = min(float(a.indirect(mu0, l) - a.indirect(mu0, 0.0)) for a in members)
        best = max(best, s + v)
    assert abs(joint.guarantee - best) <= 1e-9, \
        f"joint {joint.guarantee} vs scan {best}"
    for a in members:
        single = compute_robust(a, principal, mu0, grid)
        assert joint.guarantee <= single.guarantee + 1e-12, \
            f"joint {joint.guarantee} exceeds singleton {single.guarantee}"
    return f"envelope max {joint.guarantee:.6g} at L={joint.L_star:.4g}"


def criterion_8() -> str:
    """Adaptive DP: degenerate tree is bitwise static; refinements never win."""
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    mu0 = 0.6
    grid = LevelGrid(2.0, 2001)
    static = compute_robust(agent, principal, mu0, grid)
    pol = solve_adaptive_quota(no_learning(mu0, grid), agent, principal)
    stop_levels = [grid.points[j] for j in range(grid.n)
                   if pol.node_stop[pol.tree.first[j]]]
    assert stop_levels[0] == static.L_star, \
        f"adaptive quota {stop_levels[0]!r} != static {static.L_star!r}"
    assert pol.lambda_adaptive == static.lambda_star, \
        f"adaptive tax {pol.lambda_adaptive!r} != static {static.lambda_star!r}"
    assert pol.value == static.guarantee, \
        f"adaptive value {pol.value!r} != static {static.guarantee!r}"

    grid9 = LevelGrid(2.0, 9)
    tree = binomial_tree(mu0, grid9)
    dp = solve_adaptive_quota(tree, agent, principal)
    static9 = compute_robust(agent, principal, mu0, grid9)
    assert dp.value >= static9.guarantee - 1e-12, \
        f"DP {dp.value} below static {static9.guarantee}"

    rng = np.random.default_rng(2024)
    worst_margin = np.inf
    for k in range(50):
        experiment = random_experiment(rng, grid9.n)
        ref = refine_process(tree, experiment)
        val = evaluate_adaptive(dp, ref, agent, principal)
        margin = val - dp.value
        worst_margin = min(worst_margin, margin)
        assert margin >= -1e-8, \
            f"refinement {k} ({experiment}) value {val} < DP {dp.value}"
    return (f"bitwise static ok, DP {dp.value:.6g} >= static "
            f"{static9.guarantee:.6g}, worst refinement margin {worst_margin:.3e}")


_CRITERIA = [
    (1, "closed-form guarantee attainment", criterion_1),
    (2, "max-min over random trees", criterion_2),
    (3, "tree oracle vs bad-news LP", criterion_3),
    (4, "indifference construction and duality", criterion_4),
    (5, "divergence vs boundedness sweep", criterion_5),
    (6, "single-split unboundedness", criterion_6),
    (7, "joint robustness envelope", criterion_7),
    (8, "adaptive quota DP and refinements", criterion_8),
]


def run_acceptance(indices=None) -> List[CriterionResult]:
    results = []
    for idx, name, fn in _CRITERIA:
        if indices is not None and idx not in indices:
            continue
        res = _run(idx, name, fn)
        print(res.line())
        results.append(res)
    return results
