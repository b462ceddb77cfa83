"""The layered-DAG stopping engine (backward induction and forward stopped
mass), the agent's optimal stopping problem, principal evaluation, and seeded
path simulation."""

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import DomainError, EmptyMechanismError, RobustQuotaError
from .mechanisms import Mechanism, adjusted_profiles
from .payoffs import PayoffSpec
from .processes import DiscreteLearningProcess


def backward(proc: DiscreteLearningProcess, stop_payoff, forced=None,
             tie_eps: float = 1e-9):
    """Backward induction over levels 0..end = len(stop_payoff) - 1.

    A node stops when its stop payoff beats the expected value of the next
    level by more than tie_eps, so ties go to continuing.  `forced` (per
    level boolean arrays) stops nodes regardless of the comparison and values
    them at the stop payoff.  The last level is a forced stop.  Returns the
    per-level tuples (values, stop_set).
    """
    end = len(stop_payoff) - 1
    values = [None] * (end + 1)
    stop_set = [None] * (end + 1)
    values[end] = np.array(stop_payoff[end], dtype=float)
    stop_set[end] = np.ones(len(values[end]), dtype=bool)
    for j in range(end - 1, -1, -1):
        s = stop_payoff[j]
        cont = proc.kernels[j] @ values[j + 1]
        stop_set[j] = s > cont + tie_eps
        values[j] = np.maximum(s, cont)
        if forced is not None:
            stop_set[j] |= forced[j]
            values[j] = np.where(forced[j], s, values[j])
    return tuple(values), tuple(stop_set)


def forward(proc: DiscreteLearningProcess, stop_set) -> List[np.ndarray]:
    """Mass that stops at each node of levels 0..len(stop_set) - 1 (zero at
    continuing nodes), pushed from the root distribution through the
    kernels."""
    stopped = []
    mass = proc.root_dist
    for j, st in enumerate(stop_set):
        stopped.append(np.where(st, mass, 0.0))
        if j + 1 < len(stop_set):
            mass = np.where(st, 0.0, mass) @ proc.kernels[j]
    return stopped


@dataclass(frozen=True)
class StoppingSolution:
    """Backward-induction solution of the agent's problem.

    `values`/`stop_set` run over levels 0..end (the last allowed level under
    the mechanism's quota); `joint` is the induced distribution over
    (stopping belief, stopping level) as parallel arrays, with the grid index
    of each stopping level in `joint_index`.
    """

    proc: DiscreteLearningProcess = field(repr=False)
    end: int
    values: tuple = field(repr=False)
    stop_set: tuple = field(repr=False)
    joint_belief: np.ndarray
    joint_level: np.ndarray
    joint_mass: np.ndarray
    joint_index: np.ndarray
    root_value: float
    outside_option: float
    participation: bool
    mu0: float


def solve_stopping(proc: DiscreteLearningProcess, agent: PayoffSpec, m: Mechanism,
                   tie_eps: float = 1e-9,
                   participation_tol: float = 1e-9) -> StoppingSolution:
    """Solve sup over stopping times of E[U^phi] on the process tree.

    Indifference (within tie_eps) goes to continuing; levels past the quota
    are excluded from the continuation max, so the last allowed level is a
    forced stop.  Participation compares the root value to U(mu0, 0).
    """
    grid = proc.grid
    a1, a0, proh = adjusted_profiles(agent, m, "agent", grid)
    allowed = ~proh
    if not allowed.any():
        raise EmptyMechanismError("all levels prohibited")
    end = int(np.nonzero(allowed)[0][-1])
    if not allowed[:end + 1].all():
        raise DomainError("prohibited set must be upward-closed")

    stop_payoff = [proc.beliefs[j] * a1[j] + (1.0 - proc.beliefs[j]) * a0[j]
                   for j in range(end + 1)]
    values, stop_set = backward(proc, stop_payoff, tie_eps=tie_eps)

    root_value = float(proc.root_dist @ values[0])
    outside = float(agent.indirect(proc.mu0, 0.0))
    participation = root_value >= outside - participation_tol

    # atoms in (level, node) order: the supports of levels 0..end back to back
    stopped = np.concatenate(forward(proc, stop_set))
    atoms = np.nonzero(stopped > 0)[0]
    joint_index = np.repeat(np.arange(end + 1), [len(s) for s in stop_set])[atoms]
    joint_belief = np.concatenate(proc.beliefs[:end + 1])[atoms]
    joint_mass = stopped[atoms]
    total = joint_mass.sum()
    if abs(total - 1.0) > 1e-12:
        raise RobustQuotaError(f"joint stopping mass {total} != 1")

    return StoppingSolution(proc, end, values, stop_set, joint_belief,
                            grid.points[joint_index], joint_mass, joint_index,
                            root_value, outside, participation, proc.mu0)


def agent_value(sol: StoppingSolution) -> float:
    return sol.root_value if sol.participation else sol.outside_option


def principal_value(sol: StoppingSolution, principal: PayoffSpec, m: Mechanism) -> float:
    """E[V^phi] over the stopping distribution; the outside option V(mu0, 0)
    when the agent does not participate."""
    grid = sol.proc.grid
    if not sol.participation:
        return float(principal.indirect(sol.mu0, 0.0))
    p1, p0, proh = adjusted_profiles(principal, m, "principal", grid)
    idx = sol.joint_index
    if proh[idx].any():
        raise RobustQuotaError("stopping mass on a prohibited level")
    vals = sol.joint_belief * p1[idx] + (1.0 - sol.joint_belief) * p0[idx]
    return float(vals @ sol.joint_mass)


def simulate(proc: DiscreteLearningProcess, sol: StoppingSolution, n_paths: int,
             seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo draw of (stopping belief, stopping level) pairs.

    Each path uses its own counter-based RNG stream keyed by (seed, path), so
    the sample is reproducible and independent of any parallel scheduling.
    Returns aggregated (stop_level, stop_belief, mass) arrays.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    root_cdf = np.cumsum(proc.root_dist)
    kernel_cdfs = [np.cumsum(k, axis=1) for k in proc.kernels]
    counts = {}
    for path in range(n_paths):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, path],
                                                                dtype=np.uint64)))
        node = int(np.searchsorted(root_cdf, rng.random()))
        j = 0
        while not sol.stop_set[j][node]:
            node = int(np.searchsorted(kernel_cdfs[j][node], rng.random()))
            j += 1
        key = (float(proc.grid.points[j]), float(proc.beliefs[j][node]))
        counts[key] = counts.get(key, 0) + 1

    keys = sorted(counts)
    levels = np.array([k[0] for k in keys])
    bels = np.array([k[1] for k in keys])
    mass = np.array([counts[k] / n_paths for k in keys])
    return levels, bels, mass
