"""Seeded workloads of the robustquota benchmark.

Each workload is a fixed batch of items.  An item is one caller's sequence of
public robustquota calls (`run`, the timed part) plus a validator (`check`,
run outside the timed interval) that applies the acceptance battery's own
tolerances to the item's outputs.

The seed changes parameter values only.  The item mix -- payoff family,
mechanism, grid size, refinement count and path count of every item -- is a
constant of the workload, so cost differences between seeds come from small
parameter jitter alone.  Parameters are drawn from the region where every
call returns on the current code; where that region is not known in closed
form the generator redraws until a cheap domain check accepts the draw.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

import robustquota as rq
from robustquota import adaptive, adversary, checks, processes, robust, stopping

#: belief-grid resolution of the one-shot scans (the CLI default)
N_MU = 1001
#: tolerances taken from the acceptance battery
GUARANTEE_TOL = 1e-8        # criteria 2 and 8: value >= guarantee - 1e-8
ORACLE_TOL = 1e-6           # criterion 3: oracle == LP to 1e-6 relative
OFFZERO_TOL = 1e-9          # criterion 3: no off-zero pre-terminal mass
LP_MATCH_TOL = 1e-6         # LP == indifference construction, relative
WEAK_DUALITY_TOL = 1e-8     # dual bound <= LP value, relative
DKW_ALPHA = 1e-6            # DKW band confidence for simulated paths
MAX_DRAWS = 200


@dataclass(frozen=True)
class Item:
    """One closed-loop request: `run()` is timed, `check(record)` is not."""

    kind: str                       # mix category, e.g. "quadratic/zero"
    n: int                          # level-grid size
    extra: Tuple                    # further mix keys (refinements, paths)
    run: Callable = field(compare=False, repr=False)
    check: Callable = field(compare=False, repr=False)

    def mix_key(self):
        return (self.kind, self.n) + tuple(self.extra)


@dataclass(frozen=True)
class Batch:
    items: List[Item]
    warmup: Item

    def mix(self):
        """Item counts per mix category; identical for every seed."""
        return {" ".join(map(str, key)): count for key, count
                in sorted(Counter(it.mix_key() for it in self.items).items())}


def _near(rng, center, rel):
    return float(center * (1.0 + rng.uniform(-rel, rel)))


def _prior(rng, center):
    return float(center + rng.uniform(-0.01, 0.01))


def _pair(rng, family):
    if family == "quadratic":
        return rq.quadratic_pair(_near(rng, 1.0, 0.03), _near(rng, 1.0, 0.03),
                                 _near(rng, 1.0, 0.05))
    return rq.cara_pair(_near(rng, 1.0, 0.03), _near(rng, 3.0, 0.03))


def _draw(rng, sample, accept, what):
    """Redraw `sample(rng)` until `accept` holds; the mix never changes."""
    for _ in range(MAX_DRAWS):
        params = sample(rng)
        if accept(params):
            return params
    raise RuntimeError(f"no admissible parameters for {what} in {MAX_DRAWS} draws")


def _scale(v):
    return max(1.0, abs(v))


# ---------------------------------------------------------------- worstcase

#: (payoff family, mechanism, prior centre, grid sizes).  Quadratic zero at
#: mu0 ~ 0.4 puts bad-news mass down to level 0 (the certificate's a0 = 0
#: branch); quadratic linear at 0.6 fails the earlier-stopping premise; the
#: n = 801 items take the HiGHS route, the others the tableau simplex.
WORSTCASE_MIX = (
    ("quadratic", "zero", 0.40, (101, 401, 801)),
    ("quadratic", "linear", 0.60, (101, 401, 801)),
    ("quadratic", "robust", 0.60, (101, 401, 801)),
    ("cara", "zero", 0.65, (101, 201)),
    ("cara", "linear", 0.65, (101, 201)),
    ("cara", "robust", 0.65, (101, 201, 401)),
)
WORSTCASE_WARMUP = ("quadratic", "linear", 0.60, 801)
L_MAX = 2.0


def _robust_has_room(params):
    """The robust quota must leave >= 3 allowed levels: at L* = 0 the
    certificate's finite differences are undefined (a typed refusal)."""
    grid = rq.LevelGrid(L_MAX, params["n"])
    rob = rq.compute_robust(params["agent"], params["principal"],
                            params["mu0"], grid)
    return rob.L_star >= 2 * grid.h


def _worstcase_item(rng, family, mech, mu0c, n):
    def sample(r):
        agent, principal = _pair(r, family)
        return {"family": family, "mechanism": mech, "n": n,
                "agent": agent, "principal": principal,
                "mu0": _prior(r, mu0c), "beta_tax": _near(r, 0.02, 0.1)}

    accept = _robust_has_room if mech == "robust" else (lambda p: True)
    p = _draw(rng, sample, accept, f"worstcase {family}/{mech}/{n}")
    return Item(f"{family}/{mech}", n, (), lambda: _run_worstcase(p),
                _check_worstcase)


def _run_worstcase(p):
    """The `robustquota robust` + `worstcase` call sequence for one instance."""
    agent, principal, mu0 = p["agent"], p["principal"], p["mu0"]
    grid = rq.LevelGrid(L_MAX, p["n"])
    rob = robust.compute_robust(agent, principal, mu0, grid)
    m = {"zero": rq.Zero(), "linear": rq.Linear(p["beta_tax"]),
         "robust": rob.mechanism}[p["mechanism"]]
    lp = adversary.solve_badnews_lp(agent, principal, m, grid, mu0)
    ind = adversary.indifference_G(agent, m, grid, mu0, principal)
    mus = rq.belief_grid(N_MU)
    lu = checks.one_shot_levels(agent, mus, grid, m, side="agent")
    lv = checks.one_shot_levels(principal, mus, grid, m, side="principal")
    cert = adversary.dual_certificate(agent, principal, m, grid, mu0)
    report = None
    if p["mechanism"] == "robust":
        report = robust.verify_guarantee(rob, agent, principal, grid)
    return {"p": p, "mechanism": m, "lp_value": lp.value,
            "premise_ok": lp.premise_ok, "bn": ind.bn,
            "fallback": ind.used_lp_fallback, "dual_bound": cert.dual_bound,
            "scans": (lu, lv), "report": report}


def _check_worstcase(rec):
    p, v = rec["p"], rec["lp_value"]
    errs = []
    if not math.isfinite(v):
        return [f"LP value {v} is not finite"]
    if not rec["dual_bound"] <= v + WEAK_DUALITY_TOL * _scale(v):
        errs.append(f"weak duality: dual bound {rec['dual_bound']!r} > LP {v!r}")
    if rec["premise_ok"] and not rec["fallback"]:
        bv = adversary.badnews_value(rec["bn"], p["agent"], p["principal"],
                                     rec["mechanism"])
        if abs(bv - v) > LP_MATCH_TOL * _scale(v):
            errs.append(f"LP {v!r} != indifference construction {bv!r}")
    for levels in rec["scans"]:
        if np.any(np.diff(levels) < -1e-12):
            errs.append("one-shot levels not monotone in the belief")
    rep = rec["report"]
    if rep is not None and not rep.ok:
        errs.append(f"guarantee {rep.guarantee!r} not met: {rep.min_value!r}")
    return errs


def worstcase(seed):
    rng = np.random.default_rng([seed, 1])
    items = [_worstcase_item(rng, fam, mech, mu0c, n)
             for fam, mech, mu0c, sizes in WORSTCASE_MIX for n in sizes]
    fam, mech, mu0c, n = WORSTCASE_WARMUP
    return Batch(items, _worstcase_item(rng, fam, mech, mu0c, n))


# -------------------------------------------------------------------- trees

#: tree sizes; the payoff family alternates along them (quadratic first)
TREE_SIZES = tuple(range(51, 152, 10))
TREE_FAMILIES = (("quadratic", 0.60), ("cara", 0.65))
#: signal levels of each refinement as fractions of the tree depth; fixed so
#: that the refined node count, and with it the refinement cost, is a
#: constant of the mix
REFINEMENT_LEVELS = ((0.5,), (0.25, 0.75))
N_PATHS = 500
TREES_WARMUP = ("quadratic", 0.60, 51)


def _trees_item(rng, family, mu0c, n):
    agent, principal = _pair(rng, family)
    refinements = tuple(
        (_near(rng, 0.7, 0.07), _near(rng, 0.3, 0.15),
         tuple(int(round(f * (n - 1))) for f in fracs))
        for fracs in REFINEMENT_LEVELS)
    p = {"family": family, "n": n, "agent": agent, "principal": principal,
         "mu0": _prior(rng, mu0c), "p_good": _near(rng, 0.7, 0.03),
         "p_bad": _near(rng, 0.3, 0.06), "refinements": refinements,
         "paths": N_PATHS, "sim_seed": int(rng.integers(2 ** 31))}
    return Item(family, n, (len(refinements), N_PATHS), lambda: _run_trees(p),
                _check_trees)


def _run_trees(p):
    """Robust quota and adaptive quota on one binomial belief tree."""
    agent, principal, mu0 = p["agent"], p["principal"], p["mu0"]
    grid = rq.LevelGrid(L_MAX, p["n"])
    tree = processes.binomial_tree(mu0, grid, p["p_good"], p["p_bad"])
    rob = robust.compute_robust(agent, principal, mu0, grid)
    sol = stopping.solve_stopping(tree, agent, rob.mechanism)
    pv = stopping.principal_value(sol, principal, rob.mechanism)
    policy = adaptive.solve_adaptive_quota(tree, agent, principal)
    refined = []
    for pg, pb, levels in p["refinements"]:
        ref = adaptive.refine_process(tree, rq.BinaryExperiment(pg, pb, levels))
        refined.append(adaptive.evaluate_adaptive(policy, ref, agent, principal))
        del ref                 # one refined process alive at a time
    sim = stopping.simulate(tree, sol, p["paths"], p["sim_seed"])
    return {"p": p, "value": pv, "guarantee": rob.guarantee,
            "dp_value": policy.value, "refined": refined, "sim": sim,
            "exact": (sol.joint_level, sol.joint_belief, sol.joint_mass)}


def _dkw_distance(x_sim, m_sim, x_exact, m_exact):
    """Largest CDF gap between the simulated and exact laws of one coordinate."""
    pts = np.union1d(x_sim, x_exact)
    emp = np.array([m_sim[x_sim <= q + 1e-12].sum() for q in pts])
    ex = np.array([m_exact[x_exact <= q + 1e-12].sum() for q in pts])
    return float(np.abs(emp - ex).max())


def _check_trees(rec):
    errs = []
    if not rec["value"] >= rec["guarantee"] - GUARANTEE_TOL:
        errs.append(f"value {rec['value']!r} below guarantee {rec['guarantee']!r}")
    for k, v in enumerate(rec["refined"]):
        if not v >= rec["dp_value"] - GUARANTEE_TOL:
            errs.append(f"refinement {k}: value {v!r} < DP {rec['dp_value']!r}")
    levels, beliefs, mass = rec["sim"]
    ex_level, ex_belief, ex_mass = rec["exact"]
    # two CDFs checked, so each band gets half the confidence budget
    eps = math.sqrt(math.log(4.0 / DKW_ALPHA) / (2.0 * rec["p"]["paths"]))
    for what, xs, xe in (("level", levels, ex_level),
                         ("belief", beliefs, ex_belief)):
        d = _dkw_distance(xs, mass, xe, ex_mass)
        if d > eps:
            errs.append(f"simulated {what} CDF off by {d:.4f} > DKW {eps:.4f}")
    return errs


def trees(seed):
    rng = np.random.default_rng([seed, 2])
    items = [_trees_item(rng, *TREE_FAMILIES[k % 2], n)
             for k, n in enumerate(TREE_SIZES)]
    return Batch(items, _trees_item(rng, *TREES_WARMUP))


# ------------------------------------------------------------------ battery

#: criterion-2-style random trees: this many per pair for every n in 2..20
RANDOM_TREE_SIZES = tuple(range(2, 21))
RANDOM_TREE_PAIRS = ("quadratic", "cara", "quadratic")
#: criterion-3-style instances as (family, pair parameters, mechanisms).  The
#: pairs are criterion 3's; the combinations that fail the earlier-stopping
#: premise the oracle comparison needs (criterion 3 skips them) are left out.
_QUAD_MECHS = ("zero", "quota", "linear")
ORACLE_CASES = (("quadratic", (1.0, 1.0, 0.5), _QUAD_MECHS),
                ("quadratic", (1.0, 1.0, 1.0), _QUAD_MECHS),
                ("quadratic", (1.0, 1.0, 2.0), _QUAD_MECHS),
                ("quadratic", (2.0, 1.0, 1.0), _QUAD_MECHS),
                ("quadratic", (1.0, 2.0, 1.0), _QUAD_MECHS),
                ("cara", (1.0, 2.0), ("quota",)),
                ("cara", (1.0, 3.0), ("zero", "quota")),
                ("cara", (0.5, 1.5), ("zero", "quota")))
ORACLE_PRIORS = (0.4, 0.6)
#: six of ~100 items, so that the battery's tail percentile (p98) falls
#: inside this, the slowest, class rather than on its edge
VERIFY_CASES = tuple((fam, mu0c, n) for fam, mu0c in (("quadratic", 0.60),
                                                      ("cara", 0.70))
                     for n in (9, 13, 21))


def _random_tree_item(rng, family, n):
    agent, principal = _pair(rng, family)
    p = {"agent": agent, "principal": principal, "mu0": _prior(rng, 0.6),
         "n": n, "tree_seed": int(rng.integers(2 ** 31))}
    return Item(f"tree/{family}", n, (), lambda: _run_random_tree(p),
                _check_value)


def _run_random_tree(p):
    grid = rq.LevelGrid(L_MAX, p["n"])
    tree = processes.random_tree(p["mu0"], grid, p["tree_seed"], max_beliefs=4)
    rob = robust.compute_robust(p["agent"], p["principal"], p["mu0"], grid)
    sol = stopping.solve_stopping(tree, p["agent"], rob.mechanism)
    return {"value": stopping.principal_value(sol, p["principal"], rob.mechanism),
            "guarantee": rob.guarantee}


def _check_value(rec):
    if rec["value"] >= rec["guarantee"] - GUARANTEE_TOL:
        return []
    return [f"value {rec['value']!r} below guarantee {rec['guarantee']!r}"]


def _oracle_mechanism(p):
    # a zero quota tax, as in criterion 3: with a positive tax the oracle's
    # participation row binds and the two bounds differ by design
    return {"zero": rq.Zero(), "quota": rq.FixedTaxHardQuota(0.0, 0.5),
            "linear": rq.Linear(p["beta_tax"])}[p["mechanism"]]


def _oracle_item(rng, family, base, mech, mu0c):
    oracle_grid = rq.LevelGrid(1.0, 3)

    def sample(r):
        jit = [_near(r, b, 0.03) for b in base]
        pair = rq.quadratic_pair(*jit) if family == "quadratic" else rq.cara_pair(*jit)
        return {"agent": pair[0], "principal": pair[1], "mechanism": mech,
                "mu0": _prior(r, mu0c),
                "beta_tax": _near(r, 0.02, 0.1)}

    def premise(p):
        return adversary.principal_prefers_earlier(
            p["agent"], p["principal"], _oracle_mechanism(p), oracle_grid)

    p = _draw(rng, sample, premise, f"oracle {family}/{mech}")
    return Item(f"oracle/{family}/{mech}", 3, (), lambda: _run_oracle(p),
                _check_oracle)


def _run_oracle(p):
    grid = rq.LevelGrid(1.0, 3)
    m = _oracle_mechanism(p)
    lp = adversary.solve_badnews_lp(p["agent"], p["principal"], m, grid, p["mu0"])
    beliefs = sorted({0.0, *np.round(lp.bn.cont_belief(), 12)})
    oracle = adversary.tree_oracle_worst_case(p["agent"], p["principal"], m,
                                              grid, beliefs, p["mu0"])
    return {"lp": lp.value, "premise_ok": lp.premise_ok, "oracle": oracle.value,
            "offzero": oracle.pre_terminal_offzero_mass(grid.points[lp.bn.end])}


def _check_oracle(rec):
    errs = []
    if not rec["premise_ok"]:
        errs.append("earlier-stopping premise failed")
    if abs(rec["oracle"] - rec["lp"]) > ORACLE_TOL * _scale(rec["lp"]):
        errs.append(f"oracle {rec['oracle']!r} != LP {rec['lp']!r}")
    if rec["offzero"] > OFFZERO_TOL:
        errs.append(f"off-zero pre-terminal mass {rec['offzero']!r}")
    return errs


def _verify_item(rng, family, mu0c, n):
    def sample(r):
        agent, principal = _pair(r, family)
        return {"agent": agent, "principal": principal,
                "mu0": _prior(r, mu0c), "n": n}

    def has_quota(p):
        grid = rq.LevelGrid(L_MAX, n)
        return rq.compute_robust(p["agent"], p["principal"], p["mu0"],
                                 grid).L_star > 0.0

    p = _draw(rng, sample, has_quota, f"verify {family}/{n}")
    return Item(f"verify/{family}", n, (), lambda: _run_verify(p),
                _check_verify)


def _run_verify(p):
    grid = rq.LevelGrid(L_MAX, p["n"])
    rob = robust.compute_robust(p["agent"], p["principal"], p["mu0"], grid)
    return {"report": robust.verify_guarantee(rob, p["agent"], p["principal"],
                                              grid)}


def _check_verify(rec):
    rep = rec["report"]
    if rep.ok:
        return []
    return [f"guarantee {rep.guarantee!r} not met: {rep.min_value!r}"]


def battery(seed):
    rng = np.random.default_rng([seed, 3])
    items = [_random_tree_item(rng, fam, n)
             for n in RANDOM_TREE_SIZES for fam in RANDOM_TREE_PAIRS]
    items += [_oracle_item(rng, fam, base, mech, mu0c)
              for fam, base, mechs in ORACLE_CASES for mech in mechs
              for mu0c in ORACLE_PRIORS]
    items += [_verify_item(rng, fam, mu0c, n) for fam, mu0c, n in VERIFY_CASES]
    return Batch(items, _verify_item(rng, "quadratic", 0.60, 9))


WORKLOADS = {"worstcase": worstcase, "trees": trees, "battery": battery}
