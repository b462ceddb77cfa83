"""scipy.optimize and scipy.sparse cost 0.16-0.6 s to import, more than a
small run's own work; the oracle, guarantee checks and the stopping engine
must not pull them in."""

import os
import subprocess
import sys

import robustquota

SCRIPT = """
import sys
import numpy as np
from robustquota import (LevelGrid, Zero, binomial_tree, compute_robust,
                         quadratic_pair, solve_stopping, verify_guarantee)
from robustquota.adversary import solve_badnews_lp, tree_oracle_worst_case

agent, principal = quadratic_pair(1.0, 1.0, 1.0)
grid = LevelGrid(2.0, 9)
rob = compute_robust(agent, principal, 0.6, grid)
assert verify_guarantee(rob, agent, principal, grid).ok

small = LevelGrid(1.0, 3)
lp = solve_badnews_lp(agent, principal, Zero(), small, 0.6, solver="simplex")
beliefs = sorted({0.0, *np.round(lp.bn.cont_belief(), 12)})
tree_oracle_worst_case(agent, principal, Zero(), small, beliefs, 0.6)

solve_stopping(binomial_tree(0.6, grid), agent, rob.mechanism)
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
"""


def test_small_runs_do_not_import_scipy_optimize_or_sparse():
    src = os.path.dirname(os.path.dirname(robustquota.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
