"""Reference: a bad-news process as a `DiscreteLearningProcess`, so that it
can be valued independently of the LP, through `solve_stopping`."""

import numpy as np

from robustquota import BadNewsProcess, DiscreteLearningProcess

from level_reference import flat_process


def bad_news_tree(bn: BadNewsProcess) -> DiscreteLearningProcess:
    """Two-node-per-level compact tree: {bad news (belief 0), surviving}.

    Quota-truncated processes are padded with absorbing nodes so the result
    lives on the full grid (the solver never continues past the quota
    anyway).
    """
    n = bn.grid.n
    lam_r = bn.cont_belief()
    lam = np.concatenate([lam_r, np.full(n - 1 - bn.end, lam_r[-1])])
    G = np.concatenate([bn.G, np.full(n - 1 - bn.end, 1.0 - bn.mu0)])
    surv = 1.0 - G
    beliefs = tuple(np.array([0.0, lam[j]]) for j in range(n))
    kernels = []
    for j in range(n - 1):
        if surv[j] <= 1e-15:
            k = np.array([[1.0, 0.0], [1.0, 0.0]])
        else:
            stay = min(surv[j + 1] / surv[j], 1.0)
            k = np.array([[1.0, 0.0], [1.0 - stay, stay]])
        kernels.append(k)
    g0 = float(G[0])
    root = np.array([g0, 1.0 - g0]) if g0 > 1e-15 else np.array([0.0, 1.0])
    return flat_process(bn.grid, beliefs, kernels, root, bn.mu0)
