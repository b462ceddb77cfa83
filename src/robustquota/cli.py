"""Command-line front end: check | robust | worstcase | gap | adaptive | accept.

All commands are deterministic given the config and seed; CSV output uses
17-significant-digit decimal floats so reruns are byte-identical.
Exit codes: 0 success, 1 check/criterion failure, 2 usage or config error.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .acceptance import _CRITERIA, run_acceptance
from .adversary import solve_badnews_lp
from .checks import check_assumptions, pseudo_inverse_beliefs, \
    risk_ratio_condition
from .config import RunConfig, load_config
from .errors import ConfigError, DomainError, RobustQuotaError
from .grid import LevelGrid
from .processes import binomial_tree, no_learning
from .robust import compute_joint_robust, payoff_gap
from .adaptive import evaluate_adaptive, random_experiment, refine_process, \
    solve_adaptive_quota


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_json(path: str, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _outpath(args, name: str) -> str:
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {out}: {e.strerror or e}") from None
    return os.path.join(out, name)


def cmd_check(cfg: RunConfig, args) -> int:
    report = check_assumptions(cfg.agent, cfg.principal, cfg.grid)
    payload = {"assumptions": report.to_dict()}
    try:
        ratio = risk_ratio_condition(cfg.agent, cfg.principal, cfg.mechanism,
                                     cfg.grid)
        payload["marginal_ratio"] = ratio.to_dict()
        ratio_ok = ratio.nondecreasing
    except RobustQuotaError as e:
        payload["marginal_ratio"] = {"error": str(e)}
        ratio_ok = False
    _write_json(_outpath(args, "check.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if (report.all_pass and ratio_ok) else 1


def cmd_robust(cfg: RunConfig, args) -> int:
    result = compute_joint_robust(cfg.ambiguity, cfg.principal, cfg.mu0,
                                  cfg.grid)
    mech = result.mechanism.to_dict()
    _write_json(_outpath(args, "mechanism.json"), mech)
    _write_csv(_outpath(args, "surplus.csv"), ["level", "surplus"],
               zip(cfg.grid.points, result.surplus_curve))
    print(json.dumps({**mech, "guarantee": result.guarantee}, sort_keys=True))
    return 0


def cmd_worstcase(cfg: RunConfig, args) -> int:
    lp = solve_badnews_lp(cfg.agent, cfg.principal, cfg.mechanism, cfg.grid,
                          cfg.mu0)
    e = lp.bn.end
    binding = np.zeros(e + 1, dtype=bool)
    binding[lp.binding] = True
    mu_u = pseudo_inverse_beliefs(cfg.agent, cfg.grid, cfg.mechanism, "agent")
    mu_v = pseudo_inverse_beliefs(cfg.principal, cfg.grid, cfg.mechanism,
                                  "principal")
    rows = zip(cfg.grid.points[:e + 1], lp.bn.G, lp.bn.cont_belief(),
               binding, mu_u[:e + 1], mu_v[:e + 1])
    _write_csv(_outpath(args, "worstcase.csv"),
               ["level", "G", "cont_belief", "binding", "mu_hat_U", "mu_hat_V"],
               rows)
    premise_ok = lp.premise_ok
    payload = {"value": lp.value, "premise_ok": premise_ok,
               "all_processes": lp.all_processes, "route": lp.route,
               "lbar": lp.lbar, "dual": lp.certificate()}
    _write_json(_outpath(args, "worstcase_value.json"), payload)
    print(json.dumps({"value": lp.value, "premise_ok": premise_ok},
                     sort_keys=True))
    return 0


def cmd_gap(cfg: RunConfig, args) -> int:
    rows = []
    for l_max in cfg.sweep_l_max:
        grid = LevelGrid(l_max, cfg.grid.n)
        for i, m in enumerate(cfg.mechanisms):
            gap = payoff_gap(m, cfg.agent, cfg.principal, grid, cfg.mu0)
            rows.append((m.json_name, i, l_max, gap.delta,
                         gap.guarantee, gap.min_value, gap.route))
    _write_csv(_outpath(args, "gap.csv"),
               ["mechanism", "index", "l_max", "delta", "guarantee",
                "worst_value", "route"], rows)
    print(f"wrote {len(rows)} gap rows")
    return 0


def cmd_adaptive(cfg: RunConfig, args) -> int:
    # a missing seed is a usage error before any file is written
    seed = cfg.require_seed("adaptive")
    if cfg.tree["type"] == "binomial":
        tree = binomial_tree(cfg.mu0, cfg.grid, cfg.tree["p_good"],
                             cfg.tree["p_bad"])
    else:
        tree = no_learning(cfg.mu0, cfg.grid)
    policy = solve_adaptive_quota(tree, cfg.agent, cfg.principal)

    # one row per tree node, the levels back to back
    levels = cfg.grid.points.repeat(np.diff(tree.first))
    _write_csv(_outpath(args, "policy.csv"),
               ["node_id", "level", "belief", "stop"],
               zip(range(tree.belief.size), levels, tree.belief,
                   policy.node_stop))

    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(cfg.n_refinements):
        ref = refine_process(tree, random_experiment(rng, cfg.grid.n))
        worst = min(worst, evaluate_adaptive(policy, ref, cfg.agent,
                                             cfg.principal))
    payload = {"value": policy.value, "lambda": policy.lambda_adaptive,
               "n_refinements": cfg.n_refinements,
               "min_refinement_value": worst}
    _write_json(_outpath(args, "adaptive_value.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_accept(args) -> int:
    indices = set(args.criteria) if args.criteria else None
    results = run_acceptance(indices)
    if args.out:
        with open(_outpath(args, "acceptance.txt"), "w") as f:
            for r in results:
                f.write(r.line() + "\n")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="robustquota",
        description="Robust regulation of risky development: stopping, "
                    "worst-case learning, and quota mechanisms on a level grid.")
    ap.add_argument("--config", help="path to a JSON run configuration")
    ap.add_argument("--out", help="output directory for CSV/JSON artifacts")
    ap.add_argument("--grid-n", type=int, help="override grid.n from the config")
    ap.add_argument("--seed", type=int, help="override the config seed")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("check", "robust", "worstcase", "gap", "adaptive"):
        sub.add_parser(name)
    acc = sub.add_parser("accept")
    acc.add_argument("--criteria", type=int, nargs="*",
                     choices=[idx for idx, _, _ in _CRITERIA],
                     help="subset of criteria indices to run (default all)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # --out is made in its nearest existing ancestor, which must be a
        # directory: checked, and nothing made, before any command runs
        at = os.path.abspath(args.out or ".")
        while not os.path.exists(at):
            at = os.path.dirname(at)
        if not os.path.isdir(at):
            raise ConfigError(f"--out {args.out}: {at} is not a directory")
        if args.command == "accept":
            return cmd_accept(args)
        if not args.config:
            raise ConfigError(f"'{args.command}' requires --config")
        cfg = load_config(args.config)
        if args.grid_n is not None:
            try:
                cfg = replace(cfg, grid=LevelGrid(cfg.grid.l_max, args.grid_n))
            except DomainError as e:
                raise ConfigError(f"--grid-n: {e}")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        handler = {"check": cmd_check, "robust": cmd_robust,
                   "worstcase": cmd_worstcase, "gap": cmd_gap,
                   "adaptive": cmd_adaptive}[args.command]
        return handler(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RobustQuotaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
