"""Closed-loop harness: set-up probes, timed passes, traced passes, metrics.

One benchmark thread runs the workload's batch of items back to back (a
closed loop with one caller).  A pass is one run through the batch; each
item's call sequence is timed on its own and its outputs are validated after
the pass, outside every timed interval.
"""

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import tracer as tr
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: passes every untraced run makes at least, whatever --seconds says.  With
#: TAIL_BEYOND it puts the tail percentile at about the second-slowest item
#: of a pass, where each workload has two items of similar cost.
MIN_PASSES = 5
#: fresh interpreters timed from start to ready for setup_s
SETUP_PROBES = 3
#: traced passes, alternated with as many untraced ones, in a --trace 1 run
TRACED_PASSES = 2
#: the tail percentile is the highest one with this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = (("wall_s", "s"), ("item_p50_s", "s"), ("item_tail_s", "s"),
              ("peak_rss_mb", "MB"), ("success_frac", "fraction"),
              ("setup_s", "s"))

LAYERS = ("payoffs", "mechanisms", "checks", "processes", "stopping",
          "badnews", "adversary", "simplex", "robust", "adaptive")
#: per-layer metrics: layer self times, then named spans and counters.
#: "<span>.s" is inclusive time, "<span>.self_s" excludes child spans; all
#: times and counts are per traced pass; "_mb" values are computed from array
#: shapes or read from tracemalloc, never from the process's resident set.
PER_LAYER = tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("adversary.solve_badnews_lp.calls", "count"),
    ("adversary.solve_badnews_lp.self_s", "s"),
    ("adversary.highs.s", "s"),
    ("adversary.highs.calls", "count"),
    ("adversary.highs.nit", "count"),
    ("adversary.lp_matrix_mb", "MB"),
    ("adversary.solve_badnews_lp.peak_mb", "MB"),
    ("adversary.dual_certificate.self_s", "s"),
    ("adversary.indifference_G.s", "s"),
    ("adversary.indifference_fallbacks", "count"),
    ("adversary.principal_prefers_earlier.s", "s"),
    ("adversary.stop_rule_at_zero.s", "s"),
    ("adversary.tree_oracle_worst_case.self_s", "s"),
    ("adversary.tree_oracle_worst_case.calls", "count"),
    ("adversary.oracle_lps", "count"),
    ("adversary.runtime_warnings", "count"),
    ("simplex.solve_lp.s", "s"),
    ("simplex.solve_lp.calls", "count"),
    ("simplex.pivots", "count"),
    ("checks.one_shot_levels.s", "s"),
    ("checks.one_shot_levels.calls", "count"),
    ("checks.risk_ratio_condition.s", "s"),
    ("mechanisms.adjusted_profiles.calls", "count"),
    ("mechanisms.adjusted_profiles.s", "s"),
    ("badnews.obedience_check.s", "s"),
    ("robust.compute_robust.s", "s"),
    ("robust.verify_guarantee.self_s", "s"),
    ("robust.verify_guarantee.calls", "count"),
    ("processes.binomial_tree.s", "s"),
    ("processes.validate.s", "s"),
    ("processes.validate.calls", "count"),
    ("processes.random_tree.s", "s"),
    ("processes.kernel_mb", "MB"),
    ("stopping.solve_stopping.s", "s"),
    ("stopping.solve_stopping.calls", "count"),
    ("stopping.principal_value.s", "s"),
    ("stopping.simulate.s", "s"),
    ("stopping.simulate.paths", "count"),
    ("adaptive.refine_process.self_s", "s"),
    ("adaptive.refine_process.calls", "count"),
    ("adaptive.refined_nodes", "count"),
    ("adaptive.refine_process.peak_mb", "MB"),
    ("adaptive.solve_adaptive_quota.s", "s"),
    ("adaptive.evaluate_adaptive.s", "s"),
    ("bench.item.s", "s"),
    ("bench.runtime_warnings", "count"),
    ("bench.tracing_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
)
COUNTED = {"adversary.highs.nit", "adversary.indifference_fallbacks",
           "adversary.oracle_lps", "simplex.pivots", "stopping.simulate.paths",
           "adaptive.refined_nodes"}
PEAKS = {"adversary.lp_matrix_mb", "processes.kernel_mb",
         "adversary.solve_badnews_lp.peak_mb", "adaptive.refine_process.peak_mb"}


# ------------------------------------------------------------------ passes

def run_pass(items, tracer=None, pass_id=0):
    """Run every item once; returns (pass seconds, item seconds, outcomes)."""
    gc.collect()
    times, outcomes = [], []
    t_pass = time.perf_counter()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = (pass_id, k)
            sid = tracer.open(tr.ITEM)
        t0 = time.perf_counter()
        try:
            out, err = item.run(), None
        except Exception as e:      # typed refusals count as failed items
            out, err = None, f"{type(e).__name__}: {e}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(sid)
        outcomes.append((out, err))
    return time.perf_counter() - t_pass, times, outcomes


def validate(items, outcomes):
    """Failure messages per failed item, from the item's own validator."""
    failures = []
    for item, (out, err) in zip(items, outcomes):
        if err is None:
            try:
                msgs = item.check(out)
            except Exception as e:
                msgs = [f"validator raised {type(e).__name__}: {e}"]
            err = "; ".join(msgs) if msgs else None
        if err is not None:
            failures.append(f"{item.kind} n={item.n}: {err}")
    return failures


def prepare(workload, seed):
    """Generate the batch and run the untimed warm-up item."""
    batch = workloads.WORKLOADS[workload](seed)
    _, _, outcomes = run_pass([batch.warmup])
    return batch, validate([batch.warmup], outcomes)


class Calibration:
    """The machine's current speed, from a fixed loop that does not touch
    robustquota: interpreted Python, small-array numpy and a small matmul.

    The shared two-core VMs this runs on drift in speed by ~±15% over
    minutes, so every timed stretch is bracketed by calibration loops and its
    time is reported scaled to reference speed, at which one loop takes
    REFERENCE_S.  Raw times and the factors go to the details line.
    """

    REFERENCE_S = 0.010

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((120, 120))
        self.v = rng.random(4000)

    def loop_seconds(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i % 7
        for _ in range(200):
            self.v.cumsum()
            np.argmax(self.v)
            (self.v * 2.0).sum()
        for _ in range(20):
            self.a @ self.a
        return time.perf_counter() - t0

    def bracket(self, fn):
        """(fn(), factor): reference seconds per measured second, from the
        median of two loops before and two after the call."""
        before = [self.loop_seconds() for _ in range(2)]
        out = fn()
        loops = before + [self.loop_seconds() for _ in range(2)]
        return out, self.REFERENCE_S / statistics.median(loops)


def setup_seconds(workload, seed, cal, probes=SETUP_PROBES):
    """Seconds from spawning a fresh interpreter to its 'ready' line, which
    it prints after import, generation and the warm-up item; each with its
    calibration factor."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]

    def probe():
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        return t1 - t0

    return [cal.bracket(probe) for _ in range(probes)]


# ----------------------------------------------------------------- metrics

def tail_percentile(n_samples):
    """Highest whole percentile with TAIL_BEYOND samples beyond it."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / n_samples))


def timed_run(workload, seed, seconds, log):
    cal = Calibration()
    setup = setup_seconds(workload, seed, cal)
    batch, failures = prepare(workload, seed)
    items = batch.items
    walls, item_times, raw_walls, factors = [], [], [], []
    attempted = 1                   # the warm-up item
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        (wall, times, outcomes), factor = cal.bracket(lambda: run_pass(items))
        raw_walls.append(wall)
        factors.append(factor)
        walls.append(wall * factor)
        item_times += [t * factor for t in times]
        attempted += len(items)
        failures += validate(items, outcomes)
        if len(walls) == MIN_PASSES:
            # peak memory of a fixed amount of work: the allocator's
            # footprint creeps with every pass, and the pass count depends
            # on the machine's speed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed = len(failures)
    # the percentile is fixed by the batch size, not by how many passes ran
    pct = tail_percentile(MIN_PASSES * len(items))
    tail = float(np.percentile(item_times, pct))
    metrics = {"wall_s": statistics.median(walls),
               "item_p50_s": statistics.median(item_times),
               "item_tail_s": tail,
               "peak_rss_mb": rss_mb,
               "success_frac": (attempted - failed) / attempted,
               "setup_s": statistics.median(s * f for s, f in setup)}
    log({"workload": workload, "seed": seed, "mix": batch.mix(),
         "items_per_pass": len(items), "passes": len(walls),
         "raw_pass_s": raw_walls, "speed_factors": factors,
         "raw_wall_s": statistics.median(raw_walls),
         "item_samples": len(item_times), "tail_percentile": pct,
         "tail_beyond": int(sum(t > tail for t in item_times)),
         "raw_setup_probes_s": [s for s, _ in setup],
         "setup_speed_factors": [f for _, f in setup],
         "failures": failures[:10]})
    return attempted, failed, {k: (metrics[k], unit) for k, unit in END_TO_END}


def _pass_metrics(table, counts, maxima, warns):
    """Per-layer metrics of one traced pass."""
    self_by_layer = Counter()
    for name, (_, _, self_s) in table.items():
        self_by_layer[tr.layer_of(name)] += self_s
    out = {}
    for name, _ in PER_LAYER:
        if name in COUNTED:
            out[name] = counts.get(name, 0)
        elif name in PEAKS:
            out[name] = maxima.get(name, 0.0)
        elif name == "adversary.runtime_warnings":
            out[name] = warns.get(("adversary", "RuntimeWarning"), 0)
        elif name == "bench.runtime_warnings":
            out[name] = sum(v for (_, cat), v in warns.items()
                            if cat == "RuntimeWarning")
        elif name == "bench.unattributed_frac":
            calls, total, self_s = table.get(tr.ITEM, (0, 0.0, 0.0))
            out[name] = self_s / total if total else 0.0
        elif name.startswith("bench.tracing"):
            continue
        else:
            base, field = name.rsplit(".", 1)
            if field == "self_s" and base in LAYERS:
                out[name] = self_by_layer.get(base, 0.0)
                continue
            calls, total, self_s = table.get(base, (0, 0.0, 0.0))
            out[name] = {"calls": calls, "s": total, "self_s": self_s}[field]
    return out


def traced_run(workload, seed, tracer, log):
    batch, failures = prepare(workload, seed)
    items = batch.items
    untraced, traced, per_pass = [], [], []
    attempted = 1                   # the warm-up item
    for k in range(TRACED_PASSES):
        wall, _, outcomes = run_pass(items)
        untraced.append(wall)
        failures += validate(items, outcomes)
        first = len(tracer.names)
        tracer.counts.clear()
        tracer.maxima.clear()
        tracer.warnings.clear()
        with tracer.installed():
            wall, _, outcomes = run_pass(items, tracer, pass_id=k)
        traced.append(wall)
        failures += validate(items, outcomes)
        per_pass.append(_pass_metrics(tracer.span_table(first), tracer.counts,
                                      tracer.maxima, tracer.warnings))
        attempted += 2 * len(items)
    # allocation tracing slows Python-level loops twentyfold, so the memory
    # pass runs only the largest item of each kind, which sets the peaks
    largest = {}
    for item in items:
        if item.kind not in largest or item.n > largest[item.kind].n:
            largest[item.kind] = item
    memory_items = list(largest.values())
    with tracer.memory_installed():
        _, _, outcomes = run_pass(memory_items)
    failures += validate(memory_items, outcomes)
    attempted += len(memory_items)

    metrics = {}
    counts_repeat = True
    for name, unit in PER_LAYER:
        if name.startswith("bench.tracing"):
            continue
        values = [p[name] for p in per_pass]
        if unit == "count":
            counts_repeat &= len(set(values)) == 1
            metrics[name] = values[0]
        elif name.endswith("peak_mb"):
            metrics[name] = tracer.maxima.get(name, 0.0)
        else:
            metrics[name] = statistics.fmean(values)
    metrics["bench.tracing_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    tracer.dump(spans_path, {"workload": workload, "seed": seed,
                             "traced_passes": TRACED_PASSES})
    log({"workload": workload, "seed": seed, "mix": batch.mix(),
         "untraced_pass_s": untraced, "traced_pass_s": traced,
         "counts_repeat": counts_repeat, "spans": len(tracer.names),
         "spans_file": os.path.relpath(spans_path, os.path.dirname(HERE)),
         "failures": failures[:10]})
    return attempted, len(failures), {k: (metrics[k], u) for k, u in PER_LAYER}


def main(args):
    """Run one benchmark mode; the last stdout line is the result object."""
    warn_counts = Counter()
    tracer = tr.Tracer()
    tr.count_warnings(warn_counts, tracer)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    details = []

    def log(obj):
        details.append(dict(obj, warnings=dict(warn_counts)))

    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed,
                                                tracer, log)
    else:
        attempted, failed, metrics = timed_run(args.workload, args.seed,
                                               args.seconds, log)
    for obj in details:
        print(json.dumps({"details": obj}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0
