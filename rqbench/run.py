"""robustquota benchmark entry point.

    python3 rqbench/run.py --workload {worstcase,trees,battery} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics.  See README.md in this directory.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: one compute thread everywhere: BLAS/OpenMP pools would share two cores
#: with the benchmark thread and with each other
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_checkout_source():
    """Pin compute threads to one, then import robustquota from this
    checkout's src/; raise ImportError if it is missing or comes from
    elsewhere.  Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "robustquota", "__init__.py")):
        raise ImportError(f"no robustquota package under {SRC}")
    sys.path.insert(0, SRC)
    import robustquota
    where = os.path.dirname(os.path.dirname(os.path.abspath(robustquota.__file__)))
    if where != SRC:
        raise ImportError(f"robustquota imported from {where}, not {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("worstcase", "trees", "battery"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time of an untraced run (at least "
                         "5 passes are made regardless)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        use_checkout_source()
    except ImportError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    import harness
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
