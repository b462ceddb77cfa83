"""Self-tests of the benchmark itself (slow: several minutes).

    python3 -m pytest rqbench/test_bench.py

They check that the seed never changes the item mix and that every item
validates on every seed tried, that per-layer counts repeat exactly for one
seed, that BENCHMARK.json lists what the harness prints, and that the
benchmark refuses to run without the package's source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.use_checkout_source()

import harness  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(20)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("rqbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_mix_is_seed_invariant_and_every_item_validates(name):
    mix = workloads.WORKLOADS[name](0).mix()
    for seed in SEEDS:
        batch, failures = harness.prepare(name, seed)
        assert batch.mix() == mix, f"seed {seed} changed the mix"
        _, _, outcomes = harness.run_pass(batch.items)
        failures += harness.validate(batch.items, outcomes)
        assert failures == [], f"seed {seed}: {failures}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_one_seed(name):
    runs = [bench("--workload", name, "--seed", "7", "--trace", "1")
            for _ in range(2)]
    counts = [{k: m["value"] for k, m in result_of(p)["metrics"].items()
               if m["unit"] == "count"} for p in runs]
    assert counts[0] == counts[1]
    for p in runs:
        details = json.loads(p.stdout.strip().splitlines()[-2])["details"]
        assert details["counts_repeat"], "counts differ between traced passes"


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(harness.PER_LAYER)


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "rqbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "battery", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
