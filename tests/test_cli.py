import csv
import json

import pytest

from robustquota.adversary import solve_badnews_lp
from robustquota.cli import main
from robustquota.config import load_config

QUAD = {
    "payoff": {
        "agent": {"family": "quadratic", "alpha": 1.0, "beta": 1.0,
                  "quad": 0.0},
        "principal": {"family": "quadratic", "alpha": 1.0, "beta": 1.0,
                      "quad": 1.0},
    },
    "grid": {"l_max": 2.0, "n": 201},
    "prior": {"mu0": 0.6},
}

CARA_SWAPPED = {
    "payoff": {
        "agent": {"family": "cara", "gamma": 3.0},
        "principal": {"family": "cara", "gamma": 1.0},
    },
    "grid": {"l_max": 2.0, "n": 201},
    "prior": {"mu0": 0.6},
}


def _write(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def test_robust_writes_mechanism_and_surplus(tmp_path):
    cfg = _write(tmp_path, QUAD)
    out = tmp_path / "out"
    rc = main(["--config", cfg, "--out", str(out), "robust"])
    assert rc == 0
    mech = json.loads((out / "mechanism.json").read_text())
    assert mech["type"] == "fixed_tax_hard_quota"
    assert mech["quota"] == pytest.approx(0.5, abs=0.01)
    assert mech["lambda"] == pytest.approx(0.1, abs=1e-4)
    surplus = (out / "surplus.csv").read_text().splitlines()
    assert surplus[0] == "level,surplus"
    assert len(surplus) == 202


def test_csv_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, QUAD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "robust"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "robust"]) == 0
    assert (out1 / "surplus.csv").read_bytes() == \
        (out2 / "surplus.csv").read_bytes()


def test_check_passes_for_standard_pair(tmp_path, capsys):
    cfg = _write(tmp_path, QUAD)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "check"])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["assumptions"]["all_pass"]


def test_check_fails_for_swapped_risk_aversions(tmp_path):
    cfg = _write(tmp_path, CARA_SWAPPED)
    rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "check"])
    assert rc == 1


def test_missing_prior_is_usage_error(tmp_path):
    raw = json.loads(json.dumps(QUAD))
    del raw["prior"]
    rc = main(["--config", _write(tmp_path, raw), "robust"])
    assert rc == 2


def test_missing_config_flag_is_usage_error():
    assert main(["robust"]) == 2


def test_worstcase_outputs(tmp_path):
    cfg = _write(tmp_path, QUAD)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "worstcase"]) == 0
    rows = (out / "worstcase.csv").read_text().splitlines()
    assert rows[0] == "level,G,cont_belief,binding,mu_hat_U,mu_hat_V"
    payload = json.loads((out / "worstcase_value.json").read_text())
    assert payload["premise_ok"]


@pytest.mark.parametrize("raw, route", [
    (QUAD, "construction"),
    ({"payoff": {"agent": {"family": "cara", "gamma": 2.0},
                 "principal": {"family": "cara", "gamma": 1.4}},
      "grid": {"l_max": 2.0, "n": 3}, "prior": {"mu0": 0.3}}, "highs"),
])
def test_worstcase_records_route(tmp_path, raw, route):
    # the CSV, the value and the certificate all describe the LP's process,
    # also where the route is not the binding construction
    out = tmp_path / "o"
    path = _write(tmp_path, raw)
    assert main(["--config", path, "--out", str(out), "worstcase"]) == 0
    payload = json.loads((out / "worstcase_value.json").read_text())
    assert payload["route"] == route
    assert "used_lp_fallback" not in payload
    cfg = load_config(path)
    lp = solve_badnews_lp(cfg.agent, cfg.principal, cfg.mechanism, cfg.grid,
                          cfg.mu0)
    with open(out / "worstcase.csv", newline="") as f:
        G = [float(row["G"]) for row in csv.DictReader(f)]
    assert G == lp.bn.G.tolist()
    assert payload["value"] == lp.value
    dual = payload["dual"]
    assert dual["primal_value"] == lp.value and dual["gap"] == lp.gap
    assert abs(dual["gap"]) <= 1e-9 * max(1.0, abs(lp.value))


def test_gap_sweep_rows(tmp_path):
    raw = json.loads(json.dumps(QUAD))
    raw["mechanisms"] = [{"type": "zero"},
                         {"type": "fixed_tax_hard_quota", "lambda": 0.1,
                          "quota": 0.5}]
    raw["sweep"] = {"l_max": [2.0, 4.0]}
    raw["grid"]["n"] = 101
    out = tmp_path / "o"
    assert main(["--config", _write(tmp_path, raw), "--out", str(out),
                 "gap"]) == 0
    rows = (out / "gap.csv").read_text().splitlines()
    assert len(rows) == 5   # header + 2 mechanisms x 2 horizons


def test_adaptive_requires_seed(tmp_path):
    raw = json.loads(json.dumps(QUAD))
    raw["grid"]["n"] = 9
    raw["tree"] = {"type": "binomial", "p_good": 0.7, "p_bad": 0.3}
    cfg = _write(tmp_path, raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "adaptive"]) == 2
    # refused before any file is written
    assert not (tmp_path / "o").exists()
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--seed",
                 "11", "adaptive"]) == 0
    payload = json.loads((tmp_path / "o" / "adaptive_value.json").read_text())
    assert payload["min_refinement_value"] >= payload["value"] - 1e-8


def test_worstcase_solves_the_lp_once(tmp_path, monkeypatch):
    import robustquota.adversary as adversary
    import robustquota.cli as cli
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_badnews_lp(*args)

    # counted wherever the command could reach it, also if the CLI held
    # its own binding
    monkeypatch.setattr(adversary, "solve_badnews_lp", counted)
    monkeypatch.setattr(cli, "solve_badnews_lp", counted, raising=False)
    assert main(["--config", _write(tmp_path, QUAD), "--out",
                 str(tmp_path / "o"), "worstcase"]) == 0
    assert len(calls) == 1


def test_grid_n_override(tmp_path):
    cfg = _write(tmp_path, QUAD)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--grid-n", "51",
                 "robust"]) == 0
    assert len((out / "surplus.csv").read_text().splitlines()) == 52


def test_accept_subset(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["--out", str(out), "accept", "--criteria", "1"])
    assert rc == 0
    text = (out / "acceptance.txt").read_text()
    assert "PASS" in text and "\n" == text[-1]
