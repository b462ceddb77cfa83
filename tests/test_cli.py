import csv
import json
from pathlib import Path

import pytest

from robustquota import LevelGrid, compute_robust, quadratic_pair
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


@pytest.mark.parametrize("n, ratio", [
    # CRRA is singular at 0, so the ratio skips the first step: 3 levels
    # leave one step to read, 2 leave none
    (3, {"nondecreasing": True, "witness": None}),
    (2, {"error": "no step of the allowed levels to read the ratio on"})])
def test_check_on_few_crra_levels(tmp_path, n, ratio):
    raw = {"payoff": {"agent": {"family": "crra", "gamma": 2.0},
                      "principal": {"family": "crra", "gamma": 3.0}},
           "grid": {"l_max": 1.0, "n": n}, "prior": {"mu0": 0.5}}
    rc = main(["--config", _write(tmp_path, raw), "--out",
               str(tmp_path / "o"), "check"])
    payload = json.loads((tmp_path / "o" / "check.json").read_text())
    assert payload["marginal_ratio"] == ratio
    ok = "error" not in ratio and payload["assumptions"]["all_pass"]
    assert rc == (0 if ok else 1)


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


def test_worstcase_records_all_processes(tmp_path, capsys):
    """worstcase_value.json records the all-process certificate next to
    the premise; the printed line keeps the value and the premise only."""
    cfg = _write(tmp_path, QUAD)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "worstcase"]) == 0
    payload = json.loads((out / "worstcase_value.json").read_text())
    c = load_config(cfg)
    lp = solve_badnews_lp(c.agent, c.principal, c.mechanism, c.grid, c.mu0)
    assert payload["all_processes"] is lp.all_processes is True
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"value": payload["value"],
                       "premise_ok": payload["premise_ok"]}


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
    assert dual == lp.certificate()
    assert payload["lbar"] == lp.lbar


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


def test_gap_on_an_uncertified_config_takes_the_oracle_route(tmp_path):
    """The shipped cara_uncertified config's bad-news LP value is not
    certified over all learning processes, so gap's row comes from the tree
    oracle."""
    shipped = Path(__file__).resolve().parents[1] / "configs" / \
        "cara_uncertified.json"
    out = tmp_path / "o"
    assert main(["--config", str(shipped), "--out", str(out), "gap"]) == 0
    rows = (out / "gap.csv").read_text().splitlines()
    assert rows == [
        "mechanism,index,l_max,delta,guarantee,worst_value,route",
        "linear,0,1,0.057996822668503256,-0.94200317733149674,-1,"
        "tree_oracle"]


def test_adaptive_requires_seed(tmp_path):
    raw = json.loads(json.dumps(QUAD))
    raw["grid"]["n"] = 9
    raw["tree"] = {"type": "binomial", "p_good": 0.7, "p_bad": 0.3}
    cfg = _write(tmp_path, raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "adaptive"]) == 2
    # refused before any file is written
    assert not (tmp_path / "o").exists()
    # numpy takes no negative seed: refused the same way
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--seed",
                 "-3", "adaptive"]) == 2
    assert not (tmp_path / "o").exists()
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--seed",
                 "11", "adaptive"]) == 0
    payload = json.loads((tmp_path / "o" / "adaptive_value.json").read_text())
    assert payload["min_refinement_value"] >= payload["value"] - 1e-8


def test_worstcase_refusal_exits_1_and_writes_nothing(tmp_path, capsys):
    """No bad-news process is obedient under phi = exp(l): the agent at
    belief 1 prefers level index 99 to the last one.  The typed refusal is
    an exit code 1 and a message, with no file written."""
    raw = json.loads(json.dumps(CARA_SWAPPED))
    raw["payoff"]["agent"]["gamma"], raw["payoff"]["principal"]["gamma"] = \
        1.0, 3.0
    raw["mechanism"] = {"type": "exponential", "eta": 1.0}
    raw["grid"]["n"] = 101
    out = tmp_path / "o"
    assert main(["--config", _write(tmp_path, raw), "--out", str(out),
                 "worstcase"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: infeasible bad-news LP: obedience fails at level index 99")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_worstcase_on_overflowing_transfers_exits_1(tmp_path, capsys):
    """exp(400 l) overflows on the grid: the refusal is a typed error and
    exit code 1, not a RuntimeWarning."""
    raw = {**QUAD, "mechanism": {"type": "exponential", "eta": 400}}
    assert main(["--config", _write(tmp_path, raw), "--out",
                 str(tmp_path / "o"), "worstcase"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tax profile must be")
    assert "Traceback" not in err


@pytest.mark.parametrize("under,command", [
    (False, "robust"), (False, "accept"), (True, "robust"), (True, "accept")],
    ids=["robust", "accept", "robust-under-a-file", "accept-under-a-file"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, under,
                                             command):
    """An --out that names an existing file, or lies under one, is refused
    before the command runs: exit 2, and no acceptance criterion is run."""
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    argv = ["accept"] if command == "accept" \
        else ["--config", _write(tmp_path, QUAD), command]
    assert main(["--out", str(out), *argv]) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith(f"config error: --out {out}")
    assert "PASS" not in stdout and "FAIL" not in stdout
    assert taken.read_text() == ""


def test_adaptive_without_tree_is_the_static_mechanism(tmp_path):
    """With no tree the config learns nothing, and the adaptive quota is
    the robust mechanism: its value is the guarantee and its tax is
    lambda*, bitwise."""
    raw = {**QUAD, "seed": 5, "refinements": {"count": 3}}
    cfg = _write(tmp_path, raw)
    for cmd in ("robust", "adaptive"):
        assert main(["--config", cfg, "--out", str(tmp_path / cmd),
                     cmd]) == 0
    adaptive = json.loads((tmp_path / "adaptive" /
                           "adaptive_value.json").read_text())
    mech = json.loads((tmp_path / "robust" / "mechanism.json").read_text())
    rob = compute_robust(*quadratic_pair(1.0, 1.0, 1.0), 0.6,
                         LevelGrid(2.0, 201))
    assert adaptive["value"] == rob.guarantee == 0.09999999999999992
    assert adaptive["lambda"] == mech["lambda"] == rob.lambda_star \
        == 0.09999999999999998


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


def test_grid_n_override_below_two_is_a_config_error(tmp_path, capsys):
    assert main(["--config", _write(tmp_path, QUAD), "--grid-n", "1",
                 "robust"]) == 2
    assert "config error" in capsys.readouterr().err


def test_accept_subset(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["--out", str(out), "accept", "--criteria", "1"])
    assert rc == 0
    text = (out / "acceptance.txt").read_text()
    assert "PASS" in text and "\n" == text[-1]


def test_accept_refuses_an_unknown_criterion(capsys):
    """A criterion index the battery does not have is a usage error, not a
    run of no criteria that passes."""
    with pytest.raises(SystemExit) as e:
        main(["accept", "--criteria", "9", "0"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert "invalid choice: 9" in err
    assert "PASS" not in out and "FAIL" not in out


def test_tabulated_quota_config_matches_fixed_tax_quota(tmp_path):
    """The shipped tabulated config (phi = 0.1 through level 0.5, then
    prohibited) gives bitwise the outputs of FixedTaxHardQuota(0.1, 0.5),
    but for gap.csv's mechanism-name column."""
    shipped = Path(__file__).resolve().parents[1] / "configs" / \
        "tabulated_quota.json"
    raw = json.loads(shipped.read_text())
    raw["mechanism"] = {"type": "fixed_tax_hard_quota", "lambda": 0.1,
                        "quota": 0.5}
    outs = {}
    for name, cfg in (("tabulated", str(shipped)),
                      ("fixed", _write(tmp_path, raw))):
        outs[name] = tmp_path / name
        for cmd in ("worstcase", "gap"):
            assert main(["--config", cfg, "--out", str(outs[name]),
                         cmd]) == 0
    for f in ("worstcase.csv", "worstcase_value.json"):
        assert (outs["tabulated"] / f).read_bytes() == \
            (outs["fixed"] / f).read_bytes()
    gap = [list(csv.reader((out / "gap.csv").read_text().splitlines()))
           for out in (outs["tabulated"], outs["fixed"])]
    assert [r[0] for r in gap[0][1:]] == ["tabulated"]
    assert [r[0] for r in gap[1][1:]] == ["fixed_tax_hard_quota"]
    assert [r[1:] for r in gap[0]] == [r[1:] for r in gap[1]]


@pytest.mark.parametrize("argv,extra", [
    (["--grid-n", "81"], {}),
    ([], {"sweep": {"l_max": [2.0, 4.0]}}),
], ids=["grid_n_81", "sweep"])
def test_tabulated_quota_config_on_other_grids(tmp_path, argv, extra):
    """The shipped table read on grids other than its own, by --grid-n or a
    sweep, gives bitwise the outputs of FixedTaxHardQuota(0.1, 0.5), but for
    gap.csv's mechanism-name column."""
    shipped = Path(__file__).resolve().parents[1] / "configs" / \
        "tabulated_quota.json"
    raw = {**json.loads(shipped.read_text()), **extra}
    cfgs = {"tabulated": _write(tmp_path, raw, "tabulated.json"),
            "fixed": _write(tmp_path, {**raw, "mechanism": {
                "type": "fixed_tax_hard_quota", "lambda": 0.1,
                "quota": 0.5}}, "fixed.json")}
    for name, cfg in cfgs.items():
        for cmd in ("worstcase", "gap"):
            assert main(["--config", cfg, "--out", str(tmp_path / name),
                         *argv, cmd]) == 0
    for f in ("worstcase.csv", "worstcase_value.json"):
        assert (tmp_path / "tabulated" / f).read_bytes() == \
            (tmp_path / "fixed" / f).read_bytes()
    gap = [list(csv.reader((tmp_path / name / "gap.csv").read_text()
                           .splitlines())) for name in cfgs]
    assert {r[0] for r in gap[0][1:]} == {"tabulated"}
    assert [r[1:] for r in gap[0]] == [r[1:] for r in gap[1]]
