"""Command-line interface: golden table files, output format, determinism,
exit codes, and the classify/sinf/teps/genetics reports."""

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import mpmath
import pytest

import gwbounds
from gwbounds.cli import SUBCOMMANDS, build_model, main, make_parser, render_csv
from gwbounds.fl_bounds import matching_fl
from gwbounds.pgf_core import (
    Binomial,
    FiniteThree,
    FractionalLinear,
    GeneralizedPoisson,
    NegBinomial,
    Poisson,
    binomial_from_s,
    extinction_probability,
    fl_from_s,
    gp_from_s,
    moments,
    negbinomial_from_s,
    poisson_from_s,
)
from gwbounds.sinf_estimates import sinf_bounds_all

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# The directory that holds the imported gwbounds package, so that subprocesses
# run the code under test rather than whatever copy the caller's environment
# would import.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(gwbounds.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Golden tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table_id", ["1", "2", "3"])
def test_tables_match_golden_files(table_id, capsys, tmp_path):
    out_file = tmp_path / f"table{table_id}.csv"
    code, _, err = run_cli(capsys, "table", table_id, "--out", str(out_file))
    assert code == 0 and err == ""
    with open(out_file, "rb") as fh:
        produced = fh.read()
    with open(os.path.join(GOLDEN, f"table{table_id}.csv"), "rb") as fh:
        golden = fh.read()
    assert produced == golden


# Outputs that read the P^(n) iteration (the survival curve, T(eps), the FL
# relative errors and the switch generation), pinned bit for bit, and the
# README commands. A command that exits nonzero is pinned by its stderr line.
GOLDEN_COMMANDS = [
    ("survival_gp.csv", ["survival", "--dist", "gp", "--s", "0.05", "--lambda", "0.5",
                         "--nmax", "200", "--digits", "17"], 0),
    ("teps_binomial.csv", ["teps", "--dist", "binomial", "--n", "5", "--p", "0.202",
                           "--eps", "0.01", "0.1", "1e-4", "--digits", "17"], 0),
    ("figdata4.csv", ["figdata", "4", "--digits", "17"], 0),
    ("classify_gp.json", ["classify", "gp", "--s", "0.1", "--lambda", "0.276"], 0),
    ("survival_poisson.csv", ["survival", "--dist", "poisson", "--m", "1.5",
                              "--nmax", "20"], 0),
    ("sinf_gp.csv", ["sinf", "--dist", "gp", "--s", "0.2", "--lambda", "0.9"], 0),
    ("sinf_gp_strict.err", ["sinf", "--dist", "gp", "--s", "0.2", "--lambda", "0.9",
                            "--strict"], 3),
    ("classify_f3.json", ["classify", "f3", "--p0", "0.2", "--p2", "0.2", "--p3", "0.1"], 0),
    ("genetics_poisson.csv", ["genetics", "--dist", "poisson", "--m", "1.1", "--N", "1000",
                              "--s", "0.1", "--tau", "10"], 0),
    ("figdata1.csv", ["figdata", "1"], 0),
    ("figdata2.csv", ["figdata", "2"], 0),
    ("figdata3_volumes.csv", ["figdata", "3-volumes"], 0),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_COMMANDS,
                         ids=[n for n, _, _ in GOLDEN_COMMANDS])
def test_iteration_outputs_match_golden_files(name, argv, code, capsys, tmp_path):
    out_file = tmp_path / name
    got, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert got == code and out == ""
    if code == 0:
        assert err == ""
        produced = out_file.read_bytes()
    else:
        assert not out_file.exists()
        produced = err.encode()
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert produced == fh.read()


def test_table_stdout_equals_file_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "table", "1")
    assert code == 0
    with open(os.path.join(GOLDEN, "table1.csv"), "r", newline="") as fh:
        assert out == fh.read()


def test_csv_uses_crlf_and_header():
    with open(os.path.join(GOLDEN, "table1.csv"), "rb") as fh:
        raw = fh.read()
    assert b"\r\n" in raw
    assert raw.splitlines()[0] == b"m,method,n1,n5,n10,n20,n50,n100"


def test_render_csv_quotes_only_where_needed():
    text = render_csv(["a,b", 'q"x', "plain"],
                      [["x\ny", None, float("nan")], [-2, 3, 0.1 + 0.2]], 17)
    assert text == '"a,b","q""x",plain\r\n"x\ny",,\r\n-2,3,0.30000000000000004\r\n'


def test_table1_spot_values(capsys):
    _, out, _ = run_cli(capsys, "table", "1")
    rows = parse_csv(out)
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    # m=1.5, geometric-rate bound, n=5 -> 0.0035 (printed value).
    assert float(by_key[("1.5", "fl")][2 + 1]) == pytest.approx(0.0035, abs=5e-5)
    # m=1.1, geometric-rate bound, n=10 -> 0.02084.
    assert float(by_key[("1.1", "fl")][2 + 2]) == pytest.approx(0.02084, abs=5e-6)


def test_table2_spot_values(capsys):
    _, out, _ = run_cli(capsys, "table", "2")
    rows = parse_csv(out)
    header = rows[0]
    data = {r[0]: dict(zip(header[1:], r[1:])) for r in rows[1:]}
    assert float(data["dn_upper"]["nb_r5"]) == pytest.approx(0.2733, abs=5e-5)
    assert data["dn_upper"]["gp_0.9"] == ""  # applicability condition fails
    assert float(data["sinf_exact"]["fl_0.2"]) == pytest.approx(0.8, abs=1e-6)
    assert float(data["quine_lower"]["gp_0.9"]) == pytest.approx(0.00346, abs=5e-6)


def test_table3_spot_values(capsys):
    _, out, _ = run_cli(capsys, "table", "3")
    rows = parse_csv(out)
    idx = {tuple(r[:3]): r for r in rows[1:]}
    # s=0.3, eps=0.01, GP lambda=0.9: exact convergence time 24.
    row = idx[("0.3", "0.01", "gp_0.9")]
    assert int(row[3]) == 24


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_figdata_volumes_ignore_samples_and_seed(capsys):
    # The shares are exact; the two flags still parse and change nothing.
    code, out, _ = run_cli(capsys, "figdata", "3-volumes", "--samples", "1", "--seed", "9")
    assert code == 0
    with open(os.path.join(GOLDEN, "figdata3_volumes.csv"), "r", newline="") as fh:
        assert out == fh.read()


def test_figdata_volumes_reference_fractions(capsys):
    _, out, _ = run_cli(capsys, "figdata", "3-volumes")
    rows = parse_csv(out)
    lower, switches, upper = (float(v) for v in rows[1])
    assert lower == pytest.approx(0.866, abs=0.01)
    assert switches == pytest.approx(0.102, abs=0.01)
    assert upper == pytest.approx(0.032, abs=0.01)


def test_atomic_write_leaves_no_temp_files(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    run_cli(capsys, "table", "1", "--out", str(out_file))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("target,error", [
    (os.path.join("missing_dir", "x.csv"), "FileNotFoundError"),
    ("a_dir", "IsADirectoryError"),
])
def test_unwritable_out_is_a_json_error(target, error, capsys, tmp_path):
    (tmp_path / "a_dir").mkdir()
    code, out, err = run_cli(capsys, "table", "1", "--out", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == error
    # The message names the --out path, not the temporary file.
    assert repr(str(tmp_path / target)) in payload["message"]
    assert ".gwb-tmp" not in payload["message"]
    # No temporary file is left beside the target.
    assert [p.name for p in tmp_path.iterdir()] == ["a_dir"]
    assert list((tmp_path / "a_dir").iterdir()) == []


# ---------------------------------------------------------------------------
# Exit codes and error reporting
# ---------------------------------------------------------------------------

def test_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "survival", "--dist", "poisson", "--m", "0.5")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "domain"


def test_applicability_error_exit_3(capsys):
    code, out, err = run_cli(capsys, "sinf", "--dist", "gp", "--s", "0.2",
                             "--lambda", "0.9", "--strict")
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "applicability"
    assert payload["lhs"] > payload["rhs"]
    assert "2*beta" in payload["condition"]


POISSON_15 = ["--dist", "poisson", "--m", "1.5"]


@pytest.mark.parametrize("argv, message", [
    (["sinf", "--dist", "poisson", "--m", "inf"], "Poisson requires a finite m, got inf"),
    (["sinf", "--dist", "poisson", "--s", "inf"], "Poisson requires a finite m, got inf"),
    (["sinf", "--dist", "gp", "--mu", "inf", "--lambda", "0.2"],
     "GeneralizedPoisson requires a finite mu, got inf"),
    (["genetics", *POISSON_15, "--N", "100", "--s", "inf"],
     "TraitModel requires a finite s_sel, got inf"),
    (["genetics", *POISSON_15, "--N", "100", "--tau", "inf"],
     "tau must be finite and > 0, got inf"),
    (["genetics", *POISSON_15, "--N", "100", "--Ne", "inf"],
     "WFModel requires a finite effective_size, got inf"),
    (["teps", "--dist", "binomial", "--n", "5", "--p", "0.202", "--eps", "inf"],
     "eps must be finite and > 0, got inf"),
    (["teps", *POISSON_15, "--eps", "0.01", "nan"], "eps must be finite and > 0, got nan"),
], ids=["sinf-m", "sinf-s", "sinf-gp-mu", "genetics-s", "genetics-tau", "genetics-ne",
        "teps-eps", "teps-eps-nan"])
def test_non_finite_parameters_exit_2(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "domain", "message": message}


@pytest.mark.parametrize("argv, family", [
    (["survival", "--dist", "poisson", "--m", "750", "--nmax", "3"], "Poisson"),
    (["survival", "--dist", "poisson", "--m", "1e300", "--nmax", "3"], "Poisson"),
    (["genetics", "--dist", "poisson", "--m", "1e300", "--N", "100", "--s", "0.1"], "Poisson"),
    (["survival", "--dist", "binomial", "--n", "100000", "--p", "0.5", "--nmax", "2"],
     "Binomial"),
    (["survival", "--dist", "negbinomial", "--r", "2000", "--p", "0.2", "--nmax", "2"],
     "NegBinomial"),
    (["survival", "--dist", "gp", "--mu", "800", "--lambda", "0.5", "--nmax", "2"],
     "GeneralizedPoisson"),
], ids=["poisson-750", "poisson-1e300", "genetics-poisson-1e300", "binomial", "negbinomial",
        "gp"])
def test_phi0_underflow_exits_2(argv, family, capsys):
    # phi(0) rounds to 0, so P_inf and gamma would too: the law is rejected
    # when it is built, before genetics reads its moments.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "domain"
    assert payload["message"].startswith(f"{family} requires phi(0) > 0, got phi(0) = 0.0")


def test_subnormal_phi0_is_accepted(capsys):
    # exp(-740) is subnormal but > 0.
    code, out, err = run_cli(capsys, "survival", "--dist", "poisson", "--m", "740",
                             "--nmax", "3")
    assert (code, err) == (0, "")
    assert out == "n,s_n,fl_bound,simple_bound,pollak_bound\r\n" + "".join(
        f"{n},1,1,1,1\r\n" for n in range(4))


def test_error_output_is_single_line_json(capsys):
    _, _, err = run_cli(capsys, "survival", "--dist", "poisson", "--m", "0.5")
    assert err.count("\n") == 1 and err.endswith("\n")
    json.loads(err)


@pytest.mark.parametrize("error,message", [
    (ZeroDivisionError, "float division by zero"),
    (OverflowError, "math range error"),
])
def test_arithmetic_error_is_a_json_error(error, message, capsys, monkeypatch):
    # A library call that raises, as pollak_dbar divides by zero where gamma
    # rounds to 1 (gwb survival --dist poisson --s 1e-8), exits 1 with one
    # JSON line and no traceback.
    def raises(*args):
        raise error(message)

    monkeypatch.setattr(gwbounds, "survival_curve", raises)
    code, out, err = run_cli(capsys, "survival", "--dist", "poisson", "--m", "1.5")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error.__name__, "message": message}


def test_missing_model_params_domain_error(capsys):
    code, _, err = run_cli(capsys, "classify", "f3", "--p0", "0.1")
    assert code == 2
    assert json.loads(err)["error"] == "domain"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_f3_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "f3", "--p0", "0.2",
                           "--p2", "0.2", "--p3", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "f3"
    assert report["region"] == "LowerBoundOnP"
    assert set(report["thresholds"]) >= {"p0_plus", "p0_r", "p0_gamma"}
    # The fixed point and the FL law are those of the generic machinery.
    fp = extinction_probability(FiniteThree(p0=0.2, p1=1.0 - 0.2 - 0.2 - 0.1, p2=0.2, p3=0.1))
    fl = matching_fl(fp)
    assert (report["p_inf"], report["gamma"]) == (fp.p_inf, fp.gamma)
    assert (report["fl_pi"], report["fl_rho"]) == (fl.pi, fl.rho)


F3_P1_ZERO = ["--p0", "0.3", "--p2", "0.3", "--p3", "0.4"]  # 1 - sum = -5.6e-17
F3_OVER_ONE = ["--p0", "0.5", "--p2", "0.4", "--p3", "0.3"]


@pytest.mark.parametrize("command", [["sinf", "--dist", "f3"], ["classify", "f3"]])
def test_f3_law_with_p1_zero_is_accepted(command, capsys):
    code, out, err = run_cli(capsys, *command, *F3_P1_ZERO)
    assert code == 0 and err == ""
    assert out


@pytest.mark.parametrize("command", [["sinf", "--dist", "f3"], ["classify", "f3"]])
def test_f3_masses_above_one_are_rejected(command, capsys):
    code, out, err = run_cli(capsys, *command, *F3_OVER_ONE)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "domain",
                               "message": "FiniteThree probabilities must sum to 1"}


def test_classify_gp_lower_zone(capsys):
    code, out, _ = run_cli(capsys, "classify", "gp", "--s", "0.3",
                           "--lambda", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["direction"] == "LowerOnS"
    assert report["conjectured"] is True


def test_classify_out_writes_the_file(capsys, tmp_path):
    out_file = tmp_path / "classify.json"
    argv = ["classify", "f3", "--p0", "0.2", "--p2", "0.2", "--p3", "0.1"]
    _, stdout, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out == "" and err == ""
    assert out_file.read_text() == stdout


def test_classify_has_no_digits_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "gp", "--s", "0.1", "--lambda", "0.276", "--digits", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--dist", "f3"), ("--m", "1.5"), ("--n", "5"), ("--p", "0.3"), ("--r", "5"),
    ("--pi", "0.4"), ("--rho", "0.3"), ("--mu", "0.9"),
])
def test_classify_rejects_model_flags(flag, value, capsys):
    # classify reads only --p0 --p2 --p3 (f3) and --s --lambda (gp).
    with pytest.raises(SystemExit) as exc:
        main(["classify", "gp", "--s", "0.1", "--lambda", "0.276", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_classify_gp_without_lambda_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "gp", "--s", "0.1")
    assert code == 2 and out == ""
    assert err == ('{"error": "domain", "message": '
                   '"classify gp requires --s and --lambda"}\n')


def test_classify_gp_switch_zone(capsys):
    code, out, _ = run_cli(capsys, "classify", "gp", "--s", "0.1",
                           "--lambda", "0.276")
    assert code == 0
    report = json.loads(out)
    assert report["direction"] == "SwitchesAt"
    assert report["switch_n"] in (3, 4)


# ---------------------------------------------------------------------------
# survival / sinf / teps / genetics
# ---------------------------------------------------------------------------

def test_survival_rows_and_monotonicity(capsys):
    code, out, _ = run_cli(capsys, "survival", "--dist", "poisson",
                           "--m", "1.5", "--nmax", "10")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "s_n", "fl_bound", "simple_bound", "pollak_bound"]
    assert len(rows) == 12  # header + n = 0..10
    s_vals = [float(r[1]) for r in rows[1:]]
    assert s_vals[0] == 1.0
    assert all(b < a for a, b in zip(s_vals, s_vals[1:]))
    for r in rows[1:]:
        n, s_n, fl, simple, pollak = (float(v) for v in r)
        assert s_n <= pollak + 1e-12 <= fl + 2e-12 <= simple + 3e-12


def test_sinf_gp_09_has_applicability_note(capsys):
    code, out, _ = run_cli(capsys, "sinf", "--dist", "gp", "--s", "0.2",
                           "--lambda", "0.9")
    assert code == 0
    rows = {r[0]: r for r in parse_csv(out)[1:]}
    assert rows["dn_upper"][1] == ""
    assert "not applicable" in rows["dn_upper"][2]
    assert float(rows["s_inf"][1]) == pytest.approx(0.00466, abs=1e-5)


def test_teps_ordering(capsys):
    code, out, _ = run_cli(capsys, "teps", "--dist", "binomial", "--n", "5",
                           "--p", "0.202", "--eps", "0.01")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["eps", "t_exact", "t_fl", "t_app", "t_ser", "t_simple"]
    eps, t_exact, t_fl, t_app, t_ser_v, t_simple_v = (float(v) for v in rows[1])
    assert t_exact <= math.ceil(t_fl) == t_app
    assert abs(t_ser_v - t_exact) <= 3


def test_teps_f3_leaves_t_ser_blank(capsys):
    # t_ser needs the series coefficients of an s-family, which F3 lacks.
    code, out, err = run_cli(capsys, "teps", "--dist", "f3", "--p0", "0.2", "--p2", "0.2",
                             "--p3", "0.1", "--eps", "0.01", "0.1")
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[4] == ""
        assert all(cell != "" for i, cell in enumerate(row) if i != 4)


def test_genetics_report(capsys):
    code, out, _ = run_cli(capsys, "genetics", "--dist", "poisson", "--m", "1.1",
                           "--N", "1000", "--s", "0.1", "--tau", "10")
    assert code == 0
    rows = {r[0]: float(r[1]) for r in parse_csv(out)[1:] if r[1]}
    assert rows["s_inf"] == pytest.approx(0.1761, abs=1e-4)
    assert rows["vg_tau"] == pytest.approx(0.016358, abs=1e-5)
    assert rows["v1_inf"] == pytest.approx(9.94386, abs=1e-4)
    assert rows["wf_fix_exact"] == pytest.approx(0.1761, abs=1e-4)
    assert rows["wf_fix_improved"] == pytest.approx(0.1758, abs=1e-4)


GENETICS = ["genetics", "--dist", "poisson", "--m", "1.1", "--N", "1000", "--tau", "10",
            "--digits", "17"]


def genetics_rows(capsys, *flags):
    code, out, err = run_cli(capsys, *GENETICS, *flags)
    assert code == 0 and err == ""
    return {r[0]: r[1] for r in parse_csv(out)[1:]}


def test_genetics_without_s_selects_log_m_over_alpha(capsys):
    # s_sel = ln(m)/alpha: the report equals the one given that --s.
    implied = genetics_rows(capsys, "--alpha", "2")
    explicit = genetics_rows(capsys, "--alpha", "2", "--s", repr(math.log(1.1) / 2.0))
    assert implied == explicit
    assert implied != genetics_rows(capsys, "--alpha", "2", "--s", "0.1")


def test_genetics_theta_mut_scales_the_trait_variance_rows(capsys):
    # Theta multiplies V_G(tau), V_G(inf) (leading and simple) and the
    # response; multiplying by 2 is exact, so each printed value doubles.
    base = genetics_rows(capsys, "--s", "0.1")
    doubled = genetics_rows(capsys, "--s", "0.1", "--theta-mut", "2")
    scaled = ("vg_tau", "vg_inf_leading", "vg_inf_simple", "delta_mean")
    for name in scaled:
        assert float(doubled[name]) == 2.0 * float(base[name]), name
    assert {k: v for k, v in doubled.items() if k not in scaled} == \
        {k: v for k, v in base.items() if k not in scaled}


def test_genetics_ne_moves_only_the_diffusion_fixation(capsys):
    base = genetics_rows(capsys, "--s", "0.1")
    halved = genetics_rows(capsys, "--s", "0.1", "--Ne", "500")
    assert [k for k in base if base[k] != halved[k]] == ["wf_fix_diffusion"]
    assert float(halved["wf_fix_diffusion"]) < float(base["wf_fix_diffusion"])


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_genetics_nonpositive_alpha_is_a_domain_error(alpha, capsys):
    # Without --s, s_sel = log(m)/alpha: alpha = 0 must not reach the division.
    code, out, err = run_cli(capsys, "genetics", "--dist", "poisson", "--m", "1.1",
                             "--N", "1000", "--alpha", alpha)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "domain",
                               "message": f"alpha must be > 0, got {float(alpha)!r}"}


@pytest.mark.parametrize("s_sel", ["3", "5"])
def test_genetics_beyond_the_improved_fixation_form_is_a_domain_error(s_sel, capsys):
    # wf_fixation_a needs A > 0, that is s < 3 - 1/(2N); past it the form
    # is no probability (s = 3) or overflows (s = 5).
    code, out, err = run_cli(capsys, "genetics", "--dist", "poisson", "--m", "1.1",
                             "--N", "1000", "--s", s_sel)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload == {"error": "domain", "message": (
        "wf_fixation_a requires A = 2s - (2/3 + 1/(3Ns))s^2 > 0, that is "
        f"s_sel < 3 - 1/(2N), got s_sel = {float(s_sel)!r} at pop_size = 1000")}


def test_genetics_survival_probability_that_rounds_to_one(capsys):
    # At m = 40, P_inf is about 4e-18, so S_inf rounds to 1, an admissible
    # value: V1_inf is z e^z E1(z) / s at z = N = 100.
    code, out, err = run_cli(capsys, "genetics", "--dist", "poisson", "--m", "40",
                             "--N", "100", "--s", "0.1", "--digits", "17")
    assert code == 0 and err == ""
    rows = {r[0]: float(r[1]) for r in parse_csv(out)[1:]}
    assert rows["s_inf"] == 1.0
    with mpmath.workdps(50):
        expected = 100 * mpmath.exp(100) * mpmath.e1(100) / mpmath.mpf(0.1)
    assert rows["v1_inf"] == pytest.approx(float(expected), rel=1e-14)


def test_digits_flag_controls_precision(capsys):
    _, out6, _ = run_cli(capsys, "sinf", "--dist", "poisson", "--m", "1.5")
    _, out10, _ = run_cli(capsys, "sinf", "--dist", "poisson", "--m", "1.5",
                          "--digits", "10")
    g6 = {r[0]: r[1] for r in parse_csv(out6)[1:]}["gamma"]
    g10 = {r[0]: r[1] for r in parse_csv(out10)[1:]}["gamma"]
    assert len(g10) > len(g6)
    assert float(g10) == pytest.approx(float(g6), rel=1e-5)


@pytest.mark.parametrize("argv", [
    ["table", "1"],
    ["survival", "--dist", "poisson", "--m", "1.5"],
    ["sinf", "--dist", "poisson", "--m", "1.5"],
    ["figdata", "4"],
])
def test_negative_digits_is_a_domain_error(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--digits", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "domain" and "--digits" in payload["message"]


def test_genetics_tau_past_the_overflow_of_m_to_the_n(capsys):
    # m^n overflows from n = 1751 at m = 1.5; the cells beyond add nothing.
    # vg_tau is the 60-digit cell sum, rounded (test_genetics.vg_tau_mp).
    argv = ["genetics", "--dist", "poisson", "--m", "1.5", "--N", "1000", "--s", "0.1",
            "--digits", "17", "--tau"]
    code, out2000, err = run_cli(capsys, *argv, "2000")
    assert code == 0 and err == ""
    _, out1000, _ = run_cli(capsys, *argv, "1000")
    assert {r[0]: r[1] for r in parse_csv(out2000)[1:]}["vg_tau"] == "1.4353425801290212"
    assert out2000 == out1000


# ---------------------------------------------------------------------------
# Model flags: --dist and the explicit-parameter and --s forms
# ---------------------------------------------------------------------------

MODEL_FLAGS = [
    ("poisson", ["--m", "1.2"], Poisson(m=1.2)),
    ("poisson", ["--s", "0.2"], poisson_from_s(0.2)),
    ("binomial", ["--n", "5", "--p", "0.25"], Binomial(n=5, p=0.25)),
    ("binomial", ["--n", "5", "--s", "0.2"], binomial_from_s(5, 0.2)),
    ("negbinomial", ["--r", "3", "--p", "0.7"], NegBinomial(r=3, p=0.7)),
    ("negbinomial", ["--r", "3", "--s", "0.2"], negbinomial_from_s(3, 0.2)),
    ("fl", ["--pi", "0.4", "--rho", "0.3"], FractionalLinear(pi=0.4, rho=0.3)),
    ("fl", ["--pi", "0.4", "--s", "0.2"], fl_from_s(0.4, 0.2)),
    ("f3", ["--p0", "0.2", "--p2", "0.2", "--p3", "0.1"],
     FiniteThree(p0=0.2, p1=1.0 - 0.2 - 0.2 - 0.1, p2=0.2, p3=0.1)),
    ("gp", ["--mu", "0.9", "--lambda", "0.2"], GeneralizedPoisson(mu=0.9, lam=0.2)),
    ("gp", ["--lambda", "0.2", "--s", "0.2"], gp_from_s(0.2, 0.2)),
]


def library_sinf_rows(model):
    """gwb sinf's values, computed with the library; None where it prints a
    blank."""
    mom = moments(model)
    fp = extinction_probability(model)
    sb = sinf_bounds_all(model, mom.m - 1.0)
    rows = {"m": mom.m, "variance": mom.var, "p_inf": fp.p_inf, "s_inf": fp.s_inf,
            "gamma": fp.gamma}
    for name, attr in (("beta", "beta"), ("quine_lower", "quine_lower"),
                       ("quine_upper", "quine_upper"), ("dn_upper", "dn_upper"),
                       ("sinf_series3", "series3"), ("haldane_theta_s", "haldane")):
        rows[name] = getattr(sb, attr)
    return rows


@pytest.mark.parametrize("dist,flags,model", MODEL_FLAGS,
                         ids=[f"{d}-{f[-2][2:]}" for d, f, _ in MODEL_FLAGS])
def test_model_flags_build_the_model(dist, flags, model, capsys):
    args = make_parser().parse_args(["sinf", "--dist", dist, *flags])
    assert build_model(args) == model
    code, out, err = run_cli(capsys, "sinf", "--dist", dist, *flags, "--digits", "17")
    assert code == 0 and err == ""
    printed = {r[0]: r[1] for r in parse_csv(out)[1:]}
    expected = library_sinf_rows(model)
    assert list(printed) == list(expected)
    for name, value in expected.items():
        assert (float(printed[name]) if printed[name] else None) == value, name


@pytest.mark.parametrize("dist,flags,message", [
    ("poisson", [], "poisson requires --m or --s"),
    ("binomial", ["--s", "0.1"], "binomial requires --n"),
    ("binomial", ["--n", "5"], "binomial requires --p or --s"),
    ("negbinomial", ["--s", "0.1"], "negbinomial requires --r"),
    ("negbinomial", ["--r", "5"], "negbinomial requires --p or --s"),
    ("fl", ["--s", "0.1"], "fl requires --pi"),
    ("fl", ["--pi", "0.4"], "fl requires --rho or --s"),
    ("f3", ["--p0", "0.2", "--p2", "0.2"], "f3 requires --p0, --p2, --p3 (p1 is inferred)"),
    ("gp", ["--s", "0.1"], "gp requires --lambda"),
    ("gp", ["--lambda", "0.2"], "gp requires --mu or --s"),
])
def test_missing_model_flag_exits_2(dist, flags, message, capsys):
    code, out, err = run_cli(capsys, "sinf", "--dist", dist, *flags)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "domain", "message": message}


@pytest.mark.parametrize("argv", [
    ["sinf", "--s", "0.1"],
    ["survival", "--m", "1.5"],
    ["teps", "--s", "0.1", "--eps", "0.01"],
    ["genetics", "--s", "0.1", "--N", "50"],
], ids=lambda argv: argv[0])
def test_missing_dist_names_the_command(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "domain", "message": f"{argv[0]} requires --dist"}


def test_sinf_binomial_n2_fills_every_cell_but_dn_upper(capsys):
    code, out, _ = run_cli(capsys, "sinf", "--dist", "binomial", "--n", "2", "--s", "0.1")
    assert code == 0
    rows = {r[0]: r[1:] for r in parse_csv(out)[1:]}
    for name in ("beta", "quine_lower", "quine_upper", "sinf_series3", "haldane_theta_s"):
        assert rows[name][0] != "", name
    assert rows["dn_upper"] == ["", "dn_upper not applicable: phi'''(1) <= 0"]


def test_sinf_strict_binomial_n2_is_an_applicability_error(capsys):
    code, out, err = run_cli(capsys, "sinf", "--dist", "binomial", "--n", "2", "--s", "0.1",
                             "--strict")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "applicability", "condition": "phi'''(1) > 0", "lhs": 0.0, "rhs": 0.0,
        "message": "condition violated: phi'''(1) > 0 (lhs=0.0, rhs=0.0)"}


def test_sinf_strict_prints_what_the_plain_run_prints(capsys):
    # Poisson meets the Quine and Daley-Narayan conditions, so --strict passes.
    plain = run_cli(capsys, "sinf", "--dist", "poisson", "--m", "1.1")
    strict = run_cli(capsys, "sinf", "--dist", "poisson", "--m", "1.1", "--strict")
    assert plain[0] == 0 and plain[1]
    assert strict == plain


def test_teps_eps_whose_reciprocal_overflows_exits_2(capsys):
    # It ended in a traceback (OverflowError) and exit 1.
    code, out, err = run_cli(capsys, "teps", *POISSON_15, "--eps", "1e-320")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "domain", "message": "1/eps overflows, got eps=1e-320"}


def test_teps_past_the_iteration_cap_exits_1(capsys):
    code, out, err = run_cli(capsys, "teps", "--dist", "poisson", "--s", "1e-6")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ConvergenceError",
        "message": "t_eps_exact exceeded the iteration cap (100000)"}


def test_sinf_f3_prints_moment_bounds_and_blanks_only_the_series(capsys):
    # beta = 2s/phi''(1), the Quine pair and Daley-Narayan need only moments;
    # the series and Haldane cells need a mu table, which F3 lacks.
    code, out, err = run_cli(capsys, "sinf", "--dist", "f3", "--p0", "0.2",
                             "--p2", "0.2", "--p3", "0.1")
    assert code == 0 and err == ""
    rows = {r[0]: r[1:] for r in parse_csv(out)[1:]}
    assert rows["beta"] == ["0.4", ""]
    assert rows["quine_lower"] == ["0.432", ""]
    assert rows["quine_upper"] == ["0.457067", ""]
    assert rows["dn_upper"] == ["0.438447", ""]
    for name in ("sinf_series3", "haldane_theta_s"):
        assert rows[name] == ["", "no s-family: no mu table"], name


def test_format_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "1", "--format", "json"])
    assert exc.value.code == 2


def parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# main builds only the subparser that argv[0] names, and every subparser
# when it names none.
@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in SUBCOMMANDS),
    [],
    ["nosuch"],
    ["sinf", "--dist", "gp", "--s", "0.2", "--bogus"],
    ["table", "7"],
], ids=" ".join)
def test_main_parses_as_the_full_parser_prints(argv, capsys):
    one = parse_outcome(capsys, main, argv)
    assert one == parse_outcome(capsys, make_parser().parse_args, argv)
    if not argv or argv[0] not in SUBCOMMANDS or argv[-1] == "--bogus":
        usage = (one[1] or one[2]).splitlines()[0]
        assert usage == "usage: gwb [-h] {table,classify,survival,sinf,teps,genetics,figdata} ..."
    if argv in ([], ["nosuch"]):  # errors name the argument "command"
        assert "command" in one[2].splitlines()[-1]


def test_a_named_subcommand_builds_that_subparser_alone(capsys):
    code, _, err = parse_outcome(capsys, make_parser("sinf").parse_args, ["table", "1"])
    assert code == 2
    assert "invalid choice: 'table' (choose from 'sinf')" in err


def test_console_script_reads_the_subcommand_from_sys_argv(capsys, monkeypatch):
    # The gwb script calls main() with no argv.
    monkeypatch.setattr(sys, "argv", ["gwb", "sinf", "--help"])
    assert parse_outcome(capsys, lambda _: main(), None) == parse_outcome(
        capsys, make_parser().parse_args, ["sinf", "--help"])


def test_readme_commands_parse_as_with_the_full_parser():
    def fields(args):
        return {k: getattr(v, "__code__", v) for k, v in vars(args).items()}

    with open(README, encoding="utf-8") as fh:
        commands = [line.split()[1:] for line in fh if line.startswith("gwb ")]
    for argv in commands:
        one = make_parser(argv[0]).parse_args(argv)
        assert fields(one) == fields(make_parser().parse_args(argv)), argv


# Every action of each subcommand's parser, written out by hand, so that a
# flag dropped, retyped or re-defaulted in the parser's declaration fails
# here: (option strings, dest, action class, type, default, choices, nargs,
# required, help). The --help text is not compared, as argparse words it
# differently across Python versions.
_HELP = (("-h", "--help"), "help", "_HelpAction", None, argparse.SUPPRESS, None, 0,
         False, "show this help message and exit")
_DIST = (("--dist",), "dist", "_StoreAction", None, None,
         ["poisson", "binomial", "negbinomial", "fl", "f3", "gp"], None, False, None)


def _flag_pin(flag, dest, typ, default=None, nargs=None, required=False, help=None):
    return ((flag,), dest, "_StoreAction", typ, default, None, nargs, required, help)


_MODEL_PIN = [_DIST] + [_flag_pin(flag, dest, typ) for flag, dest, typ in (
    ("--m", "m", float), ("--n", "n", int), ("--p", "p", float), ("--r", "r", int),
    ("--pi", "pi", float), ("--rho", "rho", float), ("--p0", "p0", float),
    ("--p2", "p2", float), ("--p3", "p3", float), ("--mu", "mu", float),
    ("--lambda", "lam", float), ("--s", "s", float))]
_OUT_PIN = _flag_pin("--out", "out", None)
_DIGITS_PIN = _flag_pin("--digits", "digits", int, 6)
_IGNORED = "ignored: the 3-volumes shares are exact"

PARSER_PIN = {
    "table": [
        _HELP,
        ((), "id", "_StoreAction", int, None, [1, 2, 3], None, True, None),
        _OUT_PIN, _DIGITS_PIN],
    "classify": [
        _HELP,
        ((), "kind", "_StoreAction", None, None, ["f3", "gp"], None, True, None),
        _flag_pin("--p0", "p0", float), _flag_pin("--p2", "p2", float),
        _flag_pin("--p3", "p3", float), _flag_pin("--lambda", "lam", float),
        _flag_pin("--s", "s", float), _OUT_PIN],
    "survival": [
        _HELP, *_MODEL_PIN, _flag_pin("--nmax", "nmax", int, 50), _OUT_PIN, _DIGITS_PIN],
    "sinf": [
        _HELP, *_MODEL_PIN,
        (("--strict",), "strict", "_StoreTrueAction", None, False, None, 0, False,
         "fail (exit 3) when a bound's validity condition does not hold instead "
         "of reporting its value"),
        _OUT_PIN, _DIGITS_PIN],
    "teps": [
        _HELP, *_MODEL_PIN, _flag_pin("--eps", "eps", float, [0.01], nargs="+"),
        _OUT_PIN, _DIGITS_PIN],
    "genetics": [
        _HELP, *_MODEL_PIN,
        _flag_pin("--N", "N", int, required=True), _flag_pin("--Ne", "Ne", float),
        _flag_pin("--theta-mut", "theta_mut", float, 1.0),
        _flag_pin("--alpha", "alpha", float, 1.0), _flag_pin("--tau", "tau", float),
        _OUT_PIN, _DIGITS_PIN],
    "figdata": [
        _HELP,
        ((), "fig", "_StoreAction", None, None, ["1", "2", "3-volumes", "4"], None, True,
         None),
        _flag_pin("--samples", "samples", int, help=_IGNORED),
        _flag_pin("--seed", "seed", int, help=_IGNORED),
        _OUT_PIN, _DIGITS_PIN],
}

SUBCOMMAND_HELP = {
    "table": "emit a reference table as CSV",
    "classify": "bound-direction classification",
    "survival": "survival curve and bounds",
    "sinf": "eventual survival and its bounds",
    "teps": "convergence times T(eps)",
    "genetics": "trait-variance and fixation report",
    "figdata": "emit plot-ready figure data",
}


def subparsers_action(parser):
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub


@pytest.mark.parametrize("name", list(PARSER_PIN))
def test_each_subcommand_declares_the_pinned_arguments(name):
    sub = subparsers_action(make_parser(name))
    assert list(sub.choices) == [name]
    got = [(tuple(a.option_strings), a.dest, type(a).__name__, a.type, a.default,
            a.choices, a.nargs, a.required, a.help)
           for a in sub.choices[name]._actions]
    assert got == PARSER_PIN[name]
    assert sub.choices[name].get_default("func") is not None


def test_subcommands_are_the_pinned_ones_in_help_order():
    sub = subparsers_action(make_parser())
    assert list(SUBCOMMANDS) == list(sub.choices) == list(PARSER_PIN)
    assert {a.dest: a.help for a in sub._choices_actions} == SUBCOMMAND_HELP


# ---------------------------------------------------------------------------
# The README's commands
# ---------------------------------------------------------------------------

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # Every README line that starts with `gwb `, split on whitespace as CI's
    # loop over the installed script splits it: --strict exits 3, the rest 0.
    with open(README, encoding="utf-8") as fh:
        commands = [line.split() for line in fh if line.startswith("gwb ")]
    assert len(commands) == 13
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, _ = run_cli(capsys, *argv[1:])
        assert code == (3 if "--strict" in argv else 0), argv
    assert (tmp_path / "table2.csv").is_file()


# ---------------------------------------------------------------------------
# Paper-regime faults, pinned one output at a time (fault letters as in
# bench/checks.py): a mend turns its pin into an XPASS, which fails until
# the mark is removed.
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fault c: S_inf = 1 - P_inf cancels near criticality")
def test_sinf_poisson_near_critical_matches_mpmath(capsys):
    code, out, _ = run_cli(capsys, "sinf", "--dist", "poisson", "--s", "1e-7",
                           "--digits", "10")
    assert code == 0
    rows = {r[0]: r[1] for r in parse_csv(out)[1:]}
    with mpmath.workdps(30):
        m = mpmath.mpf(poisson_from_s(1e-7).m)
        want = mpmath.findroot(lambda y: 1 - y - mpmath.exp(-m * y), 2 * (m - 1))
    assert abs(float(rows["s_inf"]) / want - 1) <= 1e-6, (rows["s_inf"], want)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fault a: _root_solve_p_inf's bracket top 1 - 1e-9 lies "
                          "beyond P_inf, ConvergenceError 'not bracketed'")
def test_sinf_binomial_near_critical_exits_0(capsys):
    code, _, err = run_cli(capsys, "sinf", "--dist", "binomial", "--n", "5", "--s", "1e-9")
    assert code == 0, err


def gp_sign_rule_mp(model):
    """The direction the sign rule gives from f''(P_inf) and f(0) of the GP
    law, f = phi - phi_FL, all at 40 digits: ((f'', f(0)), direction)."""
    with mpmath.workdps(40):
        lam, mu = mpmath.mpf(model.lam), mpmath.mpf(model.mu)
        z = -lam * mpmath.exp(-lam)

        def phi(x):
            return mpmath.exp(mu * (-mpmath.lambertw(z * x).real / lam - 1))

        s = mu / (1 - lam) - 1
        p = mpmath.findroot(lambda x: phi(x) - x, 1 - 2 * (1 - lam) ** 2 * s)
        gamma = mpmath.diff(phi, p)
        pi = (1 - gamma) / (1 - p * gamma)
        rho = p * pi
        # the matching FL law's phi'' is 2 pi (1-pi)(1-rho)/(1 - pi x)^3
        f2 = mpmath.diff(phi, p, 2) - 2 * pi * (1 - pi) * (1 - rho) / (1 - pi * p) ** 3
        f0 = phi(0) - rho
    direction = "UpperOnS" if f2 > 0 else "LowerOnS" if f0 < 0 else "SwitchesAt"
    return (float(f2), float(f0)), direction


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="f''(P_inf) is formed in P space, where pi = (1 - gamma)/(1 - "
                          "P_inf*gamma) cancels near criticality: bound_direction reads "
                          "the sign of rounding noise")
def test_classify_gp_near_critical_follows_the_sign_rule(capsys):
    (f2, f0), want = gp_sign_rule_mp(gp_from_s(0.2499, 1e-5))
    assert f2 == pytest.approx(2.4e-9, rel=0.01) and f0 == pytest.approx(1.8e-3, rel=0.01)
    assert want == "UpperOnS"
    code, out, _ = run_cli(capsys, "classify", "gp", "--s", "1e-5", "--lambda", "0.2499")
    assert code == 0
    assert json.loads(out)["direction"] == want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cmd_sinf takes s = m - 1.0, which rounds to 0 for an "
                          "admissible law within about 1e-16 of critical")
def test_sinf_fl_law_whose_m_minus_1_rounds_to_0_exits_0(capsys):
    code, _, err = run_cli(capsys, "sinf", "--dist", "fl", "--pi", "0.1859062658947177",
                           "--rho", "0.18590626589471768")
    assert code == 0, err


# ---------------------------------------------------------------------------
# Figure data series
# ---------------------------------------------------------------------------

def test_figdata_fig1_poisson_sweep(capsys):
    code, out, _ = run_cli(capsys, "figdata", "1")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["m", "pi", "rho", "p_inf"]
    first = [float(v) for v in rows[1]]
    assert first[0] == pytest.approx(1.01, abs=1e-9)
    # Near criticality (pi, rho) -> (1/3, 1/3).
    assert first[1] == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert first[2] == pytest.approx(1.0 / 3.0, abs=5e-3)


def test_figdata_fig2_brackets_the_f0_sign_change(capsys):
    # f = phi - phi_FL for GP at s = 0.3 on either side of lambda_c0, where
    # f changes sign: f >= 0 on [0, 1) at lambda = 0.30 and f <= 0 at 0.3145.
    # f(1) = 0 up to rounding, and P_inf is a double root of f.
    from gwbounds.classify_gp import gp_thresholds
    assert 0.30 < gp_thresholds(0.3).lambda_c0 < 0.3145
    code, out, _ = run_cli(capsys, "figdata", "2", "--digits", "17")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["x", "f_lambda_0.3", "f_lambda_0.3145"]
    assert len(rows) == 1 + 201
    values = [[float(v) for v in row] for row in rows[1:]]
    xs = [v[0] for v in values]
    assert xs == [i / 200.0 for i in range(201)]
    for col, lam, sign in ((1, 0.30, 1.0), (2, 0.3145, -1.0)):
        f = [v[col] for v in values]
        assert abs(f[-1]) <= 1e-15
        assert all(sign * y >= 0.0 for y in f[:-1])
        p_inf = extinction_probability(gp_from_s(lam, 0.3)).p_inf
        interior = range(1, 200)
        assert min(interior, key=lambda i: abs(f[i])) == \
            min(interior, key=lambda i: abs(xs[i] - p_inf))


def test_figdata_fig4_relative_errors(capsys):
    code, out, _ = run_cli(capsys, "figdata", "4")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 31  # header + n = 1..30
    lam_cols = rows[0][1:]
    assert "lam_0.9" in lam_cols or any("0.9" in c for c in lam_cols)


# ---------------------------------------------------------------------------
# Console script
# ---------------------------------------------------------------------------

def run_module(*argv):
    """Run `python -m gwbounds.cli` with the package under test first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "gwbounds.cli", *argv],
                          capture_output=True, env=env)


@pytest.mark.skipif(shutil.which("gwb") is None,
                    reason="gwb console script not on PATH (package not installed)")
def test_console_script_installed():
    proc = subprocess.run(["gwb", "table", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("m,method")
    script = subprocess.run(["gwb", "table", "2"], capture_output=True)
    module = run_module("table", "2")
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout


def test_module_invocation_matches_script():
    proc = run_module("table", "2")
    assert proc.returncode == 0 and proc.stderr == b""
    with open(os.path.join(GOLDEN, "table2.csv"), "rb") as fh:
        assert proc.stdout == fh.read()
