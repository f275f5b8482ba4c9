"""CLI grammar, output schemas, exit codes, and reproducibility."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dispersion import hazard
from dispersion.cli import main

RUN = [sys.executable, "-m", "dispersion.cli"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_record(capsys):
    code, out, _ = run_cli(["analyze", "--dist", "gpd:alpha=0.25", "--output", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["dist"] == "gpd(alpha=0.25)"
    assert rec["verdict"]["verdict"] == "sd-dominates"
    assert rec["verdict"]["numeric_diff"] == pytest.approx(0.3618, abs=1e-3)
    assert rec["hazard"]["h_direction"] == "decreasing"
    assert rec["dispersion"]["method"] == "closed-form"


def test_analyze_csv(capsys):
    code, out, _ = run_cli(["analyze", "--dist", "normal", "--output", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sd,gmd,diff,verdict,basis"
    fields = lines[1].split(",")
    assert float(fields[0]) == 1.0
    assert fields[3] == "gmd-dominates"


def test_sweep_schema_and_signs(capsys):
    code, out, _ = run_cli(
        ["sweep", "--dist", "gamma:alpha=_", "--range", "0.5:1.5:0.5", "--output", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,sd,gmd,diff,verdict,basis"
    assert len(lines) == 4  # header + alpha in {0.5, 1.0, 1.5}
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][3]) > 0 and rows[0][4] == "sd-dominates"
    assert float(rows[2][3]) < 0 and rows[2][4] == "gmd-dominates"


@pytest.mark.parametrize("family,param,value", [("gamma", "alpha", "0.5"), ("geometric", "p", "0.2")])
def test_only_the_json_record_runs_the_residual_scans(family, param, value, capsys, monkeypatch):
    # the equivalence audit's six residual scans run when its flag is read:
    # analyze --output json reads it, sweep and analyze --output csv do not
    calls = []
    scan = hazard._residual_scan
    monkeypatch.setattr(hazard, "_residual_scan", lambda *args: calls.append(args) or scan(*args))
    spec = f"{family}:{param}={value}"
    for args in (["sweep", "--dist", f"{family}:{param}=_", "--range", f"{value}:{value}:1"],
                 ["analyze", "--dist", spec, "--output", "csv"]):
        assert run_cli(args, capsys)[0] == 0
    assert calls == []
    code, out, _ = run_cli(["analyze", "--dist", spec, "--output", "json"], capsys)
    assert code == 0
    assert len(calls) == 6
    rec = json.loads(out)["hazard"]
    assert rec["equivalence_audit_pass"] is True
    assert {"logconcavity_pdf", "logconcavity_cdf", "logconcavity_sf"} <= rec.keys()


def test_sweep_requires_single_placeholder(capsys):
    code, _, err = run_cli(
        ["sweep", "--dist", "gamma:alpha=2", "--range", "0:1:0.5"], capsys
    )
    assert code == 2
    assert "ParseError" in err


def test_truncate_sweep_schema(capsys):
    code, out, _ = run_cli(
        ["truncate-sweep", "--dist", "weibull:alpha=1", "--side", "lower",
         "--range", "0:2:1", "--output", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,sd,gmd,diff"
    for line in lines[1:]:
        sd_val, gmd_val = map(float, line.split(",")[1:3])
        assert sd_val == pytest.approx(1.0, rel=1e-8, abs=0)  # memoryless
        assert gmd_val == pytest.approx(1.0, rel=1e-8, abs=0)


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--dist", "geometric:p=0.5", "--mc-n", "50000", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["agreement"]["sd"] and rec["agreement"]["gmd"] and rec["agreement"]["lambda"]
    assert rec["analytic"]["lambda"] == pytest.approx(1 / 3, rel=1e-9, abs=0)
    assert rec["oracle"]["n"] == 50000 and rec["oracle"]["seed"] == 3


def test_list_families_text(capsys):
    code, out, _ = run_cli(["list-families"], capsys)
    assert code == 0
    assert "gpd" in out and "0 <= alpha < 1/2" in out
    assert len(out.strip().splitlines()) == 15


def test_list_families_json(capsys):
    code, out, _ = run_cli(["list-families", "--output", "json"], capsys)
    fams = json.loads(out)
    assert {f["family"] for f in fams} >= {"gamma", "zipf", "erfi-interval"}


# every family's parameters in order, with their defaults
PARAMETER_TABLE = {
    "gamma": {"alpha": "required"},
    "weibull": {"alpha": "required"},
    "gpd": {"alpha": "required"},
    "normal": {"mu": 0.0, "sigma": 1.0},
    "beta": {"alpha": "required", "beta": 1.0},
    "logistic": {},
    "erf-hazard": {},
    "erfi-interval": {},
    "erfi-unit": {},
    "damped-hazard": {"theta": "required"},
    "normal-mix": {"sigma1": 0.5, "sigma2": 2.0, "q": 0.75},
    "geometric": {"p": "required"},
    "zipf": {"alpha": "required"},
    "poisson": {"theta": "required"},
    "negbinomial": {"r": "required", "p": "required"},
}


def test_list_families_json_parameter_table(capsys):
    code, out, _ = run_cli(["list-families", "--output", "json"], capsys)
    assert code == 0
    fams = json.loads(out)
    assert {f["family"]: f["params"] for f in fams} == PARAMETER_TABLE
    # the text table keeps the order
    code, out, _ = run_cli(["list-families"], capsys)
    lines = {line.split()[0]: line.split("] ", 1)[1].split(";")[0] for line in out.splitlines()}
    assert list(lines) == list(PARAMETER_TABLE)
    for family, params in PARAMETER_TABLE.items():
        want = ", ".join(f"{k}=<required>" if v == "required" else f"{k}={v}" for k, v in params.items())
        assert lines[family] == (want or "(no parameters)")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("gamma", "ParseError: gamma: missing required parameter 'alpha'"),
        ("beta:beta=2", "ParseError: beta: missing required parameter 'alpha'"),
        ("negbinomial:p=0.5,q=1", "ParseError: negbinomial: missing required parameter 'r'"),
        ("gamma:alpha=1,beta=2", "ParseError: gamma: unknown parameter(s) ['beta']; expected ['alpha']"),
        ("logistic:x=1", "ParseError: logistic: unknown parameter(s) ['x']; expected []"),
        ("normal:zz=3,sigma=2,aa=1", "ParseError: normal: unknown parameter(s) ['aa', 'zz']; expected ['mu', 'sigma']"),
        ("gamma:alpha=1,alpha=2", "ParseError: parameter 'alpha' is given twice in 'gamma:alpha=1,alpha=2'"),
    ],
)
def test_parameter_error_messages(spec, message, capsys):
    code, _, err = run_cli(["analyze", "--dist", spec], capsys)
    assert code == 2
    assert err.strip() == message


def test_exit_code_unknown_family(capsys):
    code, _, err = run_cli(["analyze", "--dist", "nope:x=1"], capsys)
    assert code == 2
    assert "UnknownFamily" in err


def test_exit_code_param_out_of_domain(capsys):
    code, _, err = run_cli(["analyze", "--dist", "gpd:alpha=0.9"], capsys)
    assert code == 3
    assert "ParamOutOfDomain" in err


def test_exit_code_computation_error(capsys):
    code, _, err = run_cli(
        ["truncate-sweep", "--dist", "erfi-unit", "--side", "lower",
         "--range", "2:3:1"], capsys
    )
    assert code == 3
    assert "EmptyTail" in err


def test_exit_code_unsampleable_lattice_names_its_error(capsys):
    # a lattice too long to enumerate cannot be drawn through its table; the
    # error keeps its own class on its way out of Monte Carlo
    code, _, err = run_cli(["verify", "--dist", "geometric:p=1e-6", "--mc-n", "10000"], capsys)
    assert code == 3
    assert err.startswith("SupportTooLarge: ")


def test_exit_code_bad_flag():
    # argparse handles unknown flags with status 2
    proc = subprocess.run(
        RUN + ["analyze", "--no-such-flag"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_output_file_byte_identical(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    args = ["sweep", "--dist", "geometric:p=_", "--range", "0.2:0.8:0.2",
            "--output", "csv"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    first_row = p1.read_text().splitlines()[1].split(",")
    # 12 significant digits
    assert first_row[1] == f"{4.47213595499958:.12g}"


def test_verify_reproducible_bytes(tmp_path, capsys):
    args = ["verify", "--dist", "normal", "--mc-n", "20000", "--seed", "5"]
    p1 = tmp_path / "v1.json"
    p2 = tmp_path / "v2.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_mean_excess_csv_byte_identical(tmp_path, capsys):
    args = ["mean-excess", "--dist", "gamma:alpha=2", "--range", "0:3:0.5"]
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    rows = [line.split(",") for line in p1.read_text().splitlines()]
    assert rows[0] == ["t", "m_direct", "m_repr", "baseline"]
    # X, X' ~ gamma(2): m_Y(t) = (3 + t) / (2 + t), whose value at 0 is the GMD 1.5
    for i, row in enumerate(rows[1:]):
        t = 0.5 * i
        assert float(row[0]) == t
        assert float(row[1]) == pytest.approx((3 + t) / (2 + t), rel=1e-10, abs=0)
        assert row[3] == "1.5"


def test_mean_excess_zipf_heavy_tail(capsys):
    # zipf(2.5) is enumerated to 1e-12 only; the sums of S past it are analytic
    code, out, _ = run_cli(["mean-excess", "--dist", "zipf:alpha=2.5", "--range", "0:7:1"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert [float(r[0]) for r in rows[1:]] == list(range(8))


def test_mean_excess_non_integer_lattice_t_is_parse_error(capsys):
    code, out, err = run_cli(
        ["mean-excess", "--dist", "geometric:p=0.5", "--range", "0:1:0.5"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ParseError")


def test_negative_range_space_form(capsys):
    code, out, _ = run_cli(
        ["truncate-sweep", "--dist", "normal-mix", "--side", "upper",
         "--range", "-8:-6:1", "--output", "csv"],
        capsys,
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[1].startswith("-8,")
    assert all(float(r.split(",")[3]) <= 0 for r in rows[1:])


def test_grid_env_is_ignored():
    # the scan grid reads no environment: on 4 points the damped-hazard density
    # scans log-concave and would certify gmd-dominates, a false certificate
    for value in ("4", "abc"):
        env = dict(os.environ, DISPERSION_GRID=value)
        proc = subprocess.run(
            RUN + ["analyze", "--dist", "damped-hazard:theta=0.5", "--output", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        assert rec["hazard"]["grid"].endswith("n2048")
        assert rec["verdict"]["verdict"] == "inconclusive"
        assert rec["verdict"]["basis"] == "none"


@pytest.mark.parametrize("args", [
    ["sweep", "--dist", "gamma:alpha=_", "--range", "1:2:1", "--output", "json"],
    ["truncate-sweep", "--dist", "normal", "--side", "lower", "--range", "0:1:1", "--output", "json"],
    ["mean-excess", "--dist", "normal", "--range", "0:1:1", "--output", "json"],
    ["verify", "--dist", "normal", "--mc-n", "1000", "--output", "csv"],
    ["list-families", "--output", "csv"],
])
def test_output_format_the_command_does_not_write_is_parse_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "--output" in err


@pytest.mark.parametrize("args", [
    ["verify", "--dist", "normal", "--mc-n", "100"],
    ["verify", "--dist", "normal", "--mc-n", "-5"],
    ["sweep", "--dist", "gamma:alpha=_", "--range", "nan:1:0.1"],
    ["sweep", "--dist", "gamma:alpha=_", "--range", "0.1:inf:0.1"],
    ["truncate-sweep", "--dist", "normal", "--side", "lower", "--range", "0:nan:1"],
])
def test_malformed_count_or_range_is_parse_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ParseError: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_verify_bad_seed_names_the_seed_flag(seed, capsys):
    # Philox keys are 128-bit: a seed outside [0, 2**128) is the --seed flag's
    # fault, whatever --mc-n says
    code, out, err = run_cli(["verify", "--dist", "normal", "--mc-n", "20000", "--seed", seed], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"ParseError: --seed {seed}: ") and err.count("\n") == 1
    assert "--mc-n" not in err


FIGURES = Path(__file__).resolve().parents[1] / "docs" / "figures.md"
# the header each subcommand writes; each must be documented as "Columns: `...`"
RECIPE_HEADERS = {
    "sweep": "param,sd,gmd,diff,verdict,basis",
    "truncate-sweep": "u,sd,gmd,diff",
    "mean-excess": "t,m_direct,m_repr,baseline",
}


def _figure_recipes() -> list[str]:
    """Every `dispersion ...` line of the sh blocks of docs/figures.md, with
    backslash continuations joined and comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", FIGURES.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    words = [shlex.split(line, comments=True) for line in lines]
    return [shlex.join(w) for w in words if w[:1] == ["dispersion"]]


def test_figure_recipes_are_all_found():
    assert len(_figure_recipes()) == 12
    documented = FIGURES.read_text()
    for header in RECIPE_HEADERS.values():
        assert f"Columns: `{header}`" in documented


@pytest.mark.parametrize("recipe", _figure_recipes())
def test_figure_recipe_runs(recipe, capsys):
    args = shlex.split(recipe)[1:]
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == RECIPE_HEADERS[args[0]]
    start, stop, step = map(float, args[args.index("--range") + 1].split(":"))
    assert len(lines) - 1 == round((stop - start) / step) + 1
