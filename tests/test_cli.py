"""CLI grammar, output schemas, exit codes, and reproducibility."""

import json
import os
import subprocess
import sys

import pytest

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
        assert sd_val == pytest.approx(1.0, rel=1e-8)  # memoryless
        assert gmd_val == pytest.approx(1.0, rel=1e-8)


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--dist", "geometric:p=0.5", "--mc-n", "50000", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["agreement"]["sd"] and rec["agreement"]["gmd"] and rec["agreement"]["lambda"]
    assert rec["analytic"]["lambda"] == pytest.approx(1 / 3, rel=1e-9)
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
        assert float(row[1]) == pytest.approx((3 + t) / (2 + t), rel=1e-10)
        assert row[3] == "1.5"


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


def test_grid_env_override():
    env = dict(os.environ, DISPERSION_GRID="256")
    proc = subprocess.run(
        RUN + ["analyze", "--dist", "normal", "--output", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert "n256" in rec["hazard"]["grid"]
