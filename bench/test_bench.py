"""Self-tests of the benchmark: references, checks, tracer and runner.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

import run

run.load_program()

import dispersion as dp  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

# -- each reference reproduces a known value ---------------------------------


@pytest.mark.parametrize("spec, sd, gmd", [
    ("gamma:alpha=1", 1.0, 1.0),
    ("gamma:alpha=2", math.sqrt(2), 1.5),
    ("weibull:alpha=1", 1.0, 1.0),
    ("gpd:alpha=0", 1.0, 1.0),
    ("normal:sigma=2", 2.0, 4 / math.sqrt(math.pi)),
    ("normal-mix:sigma1=1,sigma2=1,q=0.3", 1.0, 2 / math.sqrt(math.pi)),
    ("logistic", math.pi / math.sqrt(3), 2.0),
    ("beta:alpha=1", math.sqrt(1 / 12), 1 / 3),  # uniform
    ("geometric:p=0.5", math.sqrt(2), 4 / 3),
    # Skellam: E|X - X'| = 2 theta e^(-2 theta) (I0(2 theta) + I1(2 theta))
    ("poisson:theta=2", math.sqrt(2), 4 * math.exp(-4) * (special.i0(4) + special.i1(4))),
])
def test_sd_gmd_known_values(spec, sd, gmd):
    got = ref.sd_gmd(spec)
    assert got == pytest.approx((sd, gmd), rel=1e-10)


def test_gpd_closed_form_matches_scipy():
    law = stats.genpareto(0.25)
    gmd = 2 * integrate.quad(lambda x: law.cdf(x) * law.sf(x), 0, np.inf, epsrel=1e-12)[0]
    assert ref.sd_gmd("gpd:alpha=0.25") == pytest.approx((law.std(), gmd), rel=1e-8)


def test_survival_route_on_exponential():
    assert ref.sd_gmd_from_survival(lambda y: math.exp(-y)) == pytest.approx((1.0, 1.0), rel=1e-11)


def test_zipf_against_pair_sums():
    assert ref.sd_gmd("zipf:alpha=2.5")[0] == pytest.approx(0.9492176258642497, rel=1e-14)
    # alpha = 4: pmf ~ k^-5, so a direct double sum over 2000 points suffices
    k = np.arange(1, 2001, dtype=float)
    f = k**-5 / special.zeta(5)
    gmd = float(f @ np.abs(k[:, None] - k[None, :]) @ f)
    assert ref.sd_gmd("zipf:alpha=4")[1] == pytest.approx(gmd, rel=1e-9)
    assert ref.tie_probability("zipf:alpha=4") == pytest.approx(float(f @ f), rel=1e-9)


def test_tie_probabilities():
    assert ref.tie_probability("geometric:p=0.4") == pytest.approx(0.4 / 1.6, rel=1e-12)
    assert ref.tie_probability("poisson:theta=2") == pytest.approx(math.exp(-4) * special.i0(4), rel=1e-12)


def test_truncation_far_out_is_the_parent():
    parent = ref.sd_gmd("normal-mix")
    assert ref.truncated_sd_gmd("normal-mix", "lower", -40.0) == pytest.approx(parent, rel=1e-9)
    assert ref.truncated_sd_gmd("normal-mix", "upper", 40.0) == pytest.approx(parent, rel=1e-9)


def test_mixture_reference_endpoints():
    assert ref.weibull_gamma_mixture_sd_gmd(0.6, 0.5, 1.0) == pytest.approx(
        ref.sd_gmd("weibull:alpha=0.6"), rel=1e-9)
    assert ref.weibull_gamma_mixture_sd_gmd(0.6, 0.5, 0.0) == pytest.approx(
        ref.sd_gmd("gamma:alpha=0.5"), rel=1e-9)


def test_mean_excess_references():
    assert ref.normal_mean_excess(1.0, [0.0])[0] == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)
    assert ref.gamma2_mean_excess([0.0])[0] == pytest.approx(ref.sd_gmd("gamma:alpha=2")[1])
    # geometric: Y - t given Y > t is 1 + geometric, so m = 1 / p
    assert ref.lattice_mean_excess("geometric:p=0.3", np.arange(5.0)) == pytest.approx(
        np.full(5, 1 / 0.3), rel=1e-12)
    # t = 0: E[Y | Y > 0] = GMD / (1 - Lambda)
    gmd = ref.sd_gmd("poisson:theta=2")[1]
    lam = ref.tie_probability("poisson:theta=2")
    assert ref.lattice_mean_excess("poisson:theta=2", [0.0])[0] == pytest.approx(gmd / (1 - lam), rel=1e-10)


# -- each check rejects a perturbed output -------------------------------------


def _op(ops, key):
    return next(op for op in ops if op.key == key)


def test_analyze_row_check_rejects_perturbation():
    op = _op(wl.analyze_ops(), "analyze gamma:alpha=2")
    out = op.run(0)
    assert op.check(out) == []
    sd, gmd, diff, verdict, basis = out
    assert op.check((sd * (1 + 1e-6), gmd, diff, verdict, basis))
    assert op.check((sd, gmd * (1 - 1e-6), diff, verdict, basis))
    assert op.check((sd, gmd, diff, wl.SD, basis))


def test_known_fault_rows_fail_and_are_marked():
    faults = [op for op in wl.analyze_ops() if op.known_fault]
    assert len(faults) == 3
    assert all(op.check(op.run(0)) for op in faults)


def test_truncation_check_rejects_perturbation():
    op = _op(wl.analyze_ops(), "truncate-sweep damped-hazard:theta=0.1 lower u=20")
    rep = op.run(0)
    assert op.check(rep) == []
    assert op.check(dataclasses.replace(rep, gmd=rep.gmd * (1 + 1e-6)))
    assert op.check(dataclasses.replace(rep, diff=-1e-3))


def test_mc_check_rejects_perturbation():
    op = _op(wl.mc_ops(), "verify normal")
    est = op.run(1)
    assert op.check(est) == []
    assert op.check(dataclasses.replace(est, sd_hat=est.sd_hat + 5 * est.ci_sd))
    assert op.check(dataclasses.replace(est, gmd_hat=est.gmd_hat - 5 * est.ci_gmd))


def test_curve_check_rejects_perturbation():
    op = _op(wl.mean_excess_ops(), "mean-excess geometric:p=0.3 (32 t)")
    c = op.run(0)
    assert op.check(c) == []
    bumped = c.m_direct.copy()
    bumped[5] *= 1 + 1e-5
    assert op.check(dataclasses.replace(c, m_repr=bumped))
    assert op.check(dataclasses.replace(c, m_direct=bumped, m_repr=bumped))
    assert op.check(dataclasses.replace(c, baseline=c.baseline + 1e-4))


# -- tracer ------------------------------------------------------------------------


def test_tracer_counts_and_restores():
    before = (dp.make_distribution, dp.measures.dispersion_report, dp.dist.Distribution.quantile)
    tracer = Tracer()
    with tracer:
        d = dp.make_distribution("normal")
        dp.classify(d)
    assert (dp.make_distribution, dp.measures.dispersion_report,
            dp.dist.Distribution.quantile) == before
    # h, r, three log-concavity scans and six residual scans, one grid each
    assert tracer.value("hazard.scan.calls") == 11
    assert tracer.value("dist.probe_grid.calls") == 11
    assert tracer.value("measures.dispersion_report.calls") == 1
    assert tracer.value("families.eval.points") > 0
    assert tracer.value("ordering.classify.self_s") > 0


def test_traced_run_reports_every_per_layer_metric():
    keys = {"verify normal", "verify geometric:p=0.5"}
    ops = [op for op in wl.mc_ops() if op.key in keys]
    args = run.parse_args(["--workload", "mc-verify", "--seed", "5", "--seconds", "1", "--trace", "1"])
    records, metrics = run.traced_run(args, ops)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert len(records) == 4
    assert metrics["oracle.sample.pairs"]["value"] == 2 * wl.MC_N
    # each estimate draws two samples of n points through Distribution.quantile
    assert metrics["dist.quantile.points"]["value"] == 4 * wl.MC_N


# -- runner -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["analyze", "mc-verify", "mean-excess"])
def test_short_run_completes(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == (3 if workload == "analyze" else 0)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
