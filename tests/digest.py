"""Digest of the package's outputs as float hex, to diff one tree against another.

    python tests/digest.py [--src DIR]
    python tests/digest.py --against DIR

The first form prints one line per value, `key<TAB>field<TAB>value`, for the
package under DIR (default: this checkout's src/). Floats print as float hex,
so any change in a last bit shows. The second form digests DIR and this
checkout's src/ in two fresh interpreters and prints every value that
differs, with its relative move for floats, then a count.

The records, built by the operations of bench/workloads.py:

- every `analyze` row, the 42 STANDARD_INSTANCES of tests/conftest.py among
  them: verdict, basis, h/r directions, log-concavity classes of pdf, cdf and
  sf, the audit flag, SD, GMD and err_estimate (truncate-sweep rows: SD, GMD
  and err_estimate of `tail_dispersion`);
- every `mean-excess` curve: baseline, m_direct and m_repr at each t;
- every `mc-verify` law: `mc_estimate` at seeds 1, 2 and 3;
- every law of a `mean-excess` curve or an `mc-verify` row, built afresh:
  `quantile` at QUANTILE_PS (and, on a continuous law, the same through the
  inverse table) and `stop_loss` at STOP_LOSS_XS.

The name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MC_SEEDS = (1, 2, 3)
QUANTILE_PS = (1e-12, 1e-6, 0.25, 0.5, 0.75, 1 - 1e-6)
STOP_LOSS_XS = (-2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0)


def _value(v) -> str:
    if isinstance(v, float):
        return v.hex()
    if v is None or isinstance(v, (bool, str)):
        return str(v)
    return float(v).hex()  # numpy scalars


def digest(src: Path):
    """Yield (key, field, value) for the package under `src`."""
    sys.path[:0] = [str(src), str(ROOT / "bench"), str(ROOT / "tests")]
    import dispersion as dp
    import workloads
    from conftest import STANDARD_INSTANCES

    # the bench calls the package through `dp` at call time: keep what its
    # analyze rows return only in part
    seen = {}
    classify, tail_dispersion = dp.classify, dp.tail_dispersion
    dp.classify = lambda d: seen.setdefault("verdict", classify(d))
    dp.tail_dispersion = lambda *a: seen.setdefault("tail", tail_dispersion(*a))

    def report(rep):
        yield from (("sd", rep.sd), ("gmd", rep.gmd), ("err_estimate", rep.err_estimate))

    ops = workloads.analyze_ops()
    missing = {f"analyze {spec}" for spec in STANDARD_INSTANCES} - {op.key for op in ops}
    if missing:
        raise SystemExit(f"STANDARD_INSTANCES missing from the bench's analyze rows: {sorted(missing)}")
    keys = {}
    for op in ops:
        # the sweeps share their end points: a repeated key is numbered
        keys[op.key] = n = keys.get(op.key, 0) + 1
        key = op.key if n == 1 else f"{op.key} #{n}"
        seen.clear()
        op.run(0)
        if "verdict" in seen:
            v = seen["verdict"]
            h = v.evidence.hazard
            fields = [("verdict", v.verdict), ("basis", v.basis), ("h", h.h_verdict.direction),
                      ("r", h.r_verdict.direction)]
            fields += [(f"logc_{t}", h.logconcavity[t]) for t in ("pdf", "cdf", "sf")]
            fields += [("audit", h.equivalence_audit_pass), *report(v.report)]
        else:
            fields = list(report(seen["tail"]))
        for field, value in fields:
            yield key, field, _value(value)

    for op in workloads.mean_excess_ops():
        c = op.run(0)
        yield op.key, "baseline", _value(c.baseline)
        for name in ("m_direct", "m_repr"):
            for i, value in enumerate(getattr(c, name)):
                yield op.key, f"{name}[{i}]", _value(value)

    for op in workloads.mc_ops():
        for seed in MC_SEEDS:
            e = op.run(seed)
            for name in ("sd_hat", "gmd_hat", "lambda_hat", "ci_sd", "ci_gmd", "ci_lambda"):
                yield op.key, f"{name}@{seed}", _value(getattr(e, name))

    # the laws of the curve and mc-verify rows, each built afresh
    specs = [s for s, _, _ in workloads.CURVES] + workloads.FAMILY_REPRESENTATIVE
    laws = {spec: dp.make_distribution(spec) for spec in specs}
    spec, side, u = workloads.MC_TRUNCATION
    laws[f"truncate({spec}, {side}, {u:g})"] = dp.truncate(dp.make_distribution(spec), side, u)
    for name, d in laws.items():
        key = f"law {name}"
        tables = (False,) if d.is_lattice else (False, True)
        for table in tables:
            qs = d.quantile(np.array(QUANTILE_PS), table=table)
            for p, q in zip(QUANTILE_PS, qs):
                yield key, f"{'q_table' if table else 'q'}({p!r})", _value(q)
        for x, v in zip(STOP_LOSS_XS, d.stop_loss(np.array(STOP_LOSS_XS))):
            yield key, f"stop_loss({x!r})", _value(v)


def _read(src: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", src]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env).stdout
    return {tuple(line.split("\t")[:2]): line.split("\t")[2] for line in out.splitlines()}


def compare(other: str) -> int:
    """Print every value that differs between the package under `other` and
    this checkout's; exit status 1 if any does."""
    old, new = _read(other), _read(str(ROOT / "src"))
    moved = 0
    for k in sorted(old.keys() | new.keys()):
        a, b = old.get(k), new.get(k)
        if a == b:
            continue
        moved += 1
        note = ""
        try:
            x, y = float.fromhex(a), float.fromhex(b)
            note = f"  rel {abs(y - x) / abs(x):.2e}" if x else ""
        except (TypeError, ValueError):
            pass
        print(f"{k[0]}\t{k[1]}\t{a} -> {b}{note}")
    print(f"{moved} of {len(old.keys() | new.keys())} values differ")
    return int(moved > 0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="package source directory to digest")
    p.add_argument("--against", help="source directory to compare this checkout's src/ with")
    args = p.parse_args(argv)
    if args.against:
        return compare(args.against)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for key, field, value in digest(Path(args.src).resolve()):
        print(f"{key}\t{field}\t{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
