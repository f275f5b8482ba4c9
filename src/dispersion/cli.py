"""Command-line surface.

    dispersion analyze        --dist FAMILY:k=v[,k=v...] [--output json|csv]
    dispersion sweep          --dist FAMILY:k=_[,...] --range a:b:step [--output csv]
    dispersion truncate-sweep --dist FAMILY:... --side lower|upper --range a:b:step [--output csv]
    dispersion mean-excess    --dist FAMILY:... --range a:b:step [--output csv]
    dispersion verify         --dist FAMILY:... [--mc-n N] [--seed S] [--output json]
    dispersion list-families  [--output json]

Every command also takes --out PATH, and --output names only the formats
it writes (the first is the default; list-families prints a text table by
default). The sweep placeholder ``_`` marks the swept parameter. CSV rows
carry 12 significant digits, are newline-terminated and
locale-independent; fixed seeds make repeated invocations byte-identical.
Exit status: 0 success, 2 parse error, 3 computation error (the error
class name is echoed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DispersionError, ParseError
from .families import FamilySpec, list_families, make_distribution, parse_family_spec
from .measures import concentration, dispersion_report, mean_excess_abs_diff, tail_dispersion
from .oracle import SEED_LIMIT, mc_estimate
from .ordering import classify


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_range(text: str) -> np.ndarray:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ParseError(f"--range must be start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParseError(f"--range start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise ParseError(f"--range step must be positive, got {step}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise ParseError(f"--range {text!r} contains no points")
    return start + step * np.arange(count)


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def _json_dump(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _verdict_fields(v) -> list[str]:
    """sd, gmd, diff, verdict and basis of one CSV row."""
    disp = v.report
    return [_fmt(disp.sd), _fmt(disp.gmd), _fmt(disp.diff), v.verdict, v.basis]


def cmd_analyze(args) -> str:
    d = make_distribution(parse_family_spec(args.dist))
    verdict = classify(d)
    if args.output == "csv":
        # the CSV row reads no record, so the equivalence audit never runs
        return "sd,gmd,diff,verdict,basis\n" + ",".join(_verdict_fields(verdict)) + "\n"
    return _json_dump({
        "dist": d.label,
        "dispersion": verdict.report.to_record(),
        "hazard": verdict.evidence.hazard.to_record(),
        "verdict": verdict.to_record(),
    })


def cmd_sweep(args) -> str:
    spec = parse_family_spec(args.dist, allow_placeholder=True)
    swept = [k for k, v in spec.params.items() if isinstance(v, float) and math.isnan(v)]
    if len(swept) != 1:
        raise ParseError("sweep specs need exactly one parameter set to '_'")
    name = swept[0]
    rows = ["param,sd,gmd,diff,verdict,basis"]
    for value in _parse_range(args.range):
        params = dict(spec.params)
        params[name] = float(value)
        v = classify(make_distribution(FamilySpec(spec.family, params)))
        rows.append(",".join([_fmt(value), *_verdict_fields(v)]))
    return "\n".join(rows) + "\n"


def cmd_truncate_sweep(args) -> str:
    d = make_distribution(parse_family_spec(args.dist))
    rows = ["u,sd,gmd,diff"]
    for u in _parse_range(args.range):
        rep = tail_dispersion(d, args.side, float(u))
        rows.append(",".join([_fmt(u), _fmt(rep.sd), _fmt(rep.gmd), _fmt(rep.diff)]))
    return "\n".join(rows) + "\n"


def cmd_mean_excess(args) -> str:
    d = make_distribution(parse_family_spec(args.dist))
    try:
        curve = mean_excess_abs_diff(d, _parse_range(args.range))
    except ValueError as exc:  # a negative t, or a non-integer t on a lattice law
        raise ParseError(f"--range {args.range!r}: {exc}") from None
    rows = ["t,m_direct,m_repr,baseline"]
    for t, direct, repr_ in zip(curve.ts, curve.m_direct, curve.m_repr):
        rows.append(",".join([_fmt(t), _fmt(direct), _fmt(repr_), _fmt(curve.baseline)]))
    return "\n".join(rows) + "\n"


def cmd_verify(args) -> str:
    if not 0 <= args.seed < SEED_LIMIT:
        raise ParseError(f"--seed {args.seed}: the seed must be at least 0 and below 2**128")
    d = make_distribution(parse_family_spec(args.dist))
    disp = dispersion_report(d)
    try:
        est = mc_estimate(d, args.mc_n, args.seed)
    except ValueError as exc:  # n below the batch-means minimum
        raise ParseError(f"--mc-n {args.mc_n}: {exc}") from None
    analytic = {"sd": disp.sd, "gmd": disp.gmd, "method": disp.method}
    agreement = {
        "sd": bool(abs(est.sd_hat - disp.sd) <= 4 * est.ci_sd),
        "gmd": bool(abs(est.gmd_hat - disp.gmd) <= 4 * est.ci_gmd),
    }
    if d.is_lattice:
        lam = concentration(d).lambda_
        analytic["lambda"] = lam
        agreement["lambda"] = bool(abs(est.lambda_hat - lam) <= 4 * est.ci_lambda)
    rec = {
        "dist": d.label,
        "analytic": analytic,
        "oracle": est.to_record(),
        "agreement": agreement,
    }
    return _json_dump(rec)


def cmd_list_families(args) -> str:
    fams = list_families()
    if args.output == "json":
        return _json_dump(fams)
    lines = []
    for f in fams:
        params = ", ".join(
            f"{k}={v}" if v != "required" else f"{k}=<required>"
            for k, v in f["params"].items()
        ) or "(no parameters)"
        lines.append(f"{f['family']:14s} [{f['kind']}] {params}; domain: {f['domain']}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersion",
        description="SD vs Gini mean difference analytics for parametric distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *formats, dist=True):
        # --output accepts only the formats the command writes; the first is the default
        if dist:
            p.add_argument("--dist", required=True, help="family:k=v[,k=v...]")
        p.add_argument("--output", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write to PATH instead of stdout")

    p = sub.add_parser("analyze", help="one-law dispersion + hazard + verdict record")
    common(p, "json", "csv")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="sweep one family parameter (mark it with '_')")
    common(p, "csv")
    p.add_argument("--range", required=True, help="start:stop:step")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("truncate-sweep", help="tail SD/GMD as a function of the threshold")
    common(p, "csv")
    p.add_argument("--range", required=True, help="start:stop:step")
    p.add_argument("--side", choices=["lower", "upper"], required=True)
    p.set_defaults(fn=cmd_truncate_sweep)

    p = sub.add_parser("mean-excess", help="mean excess of |X - X'| by both routes")
    common(p, "csv")
    p.add_argument("--range", required=True, help="start:stop:step")
    p.set_defaults(fn=cmd_mean_excess)

    p = sub.add_parser("verify", help="Monte Carlo cross-check of the analytic values")
    common(p, "json")
    p.add_argument("--mc-n", type=int, default=10**6, dest="mc_n")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("list-families", help="registry families and parameter domains")
    common(p, "json", dist=False)
    p.set_defaults(fn=cmd_list_families, output="text")  # a text table unless --output json
    return parser


def _fuse_range(argv: list[str]) -> list[str]:
    # "--range -8:-2:0.5" would otherwise be read as a flag; fuse to "="
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_range(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.fn(args)
        _write(text, args.out)
    except ParseError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (DispersionError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 3
    return 0


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
