"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each layer's entry points with timing and
counting wrappers and `uninstall()` puts the originals back; no file of the
package changes. An entry point is a name one module of `dispersion` calls in
another (every module attribute bound to the same function is replaced, so
calls made through any import of it are seen), a method of `Distribution`,
or a callable (pdf, cdf, sf, logpdf, ppf) of a law that `make_distribution`
or a combinator returns.

Spans are aggregated in memory per name: calls, total seconds, and self
seconds (duration minus the time covered by child spans). Counters count
work at the same boundaries. A name the program no longer has is skipped,
and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

LAW_CALLABLES = ("pdf", "cdf", "sf", "logpdf", "ppf")

# module -> function names -> span; every binding of each function is wrapped
SPANS = {
    "numerics": {"integrate": "numerics.integrate"},
    "hazard": {
        "hazard_scan": "hazard.scan",
        "reverse_hazard_scan": "hazard.scan",
        "log_concavity_scan": "hazard.scan",
        "monotonicity_scan": "hazard.scan",
        # the six residual scans of the equivalence audit
        "_residual_scan": "hazard.scan",
    },
    "ordering": {"classify": "ordering.classify"},
    "measures": {
        "dispersion_report": "measures.dispersion_report",
        "tail_dispersion": "measures.tail_dispersion",
        "mean_excess_abs_diff": "measures.mean_excess",
    },
    "oracle": {"mc_estimate": "oracle.mc_estimate"},
}
METHOD_SPANS = {
    "quantile": "dist.quantile",
    "probe_grid": "dist.probe_grid",
    "lattice_points": "dist.lattice_points",
}
COMBINATORS = ("affine", "mix", "truncate", "convolve")


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts = defaultdict(int)
        self._children = []  # child-time accumulator per open span
        self._undo = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(args, kwargs) runs before the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._children.pop()
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if self._children:
                    self._children[-1] += dur

        return wrapper

    def counted(self, prefix, fn):
        """Wrap a law callable: count calls and array elements evaluated."""

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            self.counts[prefix + ".calls"] += 1
            self.counts[prefix + ".points"] += int(np.size(x))
            return fn(x, *args, **kwargs)

        return wrapper

    def wrap_law(self, d, prefix):
        for attr in LAW_CALLABLES:
            fn = getattr(d, attr)
            if fn is not None:
                setattr(d, attr, self.counted(prefix, fn))
        return d

    # -- installing ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dispersion" or mod_name.startswith("dispersion.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _law_factory(self, fn, prefix):
        @functools.wraps(fn)
        def build(*args, **kwargs):
            return self.wrap_law(fn(*args, **kwargs), prefix)

        return build

    def install(self):
        from dispersion import dist

        mods = {name: sys.modules.get(f"dispersion.{name}") for name in (
            "numerics", "hazard", "ordering", "measures", "oracle", "families", "combinators")}

        for mod_name, names in SPANS.items():
            for fn_name, span_name in names.items():
                fn = getattr(mods[mod_name], fn_name, None)
                if fn is None:
                    continue
                count = None
                if span_name == "oracle.mc_estimate":
                    count = self._count_pairs
                self._replace_everywhere(fn, self.span(span_name, fn, count))

        bisect = getattr(mods["numerics"], "bisect_increasing", None)
        if bisect is not None:
            self._replace_everywhere(bisect, self.span("numerics.bisect", self._bisect(bisect)))
        quad = getattr(mods["numerics"], "quad", None)
        if quad is not None:
            self._replace_everywhere(quad, self._quad(quad))

        for meth, span_name in METHOD_SPANS.items():
            fn = getattr(dist.Distribution, meth, None)
            if fn is None:
                continue
            count = None
            if meth == "quantile":
                count = self._count_quantile_points
            self._undo.append((dist.Distribution, meth, fn))
            setattr(dist.Distribution, meth, self.span(span_name, fn, count))

        make = getattr(mods["families"], "make_distribution", None)
        if make is not None:
            self._replace_everywhere(make, self._law_factory(make, "families.eval"))
        for name in COMBINATORS:
            fn = getattr(mods["combinators"], name, None)
            if fn is not None:
                self._replace_everywhere(fn, self._law_factory(fn, "combinators.eval"))
        return self

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- counters of particular entry points ----------------------------------

    def _count_pairs(self, args, kwargs):
        n = kwargs["n"] if "n" in kwargs else args[1]
        self.counts["oracle.sample.pairs"] += int(n)

    def _count_quantile_points(self, args, kwargs):
        p = kwargs["p"] if "p" in kwargs else args[1]
        self.counts["dist.quantile.points"] += int(np.size(p))

    def _bisect(self, bisect):
        @functools.wraps(bisect)
        def wrapper(fn, *args, **kwargs):
            def counted_fn(x):
                self.counts["numerics.bisect.fn_calls"] += 1
                return fn(x)

            return bisect(counted_fn, *args, **kwargs)

        return wrapper

    def _quad(self, quad):
        @functools.wraps(quad)
        def wrapper(*args, **kwargs):
            out = quad(*args, **kwargs)
            self.counts["numerics.quad.calls"] += 1
            # with full_output, a fourth element is the QUADPACK warning text
            if isinstance(out, tuple) and len(out) >= 3 and isinstance(out[2], dict):
                self.counts["numerics.quad.neval"] += int(out[2].get("neval", 0))
                if len(out) >= 4:
                    self.counts["numerics.quad.warnings"] += 1
            return out

        return wrapper

    # -- reading --------------------------------------------------------------

    def value(self, metric: str) -> float:
        """A per-layer metric: `<span>.calls`, `<span>.self_s` or a counter."""
        span, _, field = metric.rpartition(".")
        if field == "self_s":
            return float(self.spans[span][2]) if span in self.spans else 0.0
        if field == "calls" and span in self.spans:
            return int(self.spans[span][0])
        return int(self.counts.get(metric, 0))

    def table(self) -> dict:
        return {
            "spans": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
