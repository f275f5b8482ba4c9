"""The bench tracer's view of a law: every callable it wraps exists on every
registry law and every combinator law, so `bench/run.py --trace 1` can wrap
them. `LAW_CALLABLES` is read from `bench/tracing.py` itself."""

import importlib.util
from pathlib import Path

from dispersion import affine, convolve, make_distribution, mix, truncate
from dispersion.families import FAMILIES

from conftest import FAMILY_REPRESENTATIVE

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _law_callables() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.LAW_CALLABLES)


def _combinator_laws() -> dict:
    m = make_distribution
    return {
        "affine": affine(m("gpd:alpha=0.25"), -1.0, 0.0),
        "affine-lattice": affine(m("zipf:alpha=2.5"), -1, 0),
        "mix": mix([m("weibull:alpha=0.6"), m("gamma:alpha=0.5")], [0.5, 0.5]),
        "mix-lattice": mix([m("geometric:p=0.3"), m("poisson:theta=2")], [0.5, 0.5]),
        "truncate-lower": truncate(m("normal-mix"), "lower", 2.0),
        "truncate-upper": truncate(m("gamma:alpha=2"), "upper", 3.0),
        "truncate-lattice": truncate(m("poisson:theta=2"), "lower", 1.0),
        "convolve-closed": convolve(m("normal"), m("normal")),
        "convolve-numeric": convolve(m("logistic"), m("normal")),
    }


def test_every_law_has_the_traced_callables():
    names = _law_callables()
    assert {"pdf", "cdf", "sf"} <= set(names)
    assert set(FAMILY_REPRESENTATIVE) == set(FAMILIES)
    laws = {spec: make_distribution(spec) for spec in FAMILY_REPRESENTATIVE.values()}
    laws.update(_combinator_laws())
    for label, d in laws.items():
        missing = [attr for attr in names if not hasattr(d, attr)]
        assert missing == [], f"{label} lacks {missing}"
