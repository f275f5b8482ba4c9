"""Hazard-rate structure and the equivalence audit.

Emits the hazard and reverse-hazard curves behind the counterexample law
(CDF erfi(1+x)/erfi(2) on [-1, 1]) and the zipf hazard as CSV-style rows,
then cross-checks the three equivalent characterizations of monotone
hazards on a few families.

Run:  python demos/02_hazard_structure.py
"""

import numpy as np

from dispersion import equivalence_audit, make_distribution

# The counterexample: h increases everywhere, but r dips and recovers, so
# one light tail is not enough for GMD dominance (SD still wins: 0.407 vs
# 0.402). The rows below are the data behind the two rate curves.
d = make_distribution("erfi-interval")
xs = d.probe_grid()[::128]
h = np.asarray(d.pdf(xs), float) / np.asarray(d.sf(xs), float)
r = np.asarray(d.pdf(xs), float) / np.asarray(d.cdf(xs), float)
print("x,hazard,reverse_hazard")
for row in zip(xs, h, r):
    print(",".join(f"{v:.6g}" for v in row))
print()

full_grid = d.probe_grid()
r_full = np.asarray(d.pdf(full_grid), float) / np.asarray(d.cdf(full_grid), float)
print(f"reverse hazard minimum near x = {full_grid[np.argmin(r_full)]:+.4f} "
      "(the sign change of r')")
print()

# Discrete hazard of a zipf law: h(x) = f(x) / S(x-1) decreases in x.
z = make_distribution("zipf:alpha=3")
ks = np.arange(1.0, 13.0)
hz = np.asarray(z.pdf(ks), float) / np.asarray(z.sf(ks - 1), float)
print("x,zipf_hazard")
for k, v in zip(ks, hz):
    print(f"{int(k)},{v:.6g}")
print()

# One report ties it together: rate scans, log-concavity of f/F/S, and
# residual-survival spot checks must tell one consistent story.
for spec in ("weibull:alpha=0.7", "normal", "geometric:p=0.4", "erfi-interval"):
    rep = equivalence_audit(make_distribution(spec))
    print(f"{spec:18s} h={rep.h_verdict.direction:13s} "
          f"r={rep.r_verdict.direction:13s} "
          f"sf={rep.logconcavity['sf']:11s} audit_pass={rep.equivalence_audit_pass}")
