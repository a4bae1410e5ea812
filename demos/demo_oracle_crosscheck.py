"""Cross-validate the characteristic solver against a brute-force scheme.

The oracle maps the moving interval onto the unit strip (y = x / a(t)) and
marches the transformed Klein-Gordon equation with second-order finite
differences; it shares no code with the characteristic machinery.  On a
static cavity both reproduce the closed-form eigenmode; on the strongly
resonant wall sinusoidal(1, 0.1, 1) their discrepancy falls at second order
in the oracle resolution over the horizon the oracle resolves (t <= 2.4).

Run:  python3 demos/demo_oracle_crosscheck.py
"""

import math

import numpy as np

from kgcavity import boundary, cauchy, oracle_fdm as orc
from kgcavity.characteristics_solver import build_initial_profile

# 1. static cavity, massive eigenmode vs closed form
motion = boundary.make_motion({"profile": "constant", "alpha": 1.0, "period": 1.0})
data = cauchy.make_eigenmode(1.0, 1, 1.0)
om = math.sqrt(math.pi**2 + 0.25)
print("static massive eigenmode, omega = %.5f:" % om)
for ny in (128, 256, 512):
    probes = (1.0, 2.0, 2.9)
    run = orc.solve_oracle(data, motion, m=0.5, n_y=ny, t_max=3.0, times=probes)
    worst = 0.0
    for t in probes:
        ta, xs, vals = run.slice_at(t)
        worst = max(worst, float(np.max(np.abs(
            vals - np.sin(np.pi * xs) * math.cos(om * ta)))))
    print("  n_y = %4d  sup error %.3e" % (ny, worst))

# 2. moving wall, massless: oracle vs exact characteristics
motion = boundary.make_motion({"profile": "sinusoidal", "alpha": 1.0,
                               "beta": 0.1, "period": 1.0})
maps = boundary.CharacteristicMaps(motion)
data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
profile = build_initial_profile(data, maps)
print("\nmoving wall (resolved horizon t <= 2.4):")
prev = None
for ny in (128, 256, 512, 1024):
    run = orc.solve_oracle(data, motion, m=0.0, n_y=ny, t_max=2.4,
                           times=np.linspace(0.2, 2.4, 12))
    _, _, sup = orc.compare(run, profile)
    ratio = "" if prev is None else "   ratio %.2f" % (prev / sup)
    print("  n_y = %4d  sup discrepancy %.3e%s" % (ny, sup, ratio))
    prev = sup
print("ratios near 4 = second-order agreement between independent solvers")
print("\nnote: past t ~ 3 this strongly resonant wall focuses the pulse "
      "below any fixed grid scale (gamma = 0.74), which is exactly the "
      "energy-pumping mechanism the library is built to measure")
