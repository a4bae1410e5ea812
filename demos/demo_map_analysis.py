"""Walk through the circle-map analysis of a pulsating wall.

The wall a(t) = 0.5 + 0.05 sin(2 pi t) makes a ray's round trip resonate
1:1 with the wall period.  The script estimates the rotation number of the
lift F with its rigorous Herman error bar, then lets ``analyze_map``
certify it exactly: a short orbit proposes p/q and the periodic orbit found
for it fixes rho = (p/q) T.  It prints the periodic points, their
classification and the resulting energy-growth exponent.

Run:  python3 demos/demo_map_analysis.py
"""

import numpy as np

from kgcavity import boundary, circle_dynamics as cd

motion = boundary.make_motion({"profile": "sinusoidal", "alpha": 0.5,
                               "beta": 0.05, "period": 1.0})
maps = boundary.CharacteristicMaps(motion)
print(motion)

for n in (100, 10_000, 1_000_000):
    est, hw = cd.rotation_number(maps, n)
    print("rotation estimate at n=%-8d: %.9f +- %.1e" % (n, est, hw))

analysis = cd.analyze_map(maps, rotation_iterations=100_000, max_q=20)
res = analysis.resonance
if analysis.rotation_certified:
    print("%-31s: %.9f = (%d/%d) T exactly" % (
        "certified by its periodic orbit", analysis.rotation_estimate, *res))
else:
    print("%-31s: %.9f +- %.1e" % (
        "not certified, n=%d" % analysis.rotation_iterations,
        analysis.rotation_estimate, analysis.rotation_half_width))
print("resonance: p/q =", res)

points = analysis.periodic_points
for pt in points:
    print("  periodic point x = %+.6f  DF^q = %.6f  (%s)"
          % (pt.x, pt.multiplier, pt.kind))

gamma, i0, intervals, J, m0 = cd.growth_exponent(maps, points, *res)
print("growth exponent gamma = %.6f" % gamma)
print("safe-mass heuristic sqrt(gamma/a_max) = %.6f" % m0)
print("interval union J =", [(round(a, 4), round(b, 4)) for a, b in J])

# the weighted integrals S_j contract like the attractor multiplier
print("\nS_j(t=0.3) for j = 0..6:")
vals = []
for j in range(7):
    v, err = cd.weighted_integral(maps, 0.3, j)
    vals.append(v)
    print("  S_%d = %10.6f   (quadrature check %.1e)" % (j, v, err))
mu = min(pt.multiplier for pt in points if pt.kind == "attracting")
print("successive ratios S_{j+1}/S_j approach 1/mu = %.4f:" % (1.0 / mu))
print("  ", ["%.4f" % (vals[j + 1] / vals[j]) for j in range(6)])
