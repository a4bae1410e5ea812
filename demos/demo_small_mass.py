"""Small mass as a perturbation: the massive field grows at the massless rate.

For masses below sqrt(gamma / a_max) the mass term cannot outrun the
resonant pumping: E_m(t) stays inside an exponential envelope with the
*same* exponent gamma as the massless field.  The demo solves the massive
problem by Picard iteration of the inhomogeneous characteristic solution
and compares the fitted exponents; it also shows the factorial convergence
of the iteration and the a-priori field bound.

Run:  python3 demos/demo_small_mass.py   (about a minute)
"""

import numpy as np

from kgcavity import boundary, cauchy, circle_dynamics as cd, kleingordon as kg
from kgcavity.characteristics_solver import build_initial_profile
from kgcavity.experiment import fit_exponent

motion = boundary.make_motion({"profile": "sinusoidal", "alpha": 0.5,
                               "beta": 0.012, "period": 1.0})
maps = boundary.CharacteristicMaps(motion)
analysis = cd.analyze_map(maps, rotation_iterations=100_000)
gamma = analysis.gamma
m = 0.5 * analysis.m0_heuristic
print("gamma = %.5f, safe-mass heuristic = %.5f, running at m = %.5f"
      % (gamma, analysis.m0_heuristic, m))

data = cauchy.make_bump(maps.a0, 0.15, 0.10, 1.0, "right")

# massless reference (exact)
profile = build_initial_profile(data, maps)
times = np.arange(20 * 32) / 32.0
E0 = profile.energy_series(times)
g0, _, _ = fit_exponent(times, E0, 1.0, burn_in_windows=6)

# massive run
fg = kg.picard_solve(data, maps, m, resolution=512, t_max=20.3)
print("picard converged block by block in %.2f passes per block on average, "
      "%d at most; largest change per pass:"
      % (fg.block_passes.mean(), fg.block_passes.max()))
ch, bound = fg.picard_bound()
for n, (c, b) in enumerate(zip(ch, bound)):
    print("  pass %2d: change %.3e   factorial bound %.3e" % (n, c, b))
print("field bound ratio sup|phi| e^{-a_max m^2 xi/2} / sup|phi0| = %.3f (<= 1.1)"
      % fg.field_bound_ratio())

ts, Em, share = fg.energy_series((np.arange(20 * 32) + 0.5) / 32.0)
g1, _, _ = fit_exponent(ts, Em, 1.0, burn_in_windows=6)
print("\nfitted exponents: massless %.5f | massive %.5f | predicted %.5f"
      % (g0, g1, gamma))
print("mass-term share of the energy at t=2: %.2e, at t=19: %.2e"
      % (share[np.searchsorted(ts, 2.0)] / Em[np.searchsorted(ts, 2.0)],
         share[-1] / Em[-1]))

# independent cross-check through the backward-rectangle identity
res = kg.verify_integral_identity(fg, samples=50, seed=1)
print("M-set integral identity residual: %.2e (field scale %.2f)"
      % (res, fg.sup_phi()))
