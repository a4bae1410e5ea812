import math
import tracemalloc

import numpy as np
import pytest

from kgcavity import boundary, cauchy, kleingordon as kg
from kgcavity._quadrature import simpson
from kgcavity.characteristics_solver import OutsideDomain, build_initial_profile


# ---------------------------------------------------------------------------
# backward-characteristic geometry
# ---------------------------------------------------------------------------

def test_geometry_static_hand_iteration(static_maps):
    # F^{-1}(x) = x - 2: B(2.5, 2) = (2, 0.5), B^2 = (0.5, 0), B^3 leaves
    assert kg.depth(static_maps, 2.5, 2.0) == 2
    assert kg.time_of(2.5, 2.0) == pytest.approx(2.25)


def test_geometry_outside_domain(static_maps):
    with pytest.raises(OutsideDomain):
        kg.depth(static_maps, 1.0, 2.0)


def test_geometry_array_one_point_outside(static_maps):
    # (1, 2) has eta > xi; the other points are interior
    xi, eta = np.array([2.5, 1.0, 3.0]), np.array([2.0, 2.0, 1.0])
    with pytest.raises(OutsideDomain):
        kg.depth(static_maps, xi, eta)
    with pytest.raises(OutsideDomain):
        kg.measure_M(static_maps, xi, eta)


def test_geometry_one_point_types(strong_maps):
    # one point walks on Python floats whatever scalar type it arrives as
    for cast in (float, np.float64, np.asarray):
        xi, eta = cast(2.9), cast(1.3)
        assert type(kg.depth(strong_maps, xi, eta)) is int
        assert type(kg.measure_M(strong_maps, xi, eta)) is float
        rects = kg.union_M(strong_maps, xi, eta)
        assert len(rects) == kg.depth(strong_maps, xi, eta) + 1
        for sign, ys, zs, clipped in rects:
            assert type(sign) is float and type(clipped) is bool
            assert type(ys) is type(zs) is tuple
            assert [type(v) for v in ys + zs] == [float] * 4
    d, m = kg.depth(strong_maps, 2.9, 1.3), kg.measure_M(strong_maps, 2.9, 1.3)
    one = np.array([2.9]), np.array([1.3])
    assert kg.depth(strong_maps, *one).shape == kg.measure_M(strong_maps, *one).shape == (1,)
    assert kg.depth(strong_maps, *one)[0] == d
    assert kg.measure_M(strong_maps, *one)[0] == m
    # a scalar xi broadcasts against an array eta
    eta = np.array([1.3, 2.0, 2.8])
    depths = kg.depth(strong_maps, 2.9, eta)
    measures = kg.measure_M(strong_maps, 2.9, eta)
    assert depths.shape == measures.shape == (3,)
    assert depths.tolist() == [kg.depth(strong_maps, 2.9, e) for e in eta]
    assert np.allclose(measures, [kg.measure_M(strong_maps, 2.9, e) for e in eta],
                       rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name", ["static_maps", "tuned_maps", "strong_maps"])
def test_geometry_array_matches_per_point(name, request):
    maps = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    t = rng.uniform(0.01, 6.0, 2000)
    x = rng.uniform(0.0, 1.0, 2000) * maps.motion.a(t)
    xi, eta = t + x, t - x
    depths = kg.depth(maps, xi, eta)
    measures = kg.measure_M(maps, xi, eta)
    assert depths.shape == measures.shape == (2000,)
    # one batch runs Newton until every point has converged, so its vertices
    # may sit a few ulps from the per-point ones; depths stay equal
    assert depths.tolist() == [kg.depth(maps, a, b) for a, b in zip(xi, eta)]
    single = np.array([kg.measure_M(maps, a, b) for a, b in zip(xi, eta)])
    assert np.all(np.abs(measures - single) <= 1e-10 * single)


def _one_point_reference(maps, xi, eta):
    """(N, c, measure) of one point: the vertex list walked by scalar F^{-1}
    steps, then the array formulas on its one-column table."""
    c = [xi, eta, maps.F_inv(xi)]
    while c[-3] + c[-2] >= -1e-8:
        c.append(maps.F_inv(c[-2]))
    c = np.array(c)[:, None]
    x, e = c[:-2], c[1:-1]
    inside = (e <= x + 1e-9) & (e >= np.maximum(-x, c[2:]) - 1e-9)
    N = int(np.argmin(inside[:, 0])) - 1
    c = c[:N + 3]
    w = np.maximum(c[:-1] - c[1:], 0.0)
    n = np.arange(len(c) - 2)[:, None]
    total = np.cumsum(np.where(n < N, w[:-1] * w[1:], 0.0), axis=0)[-1]
    total = total + kg._clipped_area(c[N + 1], c[N], c[N + 2], c[N + 1])
    return N, c[:, 0].tolist(), float(total[0])


@pytest.mark.parametrize("name", ["static_maps", "tuned_maps", "strong_maps"])
def test_geometry_one_point_bit_for_bit(name, request):
    # the float walk of one point against the array formulas on its column:
    # same depth, same vertices and the same measure, to the last bit
    maps = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    t = rng.uniform(0.0, 6.0, 340)
    t[40:80] = 0.0                                 # on t = 0
    x = rng.uniform(0.0, 1.0, 340) * maps.motion.a(t)
    x[:40] = 0.0                                   # on x = 0
    clipped = 0
    for xi, eta in zip((t + x).tolist(), (t - x).tolist()):
        N, c, total = _one_point_reference(maps, xi, eta)
        assert kg.depth(maps, xi, eta) == N
        assert kg.measure_M(maps, xi, eta).hex() == total.hex()
        rects = kg.union_M(maps, xi, eta)
        assert [(s, y0.hex(), y1.hex(), z0.hex(), z1.hex(), cl)
                for s, (y0, y1), (z0, z1), cl in rects] == [
            (-1.0 if n % 2 == 0 else 1.0, c[n + 1].hex(), c[n].hex(), c[n + 2].hex(),
             c[n + 1].hex(), n == N) for n in range(N + 1)]
        clipped += c[N + 2] < -c[N + 1]
    assert clipped >= 20                           # the clipped-area branch


def test_boundary_point_measure_zero(strong_maps):
    # on x = 0 (xi = eta) the rectangles are degenerate
    for t in [0.5, 1.7, 3.1]:
        assert kg.measure_M(strong_maps, t, t) <= 1e-12
    # on t = 0 (xi = -eta) M is a single point
    assert kg.measure_M(strong_maps, 0.4, -0.4) <= 1e-12


def test_backward_walk_same_bits_for_every_scalar_type(strong_maps):
    # one point given as floats, np.float64 or 0-d arrays walks on floats
    for t, x in ((0.7, 0.2), (3.1, 0.55), (9.4, 0.9)):
        walks = [kg._backward_walk(strong_maps, kind(t + x), kind(t - x))
                 for kind in (float, np.float64, np.array)]
        for c, n in walks:
            assert type(n) is int and all(type(v) is float for v in c)
        assert len({(tuple(v.hex() for v in c), n) for c, n in walks}) == 1


def test_measure_M_bound_random(strong_maps):
    rng = np.random.default_rng(17)
    a_max = strong_maps.motion.a_max
    for _ in range(500):
        t = rng.uniform(0.01, 6.0)
        x = rng.uniform(0.0, float(strong_maps.motion.a(t)))
        xi, eta = t + x, t - x
        assert kg.measure_M(strong_maps, xi, eta) <= 2 * a_max * kg.time_of(xi, eta) + 1e-9


def test_theta_alternating_signs(static_maps):
    rects = kg.union_M(static_maps, 2.5, 2.0)
    signs = [r[0] for r in rects]
    assert signs == [-1.0, 1.0, -1.0]
    assert rects[-1][3] is True         # last one clipped
    # F^{-1}(x) = x - 2: Q(B^n) = [c_{n+1}, c_n] x [c_{n+2}, c_{n+1}] on the
    # backward coordinates 2.5, 2, 0.5, 0, -1.5
    assert [(r[1], r[2]) for r in rects] == [
        ((2.0, 2.5), (0.5, 2.0)), ((0.5, 2.0), (0.0, 0.5)), ((0.0, 0.5), (-1.5, 0.0))]
    assert [r[3] for r in rects] == [False, False, True]
    # 0.75 + 0.75 + the clipped triangle 0.125
    assert kg.measure_M(static_maps, 2.5, 2.0) == 1.625


def _clipped_area_reference(y0, y1, z0, z1):
    """Area of [y0,y1]x[z0,z1] with z >= -y imposed, one branch per case."""
    if y1 <= y0:
        return 0.0
    if z0 >= -y0:
        return max(y1 - y0, 0.0) * max(z1 - z0, 0.0)
    y0 = max(y0, -z1)
    if y1 <= y0:
        return 0.0
    ysplit = min(max(-z0, y0), y1)
    area = 0.0
    if ysplit > y0:
        area += 0.5 * ((z1 + y0) + (z1 + ysplit)) * (ysplit - y0)
    if y1 > ysplit:
        area += (z1 - z0) * (y1 - ysplit)
    return area


def test_clipped_area_matches_branchwise_reference():
    # random corners, half of them on a coarse grid so that the ties between
    # the branches (y1 = y0, z0 = -y0, ysplit = y0, ...) occur
    rng = np.random.default_rng(5)
    v = rng.uniform(-3.0, 3.0, (4, 4000))
    v[:, ::2] = np.round(2.0 * v[:, ::2]) / 2.0
    got = 0.0 + kg._clipped_area(*v)       # measure_M adds it to a sum >= +0
    want = [0.0 + _clipped_area_reference(*col) for col in v.T.tolist()]
    assert [float(g).hex() for g in got] == [w.hex() for w in want]


# ---------------------------------------------------------------------------
# picard solver
# ---------------------------------------------------------------------------

def test_picard_zero_mass_shortcut(tuned_maps):
    # m = 0 takes the general march: every block starts from the massless
    # field, its one pass changes nothing, and every band node is the exact
    # massless solution at that node
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.0, resolution=256, t_max=2.0)
    lat = fg.lattice
    assert fg.changes == [0.0]
    assert fg.block_passes.tolist() == [1] * len(list(lat.blocks()))
    assert fg.picard_bound_ok()
    r, c = np.nonzero(np.arange(lat.Wmax) >= lat.cmin[:, None])
    i = lat.n0 + r
    j = i - (lat.Wmax - 1 - c)                 # column c of row i is eta = s_j
    exact = build_initial_profile(data, tuned_maps).eval_phi(lat.s[i], lat.s[j])
    assert np.array_equal(fg.phi[r, c], exact)


def test_picard_boundary_samples_exact_zero(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.3, resolution=96, t_max=2.0)
    lat = fg.lattice
    for r in range(0, lat.R, 7):
        assert fg.phi[r, lat.Wmax - 1] == 0.0     # diagonal x = 0


def test_picard_initial_trace(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "standing")
    fg = kg.picard_solve(data, tuned_maps, m=0.3, resolution=96, t_max=2.0)
    t, xs, vals = fg.phi_slice(0.0)
    assert t == 0.0
    assert np.max(np.abs(vals - np.asarray(data.phi0(xs)))) <= 1e-10


def test_picard_eigenmode_convergence_order(static_maps):
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    om = math.sqrt(math.pi**2 + 0.25)
    errs = []
    for res in (64, 128, 256):
        fg = kg.picard_solve(data, static_maps, m=0.5, resolution=res, t_max=2.0)
        worst = 0.0
        for t in (0.7, 1.3, 1.9):
            ta, xs, vals = fg.phi_slice(t)
            worst = max(worst, float(np.max(np.abs(
                vals - np.sin(np.pi * xs) * math.cos(om * ta)))))
        errs.append(worst)
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_picard_change_sequence_dominated(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.5, resolution=128, t_max=3.0)
    ch, bd = fg.picard_bound()
    assert len(ch) >= 3
    assert np.all(ch[1:] <= bd[1:] + 1e-13 * fg.sup_phi0)
    # eventually strictly decreasing
    assert np.all(np.diff(ch[2:]) < 0)
    # converged no later than the n_max the factorial bound predicts:
    # n_pred = first n with change_0 * base^n / n! <= tol, with the block
    # extent dxi_block of picard_bound() in the base
    dxi_block = fg.lattice.block * fg.lattice.delta
    base = 0.5 * tuned_maps.motion.a_max * 0.5**2 * dxi_block
    term = ch[0]
    n_pred = 0
    while term > fg.tol_abs and n_pred < 1000:
        n_pred += 1
        term *= base / n_pred
    assert fg.iterations <= n_pred


# phi nodes recorded at tol 1e-14 with the global sweep that preceded the
# block-marched one (each sweep ran over the whole band until its slowest
# rows converged); both reach the same discrete fixed point to about tol.
# Passes and changes are those of the block-marched solve at tol 1e-14, with
# each block after the first seeded from the block below and stopped on its
# contraction bound:
# (maps fixture, bump, resolution, passes, changes, (r, c, phi[r, c]) nodes).
# Resolutions 3 and 4 reach back only 5 and 7 prolongation columns, fewer
# than one block of rows, so they run with clamped blocks.
_PICARD_PINS = [
    ("tuned_maps", (0.5, 0.2, 0.1), 4, 6,
     [0.005703440286156758, 1.959098283277295e-05, 9.80798844623515e-08,
      5.209719825677306e-10, 1.7999790026534956e-12, 4.2782617726278005e-15],
     [(8, 0, 0.0), (8, 2, 0.0013167021465250585),
      (8, 5, 0.004163829452629424), (8, 7, 0.9576053904948713),
      (14, 0, -0.0010111389483413676), (14, 2, -0.00966696739949576),
      (14, 5, -0.005258584387458686), (14, 7, -0.002990656655780822),
      (21, 0, 0.0005307216056265541), (21, 2, 0.0015720516683965606),
      (21, 5, -0.0020164051555810565), (21, 7, -0.0006401918589618703),
      (27, 1, 0.0003183405192542925), (27, 3, 0.002175854997979407),
      (27, 5, -0.005271454127754856), (27, 7, -0.00045598473360350194),
      (34, 1, 0.00010714962160691694), (34, 3, 0.0007667627909626642),
      (34, 5, 0.0027306244331747895), (34, 7, -0.0006612179988364499)]),
    ("tuned_maps", (0.5, 0.2, 0.1), 96, 5,
     [0.0024417745031516946, 5.420629402674848e-06, 5.040426298563716e-09,
      2.531308496145357e-12, 1.4903985164071987e-15],
     [(170, 4, -0.014394926913854847), (170, 73, -0.9990803730025712),
      (170, 141, -0.9973907584357814), (170, 210, -0.005560481557887644),
      (297, 15, 8.92241481174102e-06), (297, 80, 0.8095577786063638),
      (297, 145, -0.002281407391702919), (297, 210, -3.0557223805910896e-05),
      (424, 39, 3.6491823998097877e-05), (424, 96, 0.0022971098595026096),
      (424, 153, 0.20501058058222404), (424, 210, -5.169971000810566e-05),
      (551, 2, 4.5981362939470204e-06), (551, 71, -0.00553817270895873),
      (551, 141, -0.0027706760030747784), (551, 210, -7.312502504996818e-05),
      (679, 16, 1.0729276212927407e-05), (679, 81, 0.002814527411052038),
      (679, 145, -0.001814793849889893), (679, 210, -2.1177469808246936e-05)]),
    ("strong_maps", (1.0, 0.5, 0.25), 3, 7,
     [0.004717243202275581, 8.243615141964112e-05, 8.000834670882952e-07,
      5.468116741087076e-09, 2.8284474155176875e-11, 1.2327205228812588e-13,
      4.79217360238593e-16],
     [(4, 0, 0.17000436073008426), (4, 2, -0.004672334670243396),
      (4, 3, -0.004458200603081569), (4, 5, -0.0023602626259162963),
      (7, 0, 0.00012599529478633564), (7, 2, 0.0022153598976226087),
      (7, 3, 0.004539892372719213), (7, 5, -0.0001326576810201271),
      (11, 1, 2.2020872470973813e-06), (11, 2, 0.00016704374572332916),
      (11, 4, 0.002391667010111356), (11, 5, 0.003266562902656693),
      (14, 1, 0.00018479699497235487), (14, 2, 0.0010275595066577066),
      (14, 4, -0.002213066556548639), (14, 5, -0.0020954394217241505),
      (18, 0, 6.352747104407253e-22), (18, 2, 0.002245518632779456),
      (18, 3, 0.0023903598423576176), (18, 5, -6.0767471199579744e-05)]),
]


@pytest.mark.parametrize("pin", _PICARD_PINS, ids=["tuned-4", "tuned-96", "strong-3"])
def test_picard_pinned_values(pin, request):
    fixture, (a0, center, width), res, passes, changes, nodes = pin
    maps = request.getfixturevalue(fixture)
    data = cauchy.make_bump(a0, center, width, 1.0, "right")
    fg = kg.picard_solve(data, maps, m=0.4, resolution=res, t_max=3.0, tol=1e-14)
    assert fg.iterations == passes
    # the absolute floor allows last-bit differences of G between libm builds
    assert fg.changes == pytest.approx(changes, rel=1e-12, abs=1e-14 * fg.sup_phi0)
    r, c, want = (np.array(v) for v in zip(*nodes))
    assert np.max(np.abs(fg.phi[r.astype(int), c.astype(int)] - want)) \
        <= 1e-12 * fg.sup_phi0


def test_picard_peak_memory_one_band_array(tuned_maps):
    # phi is the only band-sized array of a solve; the rest is block-sized
    data = cauchy.make_bump(0.5, 0.2, 0.1, 1.0, "right")
    tracemalloc.start()
    try:
        fg = kg.picard_solve(data, tuned_maps, m=0.4, resolution=128, t_max=3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band = 8 * fg.lattice.R * fg.lattice.Wmax
    assert peak <= 2 * band            # measured 1.43; a second band array exceeds it


def test_picard_block_passes_flat_in_horizon(tuned_maps):
    # a block iterates with the rows below it final, so its pass count does not
    # grow with the horizon, and the bound holds with the block's xi extent
    data = cauchy.make_bump(0.5, 0.2, 0.1, 1.0, "right")
    runs = [kg.picard_solve(data, tuned_maps, m=0.4, resolution=64, t_max=t)
            for t in (3.0, 12.0)]
    short, long_ = (int(fg.block_passes.max()) for fg in runs)
    assert long_ <= short + 1
    for fg in runs:
        assert fg.iterations == len(fg.changes) == int(fg.block_passes.max())
        ch, bd = fg.picard_bound()
        assert np.all(ch[1:] <= bd[1:] + 1e-13 * fg.sup_phi0)


def _reference_march(lat, profile, m, tol=1e-9, n_max=40, probe=None):
    """The block-marched Picard iteration with one 2-D operation per step of
    a pass, D kept sheared so that its cumulation adds whole rows (and its
    seed from the block below is one broadcast over them), and each new
    iterate copied over the old one: the reference the march must match bit
    for bit.  Returns (band, changes, passes per block, largest change ratio
    per block).  With a list ``probe``, each block first appends (the sup-norm
    Lipschitz constant of its pass, measured column by column, and q)."""
    n0, W, B, h = lat.n0, lat.Wmax, lat.block, 0.5 * lat.delta
    Gl0, G0rows = lat.g_table()
    Gl0[:] = profile.G(lat.s)
    Gl, Grows = lat.g_table()

    def fill(G, r0, out, add=None):
        win = G[r0:r0 + len(out)]
        np.subtract(win, win[:, -1:], out=out)
        if add is not None:
            out += add
        kg._clear_left(out, lat.cmin[r0:r0 + len(out)])

    phi = np.empty((lat.R, W))
    fill(G0rows, 0, phi)
    tol_abs = tol * max(float(phi.max()), -float(phi.min()), 1e-300)
    w = 0.25 * m * m * h * h
    corr = np.zeros_like(Gl0)
    Cb = np.zeros((B + 1, W))
    # Sb[r, c + r] = D[r, c]: a diagonal (fixed eta) of D is a column of Sb
    Sb = np.zeros((B + 1, W + B))
    Dv = np.lib.stride_tricks.as_strided(Sb, (B + 1, W), (Sb.strides[0] + 8, 8))
    step = np.zeros(W + B)          # last step of D down each diagonal of Sb
    new = np.empty((B, W))
    restart = np.concatenate([[W - 1], lat.cmin[:-1] - 1])
    changes, passes, ratios, cumE, stepE, change = [], [], [], 0.0, 0.0, 0.0

    def assemble(r0, r1, D, out):
        p = slice(max(r0 - n0 - 1, 0), max(r1 - n0 - 1, 0))
        jj, js = lat.j_pro[p], lat.jstar[p]
        if jj.size:
            c1 = W - 1 - (jj - js)
            D1 = D[jj - n0 - r0, c1]
            D2 = D[jj - n0 - r0, np.minimum(c1 + 1, W - 1)]
            tri = D1 - lat.u[p] * (D2 - D1) / lat.delta
            corr[jj] = (corr[js - 1] + lat.lam[p] * (corr[js] - corr[js - 1])
                        + tri)
        lo = max(n0 + r0 + 1 - W, 0)
        np.add(Gl0[lo:n0 + r1], corr[lo:n0 + r1], out=Gl[lo:n0 + r1])
        fill(Grows, r0, out, D)

    for r0, r1 in lat.blocks():
        b = r1 - r0
        old, out, C, D = phi[r0:r1], new[:b], Cb[1:b + 1], Dv[1:b + 1]
        k = np.arange(max(r0, 1), min(r1, n0 + 1))
        spread = 2.0 * w * (2 * b - 1)
        corr_q = ((spread * W + 4.0 * w * (W - 1) if r1 > n0 + 1 else 0.0)
                  + w * float(8 * k.sum() - 4 * k.size))
        q = spread * (W - 1) + 2.0 * corr_q
        stop = tol_abs * (1.0 - q) / q if q < 0.5 else tol_abs
        if r0:
            np.multiply(np.arange(1.0, b + 1)[:, None], step, out=Sb[1:b + 1])
            Sb[1:b + 1] += Sb[0]
            if k.size:
                corr[n0 + k] = corr[n0 - k] = cumE + (k - (r0 - 1)) * stepE
            assemble(r0, r1, D, old)

        def one_pass():
            """out = the pass over the rows old; returns the block's
            initial-interval (run, E), or None when it has none."""
            np.add(old[:, :-1], old[:, 1:], out=C[:, :-1])
            np.cumsum(C[:, -2::-1], axis=1, out=C[:, -2::-1])
            np.add(Cb[:b, 1:], C[:, :-1], out=D[:, :-1])
            D[:, :-1] *= w
            kg._clear_left(D, restart[r0:r1])
            D[:, -1] = 0.0
            for i in range(1, b + 1):
                np.add(Sb[i - 1], Sb[i], out=Sb[i])
            sums = None
            if k.size:
                E = Cb[k - r0 + 1, W - 1 - 2 * k] + Cb[k - r0, W + 1 - 2 * k]
                run = np.cumsum(np.concatenate([[cumE], w * E]))[1:]
                corr[n0 + k] = corr[n0 - k] = run
                sums = run, E
            assemble(r0, r1, D, out)
            return sums

        if probe is not None:
            # the pass is affine in the block's band nodes: the sup-norm
            # Lipschitz constant is the largest row sum of |A|, whose columns
            # are the responses to a unit step of one node
            x0 = old.copy()
            one_pass()
            y0, norm = out.copy(), np.zeros(out.shape)
            for j in np.flatnonzero(np.arange(W) >= lat.cmin[r0:r1, None]):
                old[...] = x0
                old.flat[j] += 1.0
                one_pass()
                norm += np.abs(out - y0)
            old[...] = x0
            probe.append((float(norm.max()), q))
        ratio = 0.0
        for n in range(n_max):
            sums = one_pass()
            old -= out
            last, change = change, max(float(old.max()), -float(old.min()))
            if n:
                ratio = max(ratio, change / last)
            old[...] = out
            if n == len(changes):
                changes.append(0.0)
            changes[n] = max(changes[n], change)
            if change <= stop:
                break
        passes.append(n + 1)
        ratios.append(ratio)
        Cb[0] = Cb[b]
        np.subtract(Sb[b, b:b + W], Sb[b - 1, b:b + W], out=step[:W])
        Dv[0] = Dv[b]
        if k.size:
            run, E = sums
            cumE, stepE = run[-1], w * E[-1]
    return phi, changes, passes, ratios


@pytest.mark.parametrize("fixture, m, res", [("tuned_maps", 0.4, 96),
                                             ("strong_maps", 0.6, 40)])
def test_picard_march_matches_reference(fixture, m, res, request):
    # both routes of the march give the reference's band, changes and passes
    # bit for bit, over odd and even pass counts and a short last block
    maps = request.getfixturevalue(fixture)
    data = cauchy.make_bump(maps.a0, 0.5 * maps.a0, 0.2 * maps.a0, 1.0, "right")
    fg = kg.picard_solve(data, maps, m, resolution=res, t_max=4.0)
    lat = fg.lattice
    phi, changes, passes, ratios = _reference_march(lat, fg.profile, m)
    assert {p % 2 for p in passes} == {0, 1} and lat.R % lat.block != 0
    assert fg.phi.tobytes() == phi.tobytes()
    assert fg.changes == changes and fg.block_passes.tolist() == passes
    assert fg.ratios.tolist() == ratios
    row_sup = np.maximum(phi.max(axis=1), -phi.min(axis=1))
    assert fg.row_sup.tobytes() == row_sup.tobytes()
    rows = []
    run = kg._march(lat, fg.profile, m, 1e-9, 40,
                    on_block=lambda r0, r1, block: rows.append(block.copy()))
    assert np.concatenate(rows).tobytes() == phi.tobytes()
    assert run.changes == changes and run.block_passes.tolist() == passes


def test_picard_not_converged(static_maps):
    data = cauchy.make_eigenmode(1.0, 1, 1.0)
    with pytest.raises(kg.NotConverged) as exc_info:
        kg.picard_solve(data, static_maps, m=1.0, resolution=64, t_max=2.0,
                        n_max=2)
    assert len(exc_info.value.changes) == 2


def _march_case(fixture, res, t_max, bump, request):
    """(lattice, profile) on an a(0)/res lattice up to t_max of the bump
    (a0, center, width), or of the one scaled to the wall when it is None;
    the fixture "example" is the wall of demos/example.cfg."""
    maps = _example_wall() if fixture == "example" else request.getfixturevalue(fixture)
    a0, center, width = bump or (maps.a0, 0.5 * maps.a0, 0.2 * maps.a0)
    data = cauchy.make_bump(a0, center, width, 1.0, "right")
    return kg._Lattice(maps, res, t_max), build_initial_profile(data, maps)


# (maps fixture, m, resolution, t_max, bump); the last is simulate's lattice
# on demos/example.cfg
_EXAMPLE_BUMP = (0.5, 0.15, 0.1)
_SIMULATE_CASE = ("example", 0.27, 512, 12.0 + 1.0 / 16.0, _EXAMPLE_BUMP)


@pytest.mark.parametrize("case", [
    ("tuned_maps", 0.4, 96, 4.0, None),
    ("strong_maps", 0.6, 40, 4.0, None),
    ("example", 0.6, 256, 12.0, _EXAMPLE_BUMP),
    _SIMULATE_CASE,
], ids=["tuned-96", "strong-40", "example-256", "simulate-512"])
def test_picard_contraction_bounds_ratios(case, request):
    # q, derived from the lattice, bounds the pass map of each block, so it
    # bounds every measured change[n + 1] / change[n] of that block
    fixture, m, res, t_max, bump = case
    lat, profile = _march_case(fixture, res, t_max, bump, request)
    run = kg._march(lat, profile, m, 1e-9, 40)
    assert len(run.ratios) == len(run.contraction) == len(run.block_passes)
    measured = run.block_passes > 1
    assert measured.any() and np.all(run.ratios[measured] > 0.0)
    assert np.all(run.ratios <= run.contraction)


@pytest.mark.parametrize("case", [("tuned_maps", 0.4, 16, 3.0, None),
                                  ("strong_maps", 0.6, 12, 3.0, None),
                                  ("tuned_maps", 0.4, 4, 3.0, None)],
                         ids=["tuned-16", "strong-12", "tuned-4-clamped"])
def test_picard_contraction_bounds_pass_norm(case, request):
    # q bounds the Lipschitz constant of every block's pass in every
    # direction, not only along the iterates: the reference measures it node
    # by node on small lattices (initial-interval, spanning, prolongation and
    # clamped blocks); it read at most 0.25 q
    fixture, m, res, t_max, bump = case
    lat, profile = _march_case(fixture, res, t_max, bump, request)
    probe = []
    _reference_march(lat, profile, m, probe=probe)
    norm, q = (np.array(v) for v in zip(*probe))
    assert q.tolist() == kg._march(lat, profile, m, 1e-9, 40).contraction.tolist()
    assert np.all(norm > 0.0) and np.all(norm <= q)


@pytest.mark.parametrize("case", [("tuned_maps", 0.4, 96, 4.0, None), _SIMULATE_CASE],
                         ids=["tuned-96", "simulate-512"])
def test_picard_tol_bounds_distance_to_fixed_point(case, request):
    # stopped on the contraction bound, a tol = 1e-9 march lies within tol_abs
    # of the tol = 1e-14 one everywhere on the lattice
    fixture, m, res, t_max, bump = case
    lat, profile = _march_case(fixture, res, t_max, bump, request)
    phi = np.empty((lat.R, lat.Wmax))
    run = kg._march(lat, profile, m, 1e-9, 40, phi=phi)
    gap = []
    kg._march(lat, profile, m, 1e-14, 40, on_block=lambda r0, r1, rows:
              gap.append(float(np.max(np.abs(rows - phi[r0:r1])))))
    assert 0.0 < max(gap) <= run.tol_abs
    assert run.picard_bound_ok()
    if case is _SIMULATE_CASE:
        # 660 passes when every block started from phi^(0) and stopped on
        # change <= tol_abs, 435 with seeds alone, 356 with the bound
        assert run.block_passes.sum() <= 400


def test_picard_bufsize_restored(static_maps, request):
    # the march runs with a 1024-element ufunc buffer, scoped to the call: the
    # caller's buffer size (here 4096) is back after a return and a raise
    data = cauchy.make_bump(1.0, 0.5, 0.25, 1.0, "right")
    lat, profile = _march_case("static_maps", 32, 1.0, None, request)
    seen = []
    with np.errstate():
        np.setbufsize(4096)
        kg._march(lat, profile, 0.5, 1e-9, 40,
                  on_block=lambda r0, r1, rows: seen.append(np.getbufsize()))
        assert set(seen) == {1024} and np.getbufsize() == 4096
        kg.picard_solve(data, static_maps, m=0.5, resolution=32, t_max=1.0)
        assert np.getbufsize() == 4096
        kg.picard_energy_series(data, static_maps, 0.5, [0.5], resolution=32,
                                t_max=1.0)
        assert np.getbufsize() == 4096
        with pytest.raises(kg.NotConverged):
            kg.picard_solve(data, static_maps, m=1.0, resolution=32, t_max=1.0,
                            n_max=1)
        assert np.getbufsize() == 4096


def test_picard_incompatible_data(strong_maps):
    from kgcavity.characteristics_solver import IncompatibleData
    with pytest.raises(IncompatibleData):
        kg.picard_solve(cauchy.make_eigenmode(strong_maps.a0), strong_maps,
                        m=0.1, resolution=64, t_max=1.0)


def test_field_bound(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    for m in (0.2, 0.5):
        fg = kg.picard_solve(data, tuned_maps, m=m, resolution=96, t_max=3.0)
        assert fg.field_bound_ratio() <= 1.1


def test_grid_convergence_uniqueness_probe(tuned_maps):
    # runs at r and 2r converge to each other at O(r^2); probe times are
    # exactly representable on every lattice so no time-snap enters
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    slices = (0.75, 1.5)
    sols = {}
    for res in (64, 128, 256):
        fg = kg.picard_solve(data, tuned_maps, m=0.4, resolution=res, t_max=2.0)
        sols[res] = [fg.phi_slice(t) for t in slices]
    def diff(res_a, res_b):
        worst = 0.0
        for (ta, xa, va), (tb, xb, vb) in zip(sols[res_a], sols[res_b]):
            assert abs(ta - tb) <= 1e-12
            vi = np.interp(xa, xb, vb)
            worst = max(worst, float(np.max(np.abs(va - vi))))
        return worst
    d1 = diff(64, 128)
    d2 = diff(128, 256)
    assert d2 < d1
    assert d1 / d2 > 2.0


def test_pde_mixed_difference_residual(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    m = 0.5
    fg = kg.picard_solve(data, tuned_maps, m=m, resolution=128, t_max=2.0)
    lat = fg.lattice
    # interior band nodes with all four diagonal neighbors present
    rng = np.random.default_rng(4)
    worst = 0.0
    count = 0
    while count < 300:
        r = int(rng.integers(2, lat.R - 2))
        i = lat.n0 + r
        jlo = lat.jmin[i]
        if jlo + 3 >= i - 3:
            continue
        j = int(rng.integers(jlo + 3, i - 3))
        if not all(lat.jmin[i + di] <= j - 1 for di in (-1, 0, 1)):
            continue
        c = lat.Wmax - 1 - (i - j)
        d = lat.delta
        mixed = (fg.phi[r + 1, c] - fg.phi[r + 1, c - 2]
                 - fg.phi[r - 1, c + 2] + fg.phi[r - 1, c]) / (4 * d * d)
        # (r+1, c) is (i+1, j+1); (r+1, c-2) is (i+1, j-1), etc.
        val = fg.phi[r, c]
        worst = max(worst, abs(mixed + 0.25 * m**2 * val))
        count += 1
    # stencil truncation ~ d^2 * phi'''' scale
    assert worst <= 0.05


def test_energy_massless_cross_check(tuned_maps):
    # the slice energy of an m = 0 run matches the exact massless formula;
    # combined tolerance is the (k_eff delta)^2 stencil scale, measured
    # 1.7e-3 at resolution 256 and 4.1e-4 at 512 (2nd order)
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.0, resolution=256, t_max=3.0)
    prof = build_initial_profile(data, tuned_maps)
    ts, E, share = fg.energy_series([0.5, 1.25, 2.3])
    assert share.tolist() == [0.0] * 3
    for ta, e in zip(ts.tolist(), E.tolist()):
        assert e == pytest.approx(prof.energy(ta), rel=4e-3)


def test_energy_mass_share_bound(tuned_maps):
    # (m^2/2) int phi^2 <= (m^2/2) a_max c^2 e^{a_max m^2 (t + a_max)}
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    m = 0.5
    fg = kg.picard_solve(data, tuned_maps, m=m, resolution=128, t_max=3.0)
    amax = tuned_maps.motion.a_max
    c = fg.sup_phi0 * 1.1
    ts, _, share = fg.energy_series([0.8, 1.9, 2.7])
    assert len(ts) == 3
    for ta, Em in zip(ts.tolist(), share.tolist()):
        bound = 0.5 * m**2 * amax * c**2 * math.exp(amax * m**2 * (ta + amax))
        assert Em <= bound


def test_verify_integral_identity_massless(tuned_maps):
    # m = 0: residual is pure interpolation error (measured 7e-4 at res 256,
    # 2.6e-4 at 512; wall cells contribute the O(delta) piece)
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.0, resolution=256, t_max=2.5)
    res = kg.verify_integral_identity(fg, samples=60, seed=2)
    assert res <= 2.5e-3


def test_verify_integral_identity_massive():
    # the example wall (a 1:1 resonance): with the right mass term the
    # residual falls about 4x per doubling (measured 1.4e-3 -> 3.8e-4, the
    # interpolation error of interp_phi); scaling the mass term by 0.9 stalls
    # it near 0.1 max|mass term| (1.8e-3 -> 1.1e-3, ratio 1.7), so a wrong
    # mass correction of that size fails both bounds
    maps = boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0}))
    data = cauchy.make_bump(0.5, 0.15, 0.10, 1.0, "right")
    res = {}
    for resolution in (128, 256):
        fg = kg.picard_solve(data, maps, m=0.4, resolution=resolution, t_max=2.5,
                             tol=1e-9)
        res[resolution] = kg.verify_integral_identity(fg, samples=60, seed=2)
    # the mass term at the identity's own points is phi - phi0 there, up to
    # the residual
    xi, eta = kg._sample_points(fg, 60, 2, lambda t, x, margin: x > margin)
    mass = np.max(np.abs(fg.interp_phi(xi, eta) - fg.profile.eval_phi(xi, eta)))
    print("M-identity residual %.3e (res 128), %.3e (res 256), max|mass term| %.3e"
          % (res[128], res[256], mass))
    assert res[128] / res[256] >= 2.5
    assert res[256] <= 0.1 * mass


def test_reflection_identity_massive(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.4, resolution=256, t_max=2.5)
    res = kg.reflection_residual(fg, samples=200, seed=5)
    assert res <= 8e-3 * max(fg.sup_phi(), 1.0)   # measured 1.8e-3


def test_slice_unavailable_near_horizon(tuned_maps):
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.3, resolution=64, t_max=1.5)
    with pytest.raises(kg.SliceUnavailable):
        fg.phi_slice(1.6)
    # energy_series drops the slice past the horizon and keeps the others
    ts, E, share = fg.energy_series([0.5, 1.6, 1.0])
    assert ts.tolist() == [fg.phi_slice(t)[0] for t in (0.5, 1.0)]
    assert E.shape == share.shape == (2,)


def test_energy_components_additive_nonnegative(tuned_maps):
    # the kinetic, gradient and mass parts of each slice, computed one slice
    # at a time from the band's nodes, are nonnegative, and energy_series
    # returns their sum and the mass part
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.4, resolution=128, t_max=2.0)
    lat = fg.lattice
    ts, E, share = fg.energy_series([0.4, 1.1, 1.8])
    L, n = lat.slice_plan([0.4, 1.1, 1.8])
    assert len(ts) == len(L) == 3
    for s in range(3):
        t, x, phi = fg.phi_slice(ts[s])
        assert t == ts[s] and len(x) == n[s, 0]
        kin, grad, mass = (float(p[0]) for p in kg._slice_energy(
            phi[None], fg._gather(L[s:s + 1] + 2, n[s, 1]),
            fg._gather(L[s:s + 1] - 2, n[s, 2]), ts[s:s + 1], x[-1:], lat.delta,
            fg.m, tuned_maps.motion))
        assert kin >= 0 and grad >= 0 and mass >= 0
        assert E[s] == kin + grad + mass
        assert share[s] == mass


def _slice_energy_reference(phi_c, phi_p, phi_m, t, x_end, d, m, motion):
    """One slice at a time, node by node, as _slice_energy computes a row."""
    n = len(phi_c)
    phi_x = np.zeros(n)
    k = np.arange(2, n - 2)
    phi_x[k] = (-phi_c[k + 2] + 8.0 * phi_c[k + 1]
                - 8.0 * phi_c[k - 1] + phi_c[k - 2]) / (12.0 * d)
    c_edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    phi_x[0] = np.dot(c_edge, phi_c[0:5]) / d
    phi_x[1] = (-3.0 * phi_c[0] - 10.0 * phi_c[1] + 18.0 * phi_c[2]
                - 6.0 * phi_c[3] + phi_c[4]) / (12.0 * d)
    phi_x[n - 2] = (3.0 * phi_c[n - 1] + 10.0 * phi_c[n - 2] - 18.0 * phi_c[n - 3]
                    + 6.0 * phi_c[n - 4] - phi_c[n - 5]) / (12.0 * d)
    phi_x[n - 1] = -np.dot(c_edge, phi_c[n - 1:n - 6:-1]) / d
    phi_t = np.zeros(n)
    n_ct = min(n, len(phi_p), len(phi_m))
    k = np.arange(1, n_ct)
    phi_t[k] = (phi_p[k] - phi_m[k]) / (2.0 * d)
    da_t = float(motion.da(t))
    for kk in range(n_ct, n):
        if kk < len(phi_m):
            phi_t[kk] = (phi_c[kk] - phi_m[kk]) / d
        else:
            phi_t[kk] = -da_t * phi_x[kk]
    kin_dens, grad_dens = 0.5 * phi_t**2, 0.5 * phi_x**2
    mass_dens = 0.5 * m**2 * phi_c**2
    E = [float(simpson(dens, dx=d)) for dens in (kin_dens, grad_dens, mass_dens)]
    gap = float(motion.a(t)) - x_end
    if gap > 1e-12:
        px_w = (0.0 - phi_c[n - 1]) / gap if gap > 0.1 * d else phi_x[n - 1]
        E[0] += 0.5 * gap * (kin_dens[-1] + 0.5 * (da_t * px_w) ** 2)
        E[1] += 0.5 * gap * (grad_dens[-1] + 0.5 * px_w**2)
        E[2] += 0.5 * gap * mass_dens[-1]
    return E


@pytest.mark.parametrize("n_p, n_m", [(p, q) for p in (11, 12, 13) for q in (11, 12, 13)])
def test_slice_energy_batch_matches_one_slice(tuned_maps, n_p, n_m):
    # every length triple around n = 12, wall cells wide, narrow and absent
    rng = np.random.default_rng(100 * n_p + n_m)
    d, m, n = 0.01, 0.4, 12
    t = np.array([1.0, 1.3, 2.2])
    x_end = np.asarray(tuned_maps.motion.a(t)) - np.array([0.5, 0.05, 0.0]) * d
    phi_c, phi_p, phi_m = (rng.standard_normal((3, k)) for k in (n, n_p, n_m))
    got = kg._slice_energy(phi_c, phi_p, phi_m, t, x_end, d, m, tuned_maps.motion)
    for s in range(3):
        want = _slice_energy_reference(phi_c[s], phi_p[s], phi_m[s], float(t[s]),
                                       x_end[s], d, m, tuned_maps.motion)
        assert [float(g[s]).hex() for g in got] == [w.hex() for w in want]


def _example_wall():
    return boundary.CharacteristicMaps(boundary.make_motion(
        {"profile": "sinusoidal", "alpha": 0.5, "beta": 0.012, "period": 1.0}))


@pytest.mark.parametrize("m", [0.0, 0.4])
def test_streamed_energies_match_band(tuned_maps, m):
    # the streamed route keeps no band and returns what the band gives, bit for
    # bit; t = 0.001 has no slice t - delta, t = 9 lies past the horizon
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    want = np.concatenate([[0.001], (np.arange(64) + 0.5) / 16.0, [9.0]])
    kw = dict(resolution=96, t_max=4.0 + 1.0 / 8.0)
    fg = kg.picard_solve(data, tuned_maps, m, **kw)
    band = fg.energy_series(want)
    run, streamed = kg.picard_energy_series(data, tuned_maps, m, want, **kw)
    assert len(band[0]) == len(want) - 2
    assert [a.tobytes() for a in streamed] == [a.tobytes() for a in band]
    assert run.changes == fg.changes
    assert run.block_passes.tolist() == fg.block_passes.tolist()
    assert run.iterations == fg.iterations
    assert run.sup_phi().hex() == fg.sup_phi().hex()
    assert run.field_bound_ratio().hex() == fg.field_bound_ratio().hex()
    assert run.picard_bound_ok() is fg.picard_bound_ok() is True
    if m > 0:
        # blocks of odd and of even pass counts end in either buffer of the
        # march's swap, and a short last block takes its flat views over
        # fewer rows (passes 1 to 3, R = 902, block 64)
        assert {p % 2 for p in fg.block_passes.tolist()} == {0, 1}
        assert fg.lattice.R % fg.lattice.block != 0


def test_streamed_energies_peak_memory():
    # the example wall at res 256 over 12 periods: the band is 27 MB, the
    # streamed route holds one block and the slices read (measured 4.5 MB)
    data = cauchy.make_bump(0.5, 0.15, 0.1, 1.0, "right")
    want = (np.arange(384) + 0.5) / 32.0
    tracemalloc.start()
    try:
        run, (ts, E, share) = kg.picard_energy_series(
            data, _example_wall(), 0.27, want, resolution=256, t_max=12.0 + 1.0 / 16.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 384
    assert peak < 8 * run.lattice.R * run.lattice.Wmax / 4


@pytest.mark.parametrize("m", [0.0, 0.5])
def test_invariants_match_full_band(tuned_maps, m):
    # sup_phi and field_bound_ratio read the row maxima the march recorded;
    # they equal a sweep over the whole band
    data = cauchy.make_bump(0.5, 0.25, 0.1, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m, resolution=96, t_max=3.0)
    rows = np.max(np.abs(fg.phi), axis=1)
    assert fg.sup_phi().hex() == float(np.max(np.abs(fg.phi))).hex()
    lat = fg.lattice
    k = -0.5 * tuned_maps.motion.a_max * m**2
    w = [math.exp(k * x) for x in lat.s[lat.n0:].tolist()]
    assert fg.field_bound_ratio().hex() == (float(np.max(rows * w)) / fg.sup_phi0).hex()


def test_band_nodes_satisfy_domain_inequalities(tuned_maps):
    # every stored lattice node obeys max(-xi, F^{-1}(xi)) <= eta <= xi
    data = cauchy.make_bump(0.5, 0.25, 0.15, 1.0, "right")
    fg = kg.picard_solve(data, tuned_maps, m=0.3, resolution=96, t_max=2.0)
    lat = fg.lattice
    for r in range(0, lat.R, 5):
        i = lat.n0 + r
        jlo = lat.jmin[i]
        lower = max(-lat.s[i], float(tuned_maps.F_inv(lat.s[i])))
        assert lat.s[jlo] >= lower - 1e-9 * (1 + abs(lower))
        assert jlo <= i
        # the node just below the band would violate the inequality
        if jlo > 0:
            assert lat.s[jlo - 1] < lower + 1e-9
