import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint
from scipy.special import beta as beta_fn
from scipy.special import gamma, hyp2f1

from ldpvol.errors import AdmissibilityError, DimensionError, DomainError, InvalidKernelError
from ldpvol.kernels import (
    KernelSpec,
    _table_value,
    brownian,
    eval_kernel,
    hs_apply,
    l2_modulus,
    logarithmic,
    molchan_golosov,
    riemann_liouville,
    slice_variance,
    tabulated,
)
from ldpvol.paths import TimeGrid

GRID = TimeGrid(1.0, 200)

ALL_PRESET_KERNELS = [
    brownian(),
    riemann_liouville(0.3),
    riemann_liouville(0.5),
    riemann_liouville(0.7),
    molchan_golosov(0.3),
    molchan_golosov(0.7),
    logarithmic(2.0),
    tabulated([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], np.ones((3, 3))),
]


def test_parameter_validation():
    with pytest.raises(InvalidKernelError):
        KernelSpec("riemann_liouville", hurst=1.5)
    with pytest.raises(InvalidKernelError):
        KernelSpec("logarithmic", beta=0.5)
    with pytest.raises(InvalidKernelError):
        KernelSpec("nope")
    with pytest.raises(InvalidKernelError):
        KernelSpec("tabulated")


def test_eval_examples():
    assert eval_kernel(brownian(), 1.0, 0.5) == 1.0
    assert eval_kernel(riemann_liouville(0.5), 1.0, 0.3) == 1.0
    expected = 0.5**0.2 / gamma(1.2)
    assert eval_kernel(riemann_liouville(0.7), 1.0, 0.5) == pytest.approx(
        expected, rel=1e-14
    )


@pytest.mark.parametrize("kernel", ALL_PRESET_KERNELS, ids=lambda k: f"{k.kind}-{k.hurst}-{k.beta}")
def test_volterra_zero_above_diagonal(kernel):
    grid = TimeGrid(0.9, 16)
    for t in grid.nodes:
        for s in grid.nodes:
            if s >= t:
                assert eval_kernel(kernel, t, s) == 0.0


def test_rl_half_matches_brownian_pointwise():
    grid = TimeGrid(1.0, 50)
    k = riemann_liouville(0.5)
    for t in grid.nodes:
        for s in grid.nodes:
            if s < t:
                assert abs(eval_kernel(k, t, s) - 1.0) < 1e-12


def mg_value_hyp2f1(h: float, t: float, s: float) -> float:
    """Gauss-hypergeometric representation of the Molchan-Golosov kernel,
    the oracle for its integral form."""
    if s >= t or s <= 0.0:
        return 0.0
    c = math.sqrt(2 * h * gamma(1.5 - h) / (gamma(h + 0.5) * gamma(2 - 2 * h)))
    z = (t - s) / t
    return c * (t - s) ** (h - 0.5) * (s / t) ** (0.5 - h) * hyp2f1(0.5 - h, 1.0, h + 0.5, z)


def test_mg_integral_form_matches_hypergeometric():
    for h in (0.3, 0.45, 0.55, 0.7):
        k = molchan_golosov(h)
        for (t, s) in [(1.0, 0.3), (1.0, 0.8), (0.5, 0.2)]:
            assert eval_kernel(k, t, s) == pytest.approx(
                mg_value_hyp2f1(h, t, s), rel=1e-9
            )


def test_mg_stable_near_hurst_half():
    # prefactor and inner integral nearly cancel as H -> 1/2; the weighted
    # quadrature must absorb the near-divergence without precision loss
    for h in (0.49, 0.505):
        k = molchan_golosov(h)
        assert eval_kernel(k, 1.0, 0.3) == pytest.approx(
            mg_value_hyp2f1(h, 1.0, 0.3), rel=1e-12
        )
        assert slice_variance(k, 0.8) == pytest.approx(0.8 ** (2 * h), rel=1e-9)


def test_hs_apply_examples():
    ones = np.ones(GRID.n_steps + 1)
    assert hs_apply(brownian(), ones, GRID)[-1] == pytest.approx(1.0, rel=1e-13)
    expected = 1.0 / (gamma(1.2) * 1.2)
    assert hs_apply(riemann_liouville(0.7), ones, GRID)[-1] == pytest.approx(
        expected, rel=1e-12
    )
    zero = np.zeros(GRID.n_steps + 1)
    assert np.all(hs_apply(riemann_liouville(0.3), zero, GRID) == 0.0)


def test_hs_apply_shape_check():
    with pytest.raises(DimensionError):
        hs_apply(brownian(), np.ones(7), GRID)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hs_apply_linear(seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 40)
    f = rng.normal(size=41)
    g = rng.normal(size=41)
    a, b = rng.normal(size=2)
    for k in (brownian(), riemann_liouville(0.3), riemann_liouville(0.7)):
        lhs = hs_apply(k, a * f + b * g, grid)
        rhs = a * hs_apply(k, f, grid) + b * hs_apply(k, g, grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_hs_apply_mg_converges():
    # trapezoid-with-singular-cell scheme: error shrinks as the grid refines
    k = molchan_golosov(0.3)
    exact, _ = sint.quad(
        lambda s: eval_kernel(k, 1.0, s), 0.0, 1.0, points=[0.0, 1.0], limit=200
    )
    errs = []
    for n in (16, 32, 64):
        g = TimeGrid(1.0, n)
        errs.append(abs(hs_apply(k, np.ones(n + 1), g)[-1] - exact))
    assert errs[2] < errs[0]
    assert errs[2] / exact < 1e-3


@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("t", [0.25, 1.0])
def test_slice_variance_rl_closed_form(h, t):
    got = slice_variance(riemann_liouville(h), t)
    expected = t ** (2 * h) / (2 * h * gamma(h + 0.5) ** 2)
    assert got == pytest.approx(expected, rel=1e-6)


def test_slice_variance_examples():
    assert slice_variance(brownian(), 0.7) == pytest.approx(0.7, rel=1e-14)
    for k in ALL_PRESET_KERNELS:
        assert slice_variance(k, 0.0) == 0.0


def test_slice_variance_mg_matches_fbm_variance():
    # the Molchan-Golosov kernel represents fBM: its slice variance is t^(2H)
    for h in (0.1, 0.3, 0.49, 0.505, 0.7, 0.9):
        for t in (0.01, 0.25, 0.8, 2.0):
            v = slice_variance(molchan_golosov(h), t)
            assert v == pytest.approx(t ** (2 * h), rel=1e-14), (h, t)


def test_rl_row_values_diagonal_is_the_left_limit():
    # (t - s)^(H - 1/2) vanishes as s -> t for H > 1/2
    from ldpvol.kernels import _row_values

    grid = TimeGrid(1.0, 20)
    rows = _row_values(riemann_liouville(0.7), grid)
    assert np.all(rows.diagonal() == 0.0)
    assert rows[1, 0] == pytest.approx(grid.dt**0.2 / gamma(1.2), rel=1e-14)


def test_slice_variance_logarithmic():
    k = logarithmic(2.0)
    assert slice_variance(k, 0.5) == pytest.approx(math.log(2.0) ** -2, rel=1e-12)
    with pytest.raises(AdmissibilityError):
        slice_variance(k, 1.0)
    # finiteness threshold trips close to the admissibility boundary
    with pytest.raises(AdmissibilityError):
        slice_variance(logarithmic(1.5), 1.0 - 1e-12)


def test_l2_modulus_brownian():
    grid = TimeGrid(1.0, 100)
    assert l2_modulus(brownian(), 0.1, grid) == pytest.approx(0.1, rel=1e-9)
    for k in ALL_PRESET_KERNELS[:4]:
        assert l2_modulus(k, 0.0, grid) == 0.0


def test_l2_modulus_rl_rough_scaling():
    # brute-force fine-grid maximization oracle for C * tau^(2H) behaviour
    h = 0.3
    k = riemann_liouville(h)
    grid = TimeGrid(1.0, 64)
    tau = 0.05
    got = l2_modulus(k, tau, grid)

    def dist2(t, s):
        # int (K(t,u)-K(s,u))^2 du by direct quadrature
        f = lambda u: (eval_kernel(k, t, u) - eval_kernel(k, s, u)) ** 2
        v, _ = sint.quad(f, 0.0, max(t, s), points=[min(t, s), max(t, s)], limit=300)
        return v

    ref = max(
        dist2(t, min(t + tau, 1.0)) for t in np.linspace(0.0, 1.0 - tau, 41)
    )
    assert got == pytest.approx(ref, rel=1.0)  # within factor 2
    assert 0.5 * ref <= got <= 2.0 * ref


def test_l2_modulus_monotone_in_tau():
    grid = TimeGrid(1.0, 40)
    for k in (brownian(), riemann_liouville(0.3)):
        vals = [l2_modulus(k, tau, grid) for tau in (0.0, 0.1, 0.2, 0.4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _l2_modulus_loop(kernel, tau, grid):
    """Reference: the modulus pair by pair, one trapezoid and one scalar
    kernel value per pair."""
    from ldpvol.kernels import _row_values, pc_weights

    n = grid.n_steps
    width = int(math.floor(tau / grid.dt + 1e-9))
    if width == 0:
        return 0.0
    nodes = grid.nodes
    V = np.array([slice_variance(kernel, t) for t in nodes])
    rows = _row_values(kernel, grid)
    pc = pc_weights(kernel, grid)
    best = 0.0
    for i in range(1, n + 1):
        for j in range(max(0, i - width), i):
            cross = 0.0
            if j > 0:
                prod = rows[i, :j] * rows[j, :j]
                cross = float(np.trapezoid(prod, nodes[:j]))
                mid = eval_kernel(kernel, nodes[i], 0.5 * (nodes[j - 1] + nodes[j]))
                cross += pc[j, j - 1] * mid
            best = max(best, V[i] + V[j] - 2.0 * cross)
    return float(max(best, 0.0))


@pytest.mark.parametrize(
    "kernel",
    [
        riemann_liouville(0.3),
        riemann_liouville(0.7),
        brownian(),
        logarithmic(2.0),
        tabulated([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [[0, 0, 0], [1.0, 0.5, 0], [1.2, 0.8, 0.3]]),
    ],
    ids=lambda k: f"{k.kind}-{k.hurst}",
)
def test_l2_modulus_equals_the_pairwise_loop(kernel):
    grid = TimeGrid(0.9 if kernel.kind == "logarithmic" else 1.0, 64)
    for tau in (grid.horizon / 8, grid.horizon / 4, grid.horizon):
        want = _l2_modulus_loop(kernel, tau, grid)
        assert abs(l2_modulus(kernel, tau, grid) - want) <= 1e-13 * want


def test_slice_and_modulus_outside_their_domain_raise_domain_error():
    grid = TimeGrid(1.0, 40)
    with pytest.raises(DomainError, match="nonnegative"):
        slice_variance(brownian(), -0.1)
    for tau in (-0.1, 1.1):
        with pytest.raises(DomainError, match="horizon"):
            l2_modulus(brownian(), tau, grid)


def test_tabulated_interpolation_and_volterra():
    tt = np.linspace(0.0, 1.0, 6)
    vals = np.add.outer(tt, tt)  # K(t,s) = t + s below the diagonal
    k = tabulated(tt, tt, vals)
    assert eval_kernel(k, 0.9, 0.3) == pytest.approx(1.2, rel=1e-12)
    assert eval_kernel(k, 0.3, 0.9) == 0.0
    # the diagonal cell takes the table's left limit, not the Volterra zero,
    # so the trapezoid rule is exact for a kernel linear in s
    exact = 1.5  # int_0^1 (1+s) ds
    for n in (20, 40):
        got = hs_apply(k, np.ones(n + 1), TimeGrid(1.0, n))[-1]
        assert abs(exact - got) <= 1e-12


def test_rms_weights_reproduce_slice_variance():
    from ldpvol.kernels import rms_weights

    cases = [
        (brownian(), TimeGrid(1.0, 50), 1e-12),
        (riemann_liouville(0.3), TimeGrid(1.0, 50), 1e-12),
        (riemann_liouville(0.7), TimeGrid(1.0, 50), 1e-12),
        (logarithmic(2.0), TimeGrid(0.9, 50), 1e-12),
        (molchan_golosov(0.3), TimeGrid(1.0, 16), 2e-2),
    ]
    for kern, grid, tol in cases:
        R = rms_weights(kern, grid)
        # the closed-form cells reproduce every row; Molchan-Golosov is checked
        # at the middle and last rows
        rows = range(1, grid.n_steps + 1)
        if kern.kind == "fbm_molchan_golosov":
            rows = (grid.n_steps // 2, grid.n_steps)
        for i in rows:
            var = float(np.sum(R[i] ** 2)) * grid.dt
            want = slice_variance(kern, grid.nodes[i])
            assert abs(var - want) <= tol * max(want, 1e-12)


TT = np.linspace(0.0, 1.0, 41)


@pytest.mark.parametrize("n", [16, 50])
@pytest.mark.parametrize(
    "kernel",
    ALL_PRESET_KERNELS + [tabulated(TT, TT, np.exp(-np.subtract.outer(TT, TT) ** 2))],
    ids=lambda k: f"{k.kind}-{k.hurst}",
)
def test_row_values_equal_eval_kernel(kernel, n):
    # the grid table and the pointwise value read one evaluator; numpy's array
    # and scalar paths for pow and log may differ in the last bit
    from ldpvol.kernels import _row_values

    grid = TimeGrid(0.9 if kernel.kind == "logarithmic" else 1.0, n)
    nodes = grid.nodes
    rows = _row_values(kernel, grid)
    first = 1 if kernel.kind == "fbm_molchan_golosov" else 0
    for i in range(1, n + 1):
        for j in range(first, i):
            want = eval_kernel(kernel, nodes[i], nodes[j])
            assert abs(rows[i, j] - want) <= 1e-14 * abs(want), (i, j)


def test_logarithmic_lag_and_horizon_errors():
    from ldpvol.kernels import pc_weights, quad_weights, rms_weights

    with pytest.raises(InvalidKernelError):
        eval_kernel(logarithmic(2.0), 1.5, 0.2)
    for n in (16, 49, 50):  # at n = 49, n * dt rounds below 1
        for table in (pc_weights, quad_weights, rms_weights):
            with pytest.raises(AdmissibilityError):
                table(logarithmic(2.0), TimeGrid(1.0, n))


@pytest.mark.parametrize("n", [16, 50])
def test_rms_weights_diagonal_cell_keeps_row_variance(n):
    # K(t, s) stays near a nonzero value up to s = t (tabulated, MG H near
    # 1/2) or falls steeply only next to it (MG H > 1/2): the diagonal cell
    # must not take the Volterra zero at s = t
    from ldpvol.kernels import rms_weights

    tt = np.linspace(0.0, 1.0, 41)
    grid = TimeGrid(1.0, n)
    for kern in (
        molchan_golosov(0.7),
        molchan_golosov(0.5001),
        tabulated(tt, tt, np.exp(-np.subtract.outer(tt, tt) ** 2)),
    ):
        R = rms_weights(kern, grid)
        for i in range(1, n + 1):
            var = float(np.sum(R[i] ** 2)) * grid.dt
            want = slice_variance(kern, grid.nodes[i])
            assert abs(var - want) <= 5e-3 * want, (kern.kind, kern.hurst, i)


@pytest.mark.parametrize("n", [16, 50])
def test_tabulated_quad_weights_keep_diagonal_cell(n):
    # hs_apply of f = 1 and the cell masses integrate the bilinear table over
    # [0, t_i]; the diagonal cell must not take the Volterra zero at s = t_i
    from ldpvol.kernels import pc_weights

    tt = np.linspace(0.0, 1.0, 41)
    k = tabulated(tt, tt, np.exp(-np.subtract.outer(tt, tt) ** 2))
    grid = TimeGrid(1.0, n)
    got = hs_apply(k, np.ones(n + 1), grid)
    masses = np.sum(pc_weights(k, grid), axis=1)
    for i in range(1, n + 1):
        t = grid.nodes[i]
        want, _ = sint.quad(
            lambda s: float(_table_value(k.table, t, s)), 0.0, t,
            points=tt[(tt > 0.0) & (tt < t)], limit=200,
        )
        assert abs(got[i] - want) <= 1e-3 * want, i
        assert abs(masses[i] - want) <= 1e-3 * want, i


def test_kernel_spec_json_roundtrip():
    for k in ALL_PRESET_KERNELS:
        k2 = KernelSpec.from_json_obj(k.to_json_obj())
        assert k2 == k


def _mg_mpmath(h, t, s):
    """Explicit integral form at 40 digits; for H > 1/2 the inner integral is
    taken after v = (u - s)^(H - 1/2), which removes its endpoint singularity."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    h, t, s = mp.mpf(h), mp.mpf(t), mp.mpf(s)
    if h < 0.5:
        pref = mp.sqrt(2 * h / ((1 - 2 * h) * mp.beta(h + 0.5, 1 - 2 * h)))
        inner = mp.quad(lambda u: u ** (h - 1.5) * (u - s) ** (h - 0.5), [s, t])
        return pref * (
            (t / s) ** (h - 0.5) * (t - s) ** (h - 0.5) - (h - 0.5) * s ** (0.5 - h) * inner
        )
    b = h - 0.5
    pref = mp.sqrt(h * (2 * h - 1) / mp.beta(b, 2 - 2 * h))
    inner = mp.quad(lambda v: (s + v ** (1 / b)) ** b, [0, (t - s) ** b]) / b
    return pref * s ** (0.5 - h) * inner


@pytest.mark.parametrize("h", [0.05, 0.3, 0.49, 0.4999, 0.5001, 0.505, 0.7, 0.95])
def test_mg_closed_form_matches_mpmath(h):
    k = molchan_golosov(h)
    for t, s in [(1.0, 1 / 400), (1.0, 1 - 1 / 400), (0.5, 0.2)]:
        ref = float(_mg_mpmath(h, t, s))
        assert abs(eval_kernel(k, t, s) - ref) <= 1e-13 * abs(ref)


def _scalar_quad(f, a, b, points=None):
    val, _ = sint.quad(f, a, b, points=points, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def _mg_tables_by_scalar_quad(h, grid):
    """The Molchan-Golosov cell scheme cell by cell with scalar adaptive
    quadrature: exact moments on the band of 4 cells at either end of a row
    (quad_weights) and on the first cell (rms_weights), trapezoid inside; the
    diagonal cell of rms_weights from K ~ pref (t-s)^(H-1/2) for H < 1/2 and
    by exact quadrature of K^2 for H > 1/2."""
    k = molchan_golosov(h)
    n, dt, nodes = grid.n_steps, grid.dt, grid.nodes
    K = np.array([[eval_kernel(k, t, s) if 0 < s < t else 0.0 for s in nodes] for t in nodes])
    W = np.zeros((n + 1, n + 1))
    R = np.zeros((n + 1, n))
    for i in range(1, n + 1):
        t = nodes[i]
        f = lambda s: eval_kernel(k, t, s)
        for j in range(i):
            a, b = nodes[j], nodes[j + 1]
            mid = [0.5 * (a + b)] if i == 1 else None
            if j < 4 or i - 1 - j < 4:
                m0 = _scalar_quad(f, a, b, mid)
                m1 = _scalar_quad(lambda s: f(s) * (s - a), a, b, mid)
                W[i, j] += m0 - m1 / dt
                W[i, j + 1] += m1 / dt
            else:
                W[i, j] += dt / 2 * K[i, j]
                W[i, j + 1] += dt / 2 * K[i, j + 1]
            if j == 0 or (j == i - 1 and h > 0.5):
                cell = _scalar_quad(lambda s: f(s) ** 2, a, b, mid)
            elif j == i - 1:
                pref2 = 2 * h / ((1 - 2 * h) * beta_fn(h + 0.5, 1 - 2 * h))
                cell = pref2 * dt ** (2 * h) / (2 * h)
            else:
                cell = dt / 2 * (K[i, j] ** 2 + K[i, j + 1] ** 2)
            R[i, j] = math.sqrt(cell / dt)
    M = np.tril(W[:, :n], -1)
    M[np.arange(1, n + 1), np.arange(n)] += np.diag(W)[1:]
    return W, M, R


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_mg_tables_match_scalar_quadrature(h):
    from ldpvol.kernels import pc_weights, quad_weights, rms_weights

    grid = TimeGrid(1.0, 16)
    k = molchan_golosov(h)
    for got, want in zip(
        (quad_weights(k, grid), pc_weights(k, grid), rms_weights(k, grid)),
        _mg_tables_by_scalar_quad(h, grid),
    ):
        assert got.shape == want.shape
        assert np.all((got == 0.0) == (want == 0.0))
        nz = want != 0.0
        assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) <= 1e-8


def test_tabulated_tables_equal_scalar_loop():
    from ldpvol.kernels import pc_weights, quad_weights, rms_weights

    tt = np.linspace(0.0, 1.0, 41)
    k = tabulated(tt, tt, np.exp(-np.subtract.outer(tt, tt) ** 2))
    grid = TimeGrid(1.0, 50)
    n, dt, nodes = grid.n_steps, grid.dt, grid.nodes
    rows = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        for j in range(i):
            rows[i, j] = eval_kernel(k, nodes[i], nodes[j])
        # the diagonal end of every cell takes the table's value at (t_i, t_i)
        rows[i, i] = _table_value(k.table, nodes[i], nodes[i])
    W = np.zeros((n + 1, n + 1))
    M = np.zeros((n + 1, n))
    R = np.zeros((n + 1, n))
    for i in range(1, n + 1):
        for j in range(i):
            W[i, j] += dt / 2 * rows[i, j]
            W[i, j + 1] += dt / 2 * rows[i, j + 1]
        M[i, :i] = dt / 2 * (rows[i, :i] + rows[i, 1 : i + 1])
        R[i, :i] = np.sqrt(dt / 2 * (rows[i, :i] ** 2 + rows[i, 1 : i + 1] ** 2) / dt)
    assert np.array_equal(quad_weights(k, grid), W)
    assert np.array_equal(pc_weights(k, grid), M)
    assert np.array_equal(rms_weights(k, grid), R)
