import dataclasses
import math

import numpy as np
import pytest

from ldpvol import TimeGrid, Control, brownian, riemann_liouville, hs_apply, integrate
from ldpvol.errors import DimensionError, UnsupportedDomainError, UnsupportedFormError
from ldpvol.kernels import rms_weights
from ldpvol.paths import reflect_values
from ldpvol.presets import make_model
from ldpvol.volmap import (
    FRACTIONAL,
    GAUSSIAN,
    MIXED,
    VOLTERRA_SDE,
    REFLECTED,
    VolProcessSpec,
    _fractional_part,
    cell_means,
    cir_coefficients,
    gamma_y,
    hat_map,
    is_affine,
    is_constant,
    ou_coefficients,
    output_map,
    solve_psi,
    vol_state,
    vol_state_vjp,
)

GRID = TimeGrid(1.0, 100)


def toy_spec():
    return VolProcessSpec(family=GAUSSIAN, noise_kernels=[[brownian()]])


def gaussian_spec(d=2, m=2, kern=None):
    kern = kern or brownian()
    return VolProcessSpec(
        family=GAUSSIAN, d=d, m=m, noise_kernels=[[kern] * m for _ in range(d)]
    )


def cir_fractional_spec(kern=None, kappa=1.0, theta=0.04, eta=0.3, v0=0.04):
    drift, disp = cir_coefficients(kappa, theta, eta)
    return VolProcessSpec(
        family=FRACTIONAL,
        d=1,
        m=1,
        k_dim=1,
        drift_kernels=[kern or brownian()],
        u_map=lambda v: v,
        aux_drift=drift,
        aux_disp=disp,
        v0=[v0],
    )


def test_family_validation():
    with pytest.raises(UnsupportedFormError):
        VolProcessSpec(family="weird")
    with pytest.raises(DimensionError):
        VolProcessSpec(family=GAUSSIAN, d=2, m=1, noise_kernels=[[brownian()]])
    with pytest.raises(UnsupportedFormError):
        VolProcessSpec(
            family=GAUSSIAN,
            d=1,
            m=1,
            noise_kernels=[[brownian()]],
            drift_kernels=[brownian()],
        )
    with pytest.raises(UnsupportedFormError):
        VolProcessSpec(
            family=FRACTIONAL,
            d=1,
            m=1,
            drift_kernels=[brownian()],
            u_map=lambda v: v,
            noise_kernels=[[brownian()]],
        )


def test_toy_presets_are_the_brownian_gaussian_spec():
    vol = make_model("toy_sabr").vol
    assert vol.family == GAUSSIAN and vol.noise_kernels == [[brownian()]]
    assert is_affine(vol) and not is_constant(vol)
    shifted = dataclasses.replace(toy_spec(), y=[0.25])
    assert shifted.noise_kernels == [[brownian()]] and shifted.y.tolist() == [0.25]
    with pytest.raises(UnsupportedFormError):
        VolProcessSpec(family="toy")


def test_bs_const_is_the_constant_gaussian_spec():
    # bs_const's sigma never reads its vol, and the spec says so: a Gaussian
    # vol with no noise kernel is the constant y
    vol = make_model("bs_const").vol
    assert vol.family == GAUSSIAN and vol.noise_kernels == [[None]] and not vol.reflect
    assert is_affine(vol) and is_constant(vol)
    vals = vol_state(vol, _incr(1), GRID, rms_weights)
    np.testing.assert_array_equal(vals, np.broadcast_to(vol.y, vals.shape))
    assert not is_constant(dataclasses.replace(vol, reflect=True))


def test_u_map_must_be_callable():
    with pytest.raises(UnsupportedFormError):
        VolProcessSpec(family=FRACTIONAL, drift_kernels=[brownian()], u_map="identity")


def _incr(m, seed=3):
    return np.random.default_rng(seed).normal(size=(4, GRID.n_steps, m)) * GRID.dt


def test_brownian_gaussian_vjp_is_the_reverse_cumulative_sum():
    # the toy model's adjoint, as the toy branch wrote it: bit for bit
    spec, incr = toy_spec(), _incr(1)
    bar = np.random.default_rng(4).normal(size=(4, GRID.n_steps + 1, 1))
    tape = {}
    vol_state(spec, incr, GRID, cell_means, tape)
    want = np.flip(np.cumsum(np.flip(bar[..., 1:, :], -2), -2), -2)
    np.testing.assert_array_equal(vol_state_vjp(spec, incr, GRID, cell_means, tape, bar), want)


_RECURSION_SPECS = {
    "toy": toy_spec,
    GAUSSIAN: lambda: VolProcessSpec(
        family=GAUSSIAN, d=2, m=2, y=[0.3, -0.2],
        noise_kernels=[[riemann_liouville(0.3), brownian()], [brownian(), riemann_liouville(0.7)]],
    ),
    FRACTIONAL: lambda: make_model("frac_heston").vol,
    MIXED: lambda: dataclasses.replace(make_model("mixed_demo").vol, y=[0.1, 0.4]),
}


def _convolutions(spec, incr):
    """The Gaussian part as the per-family expressions summed it: every
    kernel's term added into a zero array, in kernel order."""
    out = np.zeros(incr.shape[:-2] + (GRID.n_steps + 1, spec.d))
    for i, row in enumerate(spec.noise_kernels):
        for j, kern in enumerate(row):
            if kern is not None and kern.kind == "brownian":
                out[..., 1:, i] += np.cumsum(incr[..., j], axis=-1)
            elif kern is not None:
                out[..., i] += np.ascontiguousarray(incr[..., j]) @ cell_means(kern, GRID).T
    return out


@pytest.mark.parametrize("family", sorted(_RECURSION_SPECS))
def test_kernel_recursion_matches_the_per_family_expressions(family):
    # the one kernel recursion against each family's own expression, as the
    # scheme wrote them before they were one: bit for bit, plain and taped
    spec = _RECURSION_SPECS[family]()
    incr = _incr(spec.m)
    if family == "toy":
        want = np.zeros(incr.shape[:-2] + (GRID.n_steps + 1, 1))
        np.cumsum(incr, axis=-2, out=want[..., 1:, :])
    elif family == GAUSSIAN:
        want = spec.y + _convolutions(spec, incr)
    elif family == FRACTIONAL:
        want = spec.y + _fractional_part(spec, incr, GRID)
    else:
        want = spec.y + _convolutions(spec, incr) + _fractional_part(spec, incr, GRID)
    np.testing.assert_array_equal(vol_state(spec, incr, GRID, cell_means), want)
    np.testing.assert_array_equal(vol_state(spec, incr, GRID, cell_means, {}), want)


def test_solve_psi_constant_when_no_coefficients():
    spec = VolProcessSpec(
        family=VOLTERRA_SDE,
        volterra_a=lambda t, s, x: np.zeros_like(x),
        k_dim=3,
        v0=[1.0, -2.0, 0.5],
    )
    c = Control(GRID, np.random.default_rng(0).normal(size=(100, 1)))
    psi = solve_psi(spec, c)
    assert np.all(psi.values == np.array([1.0, -2.0, 0.5]))


def test_solve_psi_linear_drive():
    # zero drift, unit dispersion: psi = v0 + c * s
    spec = VolProcessSpec(
        family=VOLTERRA_SDE,
        volterra_a=lambda t, s, x: np.zeros_like(x),
        k_dim=1,
        v0=[0.7],
        aux_drift=lambda t, v: np.zeros_like(v),
        aux_disp=lambda t, v: np.ones(v.shape + (1,)),
    )
    c = Control(GRID, np.full((100, 1), 2.5))
    psi = solve_psi(spec, c)
    np.testing.assert_allclose(psi.values[:, 0], 0.7 + 2.5 * GRID.nodes, atol=1e-12)


def test_solve_psi_cir_skeleton_matches_linear_ode():
    kappa, theta, v0 = 2.0, 0.09, 0.02
    spec = cir_fractional_spec(kappa=kappa, theta=theta, eta=0.4, v0=v0)
    psi = solve_psi(spec, Control.zero(GRID, 1))
    exact = theta + (v0 - theta) * np.exp(-kappa * GRID.nodes)
    # explicit Euler with zero control: O(dt) accuracy
    assert np.max(np.abs(psi.values[:, 0] - exact)) < 2.0 * kappa * GRID.dt


def test_gamma_y_gaussian_constant_control():
    d, m = 2, 3
    spec = gaussian_spec(d=d, m=m)
    c = Control(GRID, np.ones((100, m)))
    eta = gamma_y(spec, c)
    for i in range(d):
        np.testing.assert_allclose(eta.values[:, i], m * GRID.nodes, atol=1e-12)


def test_gamma_y_toy_identity():
    c = Control(GRID, np.random.default_rng(1).normal(size=(100, 1)))
    eta = gamma_y(toy_spec(), c)
    np.testing.assert_allclose(eta.values, integrate(c).values, atol=1e-14)
    h = hat_map(toy_spec(), c)
    np.testing.assert_allclose(h.values, integrate(c).values, atol=1e-14)


def test_gamma_y_volterra_matches_hs_apply_oracle():
    kern = riemann_liouville(0.7)

    def c_map(t, s, x):
        from ldpvol.kernels import eval_kernel

        vals = np.array([eval_kernel(kern, t, si) for si in s])
        return np.broadcast_to(vals[:, None, None], x.shape[:-1] + (1, 1))

    spec = VolProcessSpec(family=VOLTERRA_SDE, volterra_c=c_map, d=1, m=1)
    grid = TimeGrid(1.0, 64)
    c = Control(grid, np.ones((64, 1)))
    eta = gamma_y(spec, c)
    oracle = hs_apply(kern, np.ones(65), grid)
    # left-point Euler quadrature vs cell-exact oracle on the same grid
    assert np.max(np.abs(eta.values[:, 0] - oracle)) < 0.05 * max(1.0, np.max(np.abs(oracle)))


def test_volterra_sweep_exact_on_linear_decay():
    # a(t, s, x) = -x, c = 0, y0 = 1: y_i = 1 - dt * sum_{j<i} y_j = (1 - dt)^i
    spec = VolProcessSpec(family=VOLTERRA_SDE, volterra_a=lambda t, s, x: -x, d=1, m=1, y=[1.0])
    eta = gamma_y(spec, Control.zero(GRID, 1)).values[:, 0]
    exact = (1.0 - GRID.dt) ** np.arange(GRID.n_steps + 1)
    assert np.max(np.abs(eta - exact)) < 1e-13


def test_mixed_is_sum_of_degenerate_families():
    rng = np.random.default_rng(7)
    drift, disp = cir_coefficients(1.0, 0.04, 0.3)
    kern_noise = riemann_liouville(0.3)
    kern_drift = riemann_liouville(0.7)
    mixed = VolProcessSpec(
        family=MIXED,
        d=1,
        m=1,
        noise_kernels=[[kern_noise]],
        drift_kernels=[kern_drift],
        u_map=np.abs,
        aux_drift=drift,
        aux_disp=disp,
        v0=[0.04],
        y=[0.5],
    )
    gauss = VolProcessSpec(family=GAUSSIAN, d=1, m=1, noise_kernels=[[kern_noise]], y=[0.5])
    frac = VolProcessSpec(
        family=FRACTIONAL,
        d=1,
        m=1,
        drift_kernels=[kern_drift],
        u_map=np.abs,
        aux_drift=drift,
        aux_disp=disp,
        v0=[0.04],
        y=[0.0],
    )
    c = Control(GRID, rng.normal(size=(100, 1)))
    lhs = gamma_y(mixed, c).values
    rhs = gamma_y(gauss, c).values + gamma_y(frac, c).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_gaussian_hat_affine_in_control():
    spec = gaussian_spec(d=1, m=2, kern=riemann_liouville(0.3))
    rng = np.random.default_rng(5)
    f = rng.normal(size=(100, 2))
    g = rng.normal(size=(100, 2))
    a, b = 1.7, -0.4
    h0 = hat_map(spec, Control.zero(GRID, 2)).values
    hf = hat_map(spec, Control(GRID, f)).values
    hg = hat_map(spec, Control(GRID, g)).values
    hab = hat_map(spec, Control(GRID, a * f + b * g)).values
    np.testing.assert_allclose(hab - h0, a * (hf - h0) + b * (hg - h0), atol=1e-9)


def test_hat_map_zero_control_is_initial_state_for_gaussian():
    spec = gaussian_spec(d=2, m=1)
    spec.y = np.array([0.3, -0.1])
    h = hat_map(spec, Control.zero(GRID, 1))
    np.testing.assert_allclose(h.values, np.broadcast_to([0.3, -0.1], (101, 2)))


def test_reflected_hat_nonnegative():
    drift, disp = ou_coefficients(4.0, 0.0, 1.0)
    spec = VolProcessSpec(
        family=REFLECTED,
        d=1,
        m=1,
        k_dim=1,
        aux_drift=drift,
        aux_disp=disp,
        y=[0.2],
        reflect=True,
    )
    c = Control(GRID, np.full((100, 1), -3.0))
    h = hat_map(spec, c)
    assert np.all(h.values >= 0.0)
    # strongly negative drive pins the reflected path at zero eventually
    assert h.values[-1, 0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("reflect", [False, True])
def test_reflected_family_is_one_dimensional(reflect):
    # the reflected family sets its reflect flag whatever is passed, so d = 2
    # is refused with or without it
    drift, disp = ou_coefficients(1.0, 0.0, 1.0)
    with pytest.raises(UnsupportedDomainError):
        VolProcessSpec(family=REFLECTED, d=2, m=1, k_dim=2, aux_drift=drift, aux_disp=disp,
                       reflect=reflect)


def test_output_map_reflects_what_the_scheme_leaves_unreflected():
    # the reflected family's clipped state is its own output; a reflected
    # Gaussian output is reflected by the map
    vals = np.array([[[0.1], [-0.2], [0.3], [-0.4]]])
    assert output_map(make_model("reflected_ou").vol, vals) is vals
    spec = VolProcessSpec(family=GAUSSIAN, d=1, m=1, noise_kernels=[[brownian()]], reflect=True)
    np.testing.assert_array_equal(output_map(spec, vals), reflect_values(vals))
    assert np.all(output_map(spec, vals) >= 0.0)


def _running_minimum_state(spec, incr, grid):
    """The reflected Euler recursion in running-minimum form: the
    unreflected state V stepped with coefficients read at V less the running
    minimum of min(V, 0), reflected afterwards (``paths.reflect_values``)."""
    cur = np.broadcast_to(spec.y, incr.shape[:-2] + spec.y.shape).copy()
    run_min = np.minimum(cur, 0.0)
    out = [cur]
    for j, t in enumerate(grid.nodes[:-1]):
        arg = cur - run_min
        noise = np.einsum("...km,...m->...k", spec.aux_disp(t, arg), incr[..., j, :])
        cur = cur + spec.aux_drift(t, arg) * grid.dt + noise
        run_min = np.minimum(run_min, cur)
        out.append(cur)
    return reflect_values(np.stack(out, axis=-2))


@pytest.mark.parametrize("y", [0.05, -0.02])
def test_reflected_euler_clip_is_the_running_minimum_form(y):
    # the clipped step max(V + b dt + s dZ, 0) is the discrete Skorokhod map
    # of the Euler increments: on noise that pins the state at zero on many
    # nodes it equals the running-minimum form within rounding, a negative
    # start included
    drift, disp = ou_coefficients(2.0, -0.1, 0.5)
    spec = VolProcessSpec(
        family=REFLECTED, d=1, m=1, k_dim=1, aux_drift=drift, aux_disp=disp, y=[y]
    )
    rng = np.random.default_rng(4)
    incr = rng.normal(scale=math.sqrt(GRID.dt), size=(400, GRID.n_steps, 1))
    got = output_map(spec, vol_state(spec, incr, GRID, cell_means))
    assert np.mean(got == 0.0) > 0.1
    assert np.max(np.abs(got - _running_minimum_state(spec, incr, GRID))) <= 1e-14


def test_hat_map_grid_refinement_consistency():
    # refining the control grid 2x moves outputs by O(dt)
    spec = cir_fractional_spec(kern=riemann_liouville(0.7))
    n = 50
    coarse = TimeGrid(1.0, n)
    fine = TimeGrid(1.0, 2 * n)
    rng = np.random.default_rng(11)
    dots = rng.normal(size=(n, 1))
    h_coarse = hat_map(spec, Control(coarse, dots))
    h_fine = hat_map(spec, Control(fine, np.repeat(dots, 2, axis=0)))
    diff = np.max(np.abs(h_fine.values[::2] - h_coarse.values))
    assert diff < 8.0 * coarse.dt  # recorded constant, sup-norm O(dt)
