import math

import numpy as np
import pytest

from ldpvol import TimeGrid, PathFn, brownian
from ldpvol.errors import (
    DimensionError,
    SingularVolatilityError,
    UnsupportedFormError,
)
from ldpvol.paths import Control, energy
from ldpvol.presets import bs_const, frac_heston, reflected_ou, rough_gauss, toy_sabr
from ldpvol.ratefn import (
    ModelSpec,
    PathRateObjective,
    TerminalObjective,
    check_gradient,
    inf_tail,
    inf_tail_result,
    itilde_terminal,
    minimize_multistart,
    phi_functional,
    qtilde_path,
)
from ldpvol.volmap import GAUSSIAN, VolProcessSpec, hat_map_batch

GRID = TimeGrid(1.0, 200)


def test_model_spec_validation():
    with pytest.raises(UnsupportedFormError):
        bs = bs_const()
        ModelSpec(m=1, vol=bs.vol, sigma=bs.sigma, C=np.array([[1.2]]))
    with pytest.raises(UnsupportedFormError):
        ModelSpec(m=1, vol=bs_const().vol)  # neither sigma nor xi
    m = bs_const(rho=-0.5)
    assert m.rho == -0.5
    assert m.rho_bar == pytest.approx(math.sqrt(1 - 0.25))
    np.testing.assert_allclose(m.cbar @ m.cbar, np.eye(1) - m.C.T @ m.C, atol=1e-12)


def test_cbar_square_root_multivariate():
    C = np.array([[0.3, 0.1], [-0.2, 0.4]])
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), None]])
    m = ModelSpec(m=2, vol=vol, xi=lambda t, u: np.ones(np.shape(u)[:-1]), C=C)
    np.testing.assert_allclose(m.cbar @ m.cbar, np.eye(2) - C.T @ C, atol=1e-10)


def test_model_spec_rejects_a_vol_with_another_driver_count():
    # the vol must be driven by the model's m Brownian motions: a mismatch is
    # refused where the model is built, not deep inside the rate solver
    two = VolProcessSpec(family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), brownian()]])
    with pytest.raises(DimensionError, match="drivers"):
        ModelSpec(m=1, vol=two, sigma=lambda t, u: 0.2 * np.exp(u[..., 0]))
    with pytest.raises(DimensionError, match="drivers"):
        ModelSpec(m=2, vol=bs_const().vol, xi=lambda t, u: np.ones(np.shape(u)[:-1]))


# ---------------------------------------------------------------------------
# phi functional
# ---------------------------------------------------------------------------


def test_phi_unit_l_control():
    m = bs_const(sigma0=1.0)  # sigma == 1, b == 0, rho == 0
    l = Control(GRID, np.ones((200, 1)))
    f = Control.zero(GRID, 1)
    phi = phi_functional(m, l, f)
    np.testing.assert_allclose(phi.values[:, 0], GRID.nodes, atol=1e-12)


def test_phi_drift_only():
    m = bs_const(r=0.07)
    phi = phi_functional(m, Control.zero(GRID, 1), Control.zero(GRID, 1))
    np.testing.assert_allclose(phi.values[:, 0], 0.07 * GRID.nodes, atol=1e-12)


def test_phi_toy_exponential_vol():
    m = toy_sabr()
    l = Control(GRID, np.ones((200, 1)))
    phi = phi_functional(m, l, Control.zero(GRID, 1))
    expected = 2.0 * (1.0 - math.exp(-0.5))
    assert phi.terminal[0] == pytest.approx(expected, rel=3e-3)


def test_phi_grid_mismatch():
    m = bs_const()
    with pytest.raises(DimensionError):
        phi_functional(m, Control.zero(GRID, 1), Control.zero(TimeGrid(1.0, 50), 1))


# ---------------------------------------------------------------------------
# sample-path rate
# ---------------------------------------------------------------------------


def test_qtilde_constant_sigma_linear_target():
    m = bs_const()
    x = 0.1
    g = PathFn(GRID, x * GRID.nodes)
    res = qtilde_path(m, g)
    assert res.value == pytest.approx(x**2 / (2 * 0.2**2), rel=1e-8)
    assert res.minimizer_l is not None
    # value decomposes into the two control energies
    assert res.value == pytest.approx(
        energy(res.minimizer_f) + energy(res.minimizer_l), abs=1e-12
    )


def test_qtilde_zero_target_zero_rate():
    m = bs_const()
    res = qtilde_path(m, PathFn(GRID, np.zeros(201)))
    assert res.value == 0.0
    assert np.all(res.minimizer_f.dot_values == 0.0)


def test_qtilde_toy_linear_inside_bounds():
    from ldpvol.toymodel import ToyParams, rate_bounds

    res = qtilde_path(toy_sabr(), PathFn(GRID, 0.1 * GRID.nodes))
    lo, hi = rate_bounds(ToyParams(1.0, 0.1))
    assert lo <= res.value <= hi
    # the path constraint dominates the terminal one
    term = itilde_terminal(toy_sabr(), 0.1, grid=GRID).value
    assert res.value >= term - 1e-9


def test_qtilde_multivariate_constant_matrix_oracle():
    # constant invertible sigma, no drift, no correlation: the optimal
    # volatility control is zero and the value is (1/2) int |sigma^-1 gdot|^2
    sig = np.array([[0.3, 0.1], [0.0, 0.25]])
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), None]])
    m = ModelSpec(
        m=2,
        vol=vol,
        sigma=lambda t, u: np.broadcast_to(sig, np.shape(u)[:-1] + (2, 2)),
        C=np.zeros((2, 2)),
    )
    grid = TimeGrid(1.0, 40)
    x = np.array([0.12, -0.05])
    g = PathFn(grid, np.outer(grid.nodes, x))
    res = qtilde_path(m, g, restarts=2)
    exact = 0.5 * float(np.sum(np.linalg.solve(sig, x) ** 2))
    assert res.value == pytest.approx(exact, rel=1e-7)


def test_qtilde_singular_sigma():
    vol = toy_sabr().vol
    m = ModelSpec(m=1, vol=vol, sigma=lambda t, u: u[..., 0], rho=0.0)
    with pytest.raises(SingularVolatilityError):
        qtilde_path(m, PathFn(TimeGrid(1.0, 20), 0.1 * TimeGrid(1.0, 20).nodes), restarts=0)


# ---------------------------------------------------------------------------
# terminal rate
# ---------------------------------------------------------------------------


def test_itilde_constant_sigma_oracle():
    sigma0, r, rho, x = 0.25, 0.03, -0.6, 0.2
    m = bs_const(sigma0=sigma0, r=r, rho=rho)
    res = itilde_terminal(m, x, grid=GRID)
    exact = (x - r * 1.0) ** 2 / (2 * sigma0**2 * 1.0)
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert res.converged


def test_itilde_zero_at_drift_attained_target():
    m = bs_const(r=0.04)
    res = itilde_terminal(m, 0.04, grid=GRID)  # x = r * T
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_itilde_toy_inside_paper_interval():
    res = itilde_terminal(toy_sabr(), 0.1, grid=GRID)
    assert 0.0050000 - 1e-7 <= res.value <= 0.0158198 + 1e-7


def test_itilde_nonnegative_across_presets():
    for model in (bs_const(), toy_sabr(), rough_gauss(), frac_heston()):
        res = itilde_terminal(model, 0.05, grid=TimeGrid(1.0, 60), restarts=2)
        assert res.value >= 0.0


def test_itilde_upper_bound_property():
    # the optimizer never reports above a feasible trial evaluation
    rng = np.random.default_rng(4)
    m = toy_sabr()
    obj = TerminalObjective(m, GRID, 0.1)
    res = itilde_terminal(m, 0.1, grid=GRID)
    for _ in range(5):
        trial = rng.normal(scale=1.0, size=GRID.n_steps)
        assert res.value <= obj.value(trial) + 1e-9


def test_itilde_result_value_matches_minimizer():
    m = toy_sabr()
    res = itilde_terminal(m, 0.1, grid=GRID)
    obj = TerminalObjective(m, GRID, 0.1)
    assert res.value == pytest.approx(
        obj.value(res.minimizer_f.dot_values[:, 0]), abs=1e-10
    )


def test_itilde_monotone_refinement_time_dependent_sigma():
    # deterministic time-dependent vol: analytic value x^2 / (2 int sigma^2)
    x = 0.1

    def sigma(t, u):
        return 0.2 * np.exp(-0.5 * np.asarray(t)) * np.ones(np.shape(u)[:-1])

    vol = toy_sabr().vol
    m = ModelSpec(m=1, vol=vol, sigma=sigma, rho=0.0)
    exact = x**2 / (2 * 0.04 * (1 - math.exp(-1.0)) / 1.0)
    errs = []
    for n in (50, 100, 200, 400):
        res = itilde_terminal(m, x, grid=TimeGrid(1.0, n), restarts=2)
        errs.append(abs(res.value - exact))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    order = math.log2(errs[0] / errs[-1]) / 3.0
    assert order >= 0.98  # first-order, up to higher-order contamination


def test_itilde_degenerate_start_escapes_to_eigenvalue_oracle():
    # sigma(t, u) = u with the identity skeleton and rho = 0: the zero control
    # makes the volatility vanish identically, so the optimizer must leave the
    # degenerate start; the true value solves a fixed-free eigenvalue problem,
    # inf_f |x| sqrt(int fdot^2 / int f^2) = |x| pi / (2 T)
    vol = VolProcessSpec(family=GAUSSIAN, noise_kernels=[[brownian()]])
    m = ModelSpec(
        m=1, vol=vol, sigma=lambda t, u: u[..., 0], rho=0.0, sigma_positive=False
    )
    exact = 0.1 * math.pi / 2.0
    vals = []
    for n in (100, 200):
        res = itilde_terminal(m, 0.1, grid=TimeGrid(1.0, n), restarts=8, seed=0)
        assert res.converged
        vals.append(res.value)
    assert vals[0] == pytest.approx(exact, rel=1e-2)
    assert abs(vals[1] - exact) < abs(vals[0] - exact)


def test_itilde_constant_sigma_exact_at_every_grid():
    m = bs_const()
    for n in (50, 100, 400):
        res = itilde_terminal(m, 0.1, grid=TimeGrid(1.0, n), restarts=2)
        assert res.value == pytest.approx(0.125, rel=1e-7)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory", [bs_const, toy_sabr, rough_gauss, frac_heston], ids=lambda f: f.__name__
)
def test_gradient_check_presets(factory):
    model = factory()
    grid = TimeGrid(1.0, 40)
    obj = TerminalObjective(model, grid, 0.1)
    rng = np.random.default_rng(123)
    scale = math.sqrt(2.0 / grid.horizon)
    for _ in range(10):
        x = rng.normal(scale=scale, size=grid.n_steps)
        assert check_gradient(obj, x) < 1e-5


# ---------------------------------------------------------------------------
# multivariate terminal rate (rotation-times-scalar)
# ---------------------------------------------------------------------------


def _orthoscalar_model(xi0=0.3):
    vol = VolProcessSpec(
        family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), None]]
    )
    return ModelSpec(
        m=2,
        vol=vol,
        xi=lambda t, u: np.full(np.shape(u)[:-1], xi0),
        C=np.zeros((2, 2)),
        s0=[1.0, 1.0],
    )


def test_orthogonal_scalar_constant_xi_oracle():
    xi0 = 0.3
    m = _orthoscalar_model(xi0)
    x = np.array([0.1, -0.05])
    res = itilde_terminal(m, x, grid=TimeGrid(1.0, 50), restarts=4)
    exact = float(x @ x) / (2 * xi0**2)
    assert res.value == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize(
    "C, x, exact",
    [(0.5 * np.eye(2), [0.05, 0.05], 0.046875), (np.zeros((2, 2)), [0.05, -0.03], 0.0425)],
    ids=["C=0.5I", "C=0"],
)
def test_orthogonal_scalar_closed_form(C, x, exact):
    # constant xi and identity O: the rate is (1 - c^2) |x|^2 / (2 xi^2) for C = c Id
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), None]])
    model = ModelSpec(m=2, vol=vol, xi=lambda t, u: np.full(np.shape(u)[:-1], 0.2), C=C)
    res = itilde_terminal(model, x, grid=TimeGrid(1.0, 50), restarts=2)
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_orthogonal_scalar_requires_declaration():
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), None]])
    m = ModelSpec(
        m=2,
        vol=vol,
        sigma=lambda t, u: np.broadcast_to(np.eye(2), np.shape(u)[:-1] + (2, 2)),
        C=np.zeros((2, 2)),
    )
    with pytest.raises(UnsupportedFormError):
        TerminalObjective(m, TimeGrid(1.0, 10), np.zeros(2))


def test_mixed_demo_terminal_runs():
    from ldpvol.presets import mixed_demo

    m = mixed_demo()
    res = itilde_terminal(m, np.array([0.05, 0.05]), grid=TimeGrid(1.0, 30), restarts=2)
    assert res.value >= 0.0
    assert np.isfinite(res.value)


# ---------------------------------------------------------------------------
# tail infimum
# ---------------------------------------------------------------------------


def test_inf_tail_uncorrelated_equals_terminal():
    m = toy_sabr()
    k = 0.1
    v, res = inf_tail_result(m, k, grid=GRID)
    assert v == pytest.approx(itilde_terminal(m, k, grid=GRID).value, rel=1e-9)
    assert res.diagnostics["argmin_x"] == k


def test_inf_tail_constant_sigma():
    m = bs_const()
    assert inf_tail(m, 0.1, grid=GRID) == pytest.approx(0.125, rel=1e-6)


def test_inf_tail_attained_zero():
    for rho in (0.0, -0.5):
        m = bs_const(r=0.05, rho=rho)
        assert inf_tail(m, 0.02, grid=GRID) == 0.0  # drift alone reaches 0.05 > 0.02


def test_inf_tail_correlated_closed_form():
    # constant coefficients: the rate at x is (x - r)^2 / (2 sigma^2) for any rho
    m = bs_const(r=0.05, rho=-0.5, sigma0=0.2)
    v, res = inf_tail_result(m, 0.06, grid=GRID)
    assert v == pytest.approx(0.01**2 / (2 * 0.2**2), rel=1e-6)
    assert res.diagnostics["argmin_x"] == 0.06


def _bounded_search_inf_tail(model, k, grid, restarts):
    """The tail infimum by a bounded scalar search over x >= k, then the min
    with the rate at k: the algorithm one terminal solve at k replaces."""
    from scipy.optimize import minimize_scalar

    def rate_at(x):
        return itilde_terminal(model, x, grid=grid, restarts=restarts).value

    u = hat_map_batch(model.vol, np.zeros((grid.n_steps, 1)), grid)[:-1]
    i_s2 = grid.dt * float(np.sum(model.sigma_values(grid.nodes[:-1], u) ** 2))
    scale = math.sqrt(max(i_s2 / grid.horizon, 1e-12))
    hi = k + 10.0 * scale * math.sqrt(grid.horizon)
    sres = minimize_scalar(
        rate_at, bounds=(k, hi), method="bounded", options={"xatol": 1e-5 * max(1.0, abs(k))}
    )
    return min(rate_at(k), float(sres.fun))


@pytest.mark.parametrize(
    "make",
    [lambda: bs_const(rho=-0.5), toy_sabr, rough_gauss, frac_heston, reflected_ou],
    ids=["bs_const_rho-0.5", "toy_sabr", "rough_gauss", "frac_heston", "reflected_ou"],
)
def test_inf_tail_matches_bounded_search(make):
    model, grid, k = make(), TimeGrid(1.0, 30), 0.1
    v, res = inf_tail_result(model, k, grid=grid, restarts=2)
    assert v == pytest.approx(_bounded_search_inf_tail(model, k, grid, 2), rel=1e-9)
    assert res.diagnostics["argmin_x"] == k


def test_inf_tail_correlated_searches_x():
    m = bs_const(rho=-0.5)
    # constant sigma: rate (x)^2/(2 s^2) increasing for x >= k > 0 regardless
    assert inf_tail(m, 0.1, grid=TimeGrid(1.0, 100)) == pytest.approx(0.125, rel=1e-4)


# ---------------------------------------------------------------------------
# gradient oracle: every objective class against central differences
# ---------------------------------------------------------------------------


def _volterra_model():
    """volterra_sde vol: a(t,s,x) = -x, c(t,s,x) = 0.5 (t-s)^-0.2."""
    from ldpvol.volmap import VOLTERRA_SDE

    def c_map(t, s, x):
        c = 0.5 * (t - s) ** -0.2
        return np.broadcast_to(c[:, None, None], x.shape[:-1] + (1, 1))

    vol = VolProcessSpec(
        family=VOLTERRA_SDE, volterra_a=lambda t, s, x: -x, volterra_c=c_map
    )
    return ModelSpec(m=1, vol=vol, sigma=lambda t, u: 0.2 * np.exp(u[..., 0]), rho=-0.3)


def _restart_controls(grid, m, count=3, seed=2718):
    """Random controls of the size minimize_multistart restarts from."""
    rng = np.random.default_rng(seed)
    scale = math.sqrt(2.0 / (m * grid.horizon))
    return [rng.normal(scale=scale, size=grid.n_steps * m) for _ in range(count)]


@pytest.mark.parametrize(
    "factory",
    [bs_const, toy_sabr, rough_gauss, frac_heston, reflected_ou, _volterra_model],
    ids=lambda f: f.__name__.strip("_"),
)
def test_terminal_gradient_oracle(factory):
    grid = TimeGrid(1.0, 40)
    obj = TerminalObjective(factory(), grid, 0.1)
    for x in _restart_controls(grid, 1):
        assert check_gradient(obj, x) < 1e-5


@pytest.mark.parametrize(
    "factory",
    [lambda: bs_const(rho=-0.5), toy_sabr, rough_gauss, frac_heston, reflected_ou, _volterra_model],
    ids=["bs_const_rho-0.5", "toy_sabr", "rough_gauss", "frac_heston", "reflected_ou",
         "volterra_sde"],
)
def test_terminal_objective_is_the_explicit_ratio(factory):
    # 1/2 int fdot^2 + (x - int b - rho int sigma fdot)^2 / (2 rho_bar^2 int sigma^2)
    model, grid, x = factory(), TimeGrid(1.0, 40), 0.1
    obj = TerminalObjective(model, grid, x)
    dt, tk = grid.dt, grid.nodes[:-1]
    for f in _restart_controls(grid, 1):
        u = hat_map_batch(model.vol, f[:, None], grid)[:-1]
        b, sig = model.drift_values(tk, u)[:, 0], model.sigma_values(tk, u)
        numer = x - dt * np.sum(b) - model.rho * dt * np.sum(sig * f)
        ref = 0.5 * dt * np.sum(f**2) + numer**2 / (2 * model.rho_bar**2 * dt * np.sum(sig**2))
        assert obj.value(f) == pytest.approx(ref, rel=1e-12)


def test_orthogonal_gradient_oracle():
    from ldpvol.presets import mixed_demo

    grid = TimeGrid(1.0, 40)
    obj = TerminalObjective(mixed_demo(), grid, np.array([0.05, 0.05]))
    for x in _restart_controls(grid, 2):
        assert check_gradient(obj, x) < 1e-5


@pytest.mark.parametrize("factory", [bs_const, rough_gauss], ids=lambda f: f.__name__)
def test_path_gradient_oracle(factory):
    grid = TimeGrid(1.0, 40)
    obj = PathRateObjective(factory(), PathFn(grid, 0.1 * grid.nodes))
    for x in _restart_controls(grid, 1):
        assert check_gradient(obj, x) < 1e-5


def test_value_and_grad_matches_value():
    # the fused evaluation L-BFGS sees reports the same value as value()
    grid = TimeGrid(1.0, 40)
    for factory in (toy_sabr, rough_gauss, frac_heston):
        obj = TerminalObjective(factory(), grid, 0.1)
        for x in _restart_controls(grid, 1):
            assert obj.value_and_grad(x)[0] == obj.value(x)


# ---------------------------------------------------------------------------
# per-restart observability
# ---------------------------------------------------------------------------


def test_multistart_reports_every_restart():
    grid = TimeGrid(1.0, 40)
    obj = TerminalObjective(rough_gauss(), grid, 0.1)
    x, info = minimize_multistart(obj, grid.n_steps, grid, 1, restarts=3, seed=2)
    assert len(info["restart_values"]) == len(info["restart_iterations"]) == 4
    assert sum(info["restart_iterations"]) == info["iterations"]
    assert info["gradient_evaluations"] > info["iterations"]
    best = min(info["restart_values"])
    assert obj.value(x) == pytest.approx(best, rel=1e-9, abs=1e-12)
    res = itilde_terminal(rough_gauss(), 0.1, grid=grid, restarts=3, seed=2)
    assert res.diagnostics["restart_values"] == info["restart_values"]
    assert res.value == pytest.approx(min(res.diagnostics["restart_values"]), rel=1e-9)
