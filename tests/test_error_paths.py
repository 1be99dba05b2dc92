import numpy as np
import pytest

from ldpvol import TimeGrid, brownian
from ldpvol.errors import ConvergenceError, DivergenceError, DomainError, SingularVolatilityError
from ldpvol.paths import Control, PathFn
from ldpvol.presets import mixed_demo
from ldpvol.pricing import ExitDomain, exit_asymptote
from ldpvol.ratefn import (
    ModelSpec,
    PathRateObjective,
    itilde_terminal,
    minimize_multistart,
    qtilde_path,
)
from ldpvol.volmap import GAUSSIAN, VOLTERRA_SDE, VolProcessSpec, gamma_y, solve_psi

GRID = TimeGrid(1.0, 50)


def test_solve_psi_blowup_raises():
    spec = VolProcessSpec(
        family=VOLTERRA_SDE,
        volterra_a=lambda t, s, x: np.zeros_like(x),
        k_dim=1,
        v0=[1.0],
        aux_drift=lambda t, v: 50.0 * v * v,  # super-linear growth
        aux_disp=lambda t, v: np.zeros(v.shape + (1,)),
    )
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        solve_psi(spec, Control.zero(GRID, 1))


def test_picard_divergence_raises_with_residual():
    # super-linear growth drives the fixed-point iterates to overflow; the
    # iteration reports non-convergence with the final residual attached
    spec = VolProcessSpec(
        family=VOLTERRA_SDE,
        volterra_a=lambda t, s, x: 1e6 * x * x + 1.0,
        d=1,
        m=1,
        y=[1.0],
    )
    c = Control.zero(GRID, 1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as err:
        gamma_y(spec, c)
    assert err.value.residual is not None
    assert not np.isfinite(err.value.residual) or err.value.residual > 0


def test_optimizer_nonconverged_flag():
    from ldpvol.presets import toy_sabr
    from ldpvol.ratefn import TerminalObjective

    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    _, info = minimize_multistart(obj, GRID.n_steps, GRID, 1, restarts=0, maxiter=1)
    assert not info["converged"]


@pytest.mark.parametrize("restarts", [-1, 2.5, True, "3"])
def test_bad_restart_count_is_a_domain_error(restarts):
    from ldpvol.presets import toy_sabr
    from ldpvol.ratefn import TerminalObjective

    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    with pytest.raises(DomainError, match="restarts"):
        minimize_multistart(obj, GRID.n_steps, GRID, 1, restarts=restarts)
    _, info = minimize_multistart(obj, GRID.n_steps, GRID, 1, restarts=np.int64(1))
    assert info["restarts"] == 1


def test_optimizer_deterministic_given_seed():
    from ldpvol.presets import rough_gauss

    model = rough_gauss()
    r1 = itilde_terminal(model, 0.08, grid=GRID, restarts=3, seed=5)
    r2 = itilde_terminal(model, 0.08, grid=GRID, restarts=3, seed=5)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.minimizer_f.dot_values, r2.minimizer_f.dot_values)


def test_multivariate_path_rate_runs():
    model = mixed_demo()
    grid = TimeGrid(1.0, 30)
    g = PathFn(grid, np.column_stack([0.08 * grid.nodes, -0.04 * grid.nodes]))
    res = qtilde_path(model, g, restarts=1, seed=0)
    assert np.isfinite(res.value) and res.value > 0.0
    assert res.minimizer_l.dim == 2
    assert res.value == pytest.approx(
        res.diagnostics["energy_f"] + res.diagnostics["energy_l"], abs=1e-12
    )


def test_exactly_singular_vol_matrix_is_a_singular_volatility_error():
    # numpy's LinAlgError once escaped the sample-path rate before the check
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=2, noise_kernels=[[brownian(), None]])
    model = ModelSpec(
        m=2, vol=vol, C=np.zeros((2, 2)),
        sigma=lambda t, u: np.broadcast_to(np.diag([0.2, 0.0]), np.shape(u)[:-1] + (2, 2)),
    )
    grid = TimeGrid(1.0, 10)
    g = PathFn(grid, np.outer(grid.nodes, [0.1, 0.05]))
    obj, x = PathRateObjective(model, g), np.zeros(2 * grid.n_steps)
    for call in (obj.value, obj.value_and_grad, lambda x: qtilde_path(model, g, restarts=0)):
        with pytest.raises(SingularVolatilityError):
            call(x)


def test_multivariate_exit_box():
    model = mixed_demo()
    dom = ExitDomain("box", lower=[-0.4, -0.5], upper=[0.3, 0.6])
    rep = exit_asymptote(model, dom, deadline=1.0, n_steps=24, restarts=1, seed=1)
    assert rep.rate > 0.0
    assert len(rep.diagnostics["faces"]) == 4
    assert rep.diagnostics["converged"]
