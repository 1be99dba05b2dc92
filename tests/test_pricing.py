import math

import numpy as np
import pytest

from ldpvol import TimeGrid
from ldpvol.errors import (
    AssumptionError,
    DomainError,
    UnsupportedDomainError,
)
from ldpvol.presets import bs_const, frac_heston, mixed_demo, reflected_ou, rough_gauss, toy_sabr
from ldpvol.pricing import (
    PENALTY_STAGES,
    ExitDomain,
    asian_asymptote,
    barrier_asymptote,
    call_asymptote,
    exit_asymptote,
    implied_vol_limit,
)
from ldpvol.ratefn import phi_batch

N_FAST = 100


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_domain_validation():
    with pytest.raises(UnsupportedDomainError):
        ExitDomain("disk")
    with pytest.raises(UnsupportedDomainError):
        ExitDomain("box", lower=[0.0], upper=[0.0])
    with pytest.raises(UnsupportedDomainError):
        ExitDomain("half_space", normal=[0.0], offset=1.0)
    d = ExitDomain("half_space", normal=[2.0], offset=4.0)
    assert d.offset == pytest.approx(2.0)  # normalized
    assert not d.strictly_outside([1.9])
    assert d.strictly_outside([2.1])


def test_domain_log_image():
    box = ExitDomain("box", lower=[0.0, 0.5], upper=[2.0, 4.0])
    im = box.log_image()
    assert im.kind == "box"
    assert im.lower[0] == -math.inf
    assert im.lower[1] == pytest.approx(math.log(0.5))
    np.testing.assert_allclose(im.upper, [math.log(2.0), math.log(4.0)])
    hs = ExitDomain("half_space", normal=[1.0], offset=1.2)
    im2 = hs.log_image()
    assert im2.upper[0] == pytest.approx(math.log(1.2))
    with pytest.raises(UnsupportedDomainError):
        ExitDomain("half_space", normal=[1.0, 1.0], offset=1.0).log_image()


def test_domain_json_roundtrip():
    for d in (
        ExitDomain("box", lower=[-1.0], upper=[0.5]),
        ExitDomain("half_space", normal=[1.0], offset=0.3),
    ):
        d2 = ExitDomain.from_json_obj(d.to_json_obj())
        assert d2.kind == d.kind


# ---------------------------------------------------------------------------
# call and implied vol
# ---------------------------------------------------------------------------


def test_call_constant_sigma_oracle():
    m = bs_const()
    rep = call_asymptote(m, math.exp(0.1), 1.0, n_steps=N_FAST)
    assert rep.rate == pytest.approx(0.01 / (2 * 0.04), rel=1e-6)


def test_call_at_the_money_zero_rate():
    assert call_asymptote(bs_const(), 1.0, 1.0, n_steps=N_FAST).rate == 0.0


def test_call_toy_inside_bounds():
    rep = call_asymptote(toy_sabr(), math.exp(0.1), 1.0)
    assert 0.005 - 1e-9 <= rep.rate <= 0.0158198


def test_call_validation():
    with pytest.raises(DomainError):
        call_asymptote(bs_const(), -1.0, 1.0)
    with pytest.raises(AssumptionError):
        call_asymptote(reflected_ou(), 1.2, 1.0)
    # vanishing sigma: strikes at or below s0*exp(rT) rejected
    m = frac_heston(r=0.02)
    with pytest.raises(DomainError):
        call_asymptote(m, 1.0, 1.0)
    rep = call_asymptote(m, 1.3, 1.0, n_steps=50, restarts=2)
    assert rep.rate > 0.0


def test_iv_limit_constant_sigma_is_sigma():
    m = bs_const(sigma0=0.35)
    rep = implied_vol_limit(m, 0.1, 1.0, n_steps=N_FAST)
    assert rep.limit_value == pytest.approx(0.35, rel=1e-6)
    rep2 = implied_vol_limit(m, 0.2, 1.0, n_steps=N_FAST)
    assert rep2.limit_value == pytest.approx(rep.limit_value, rel=1e-6)


def test_iv_limit_internal_consistency():
    rep = implied_vol_limit(toy_sabr(), 0.1, 1.0)
    assert rep.limit_value * math.sqrt(2.0 * 1.0 * rep.rate) == pytest.approx(
        0.1, abs=1e-10
    )


def test_iv_limit_degenerate_flag():
    from ldpvol.errors import UnsupportedFormError

    m = bs_const(r=0.0)
    with pytest.raises(DomainError):
        implied_vol_limit(m, 0.0, 1.0)  # k must be positive
    with pytest.raises(UnsupportedFormError):
        implied_vol_limit(bs_const(s0=2.0), 0.1, 1.0)  # needs s0 = 1


def test_iv_limit_toy_inside_bounds():
    from ldpvol.toymodel import ToyParams, iv_limit_bounds

    rep = implied_vol_limit(toy_sabr(), 0.1, 1.0)
    lo, hi = iv_limit_bounds(ToyParams(1.0, 0.1))
    assert lo <= rep.limit_value <= hi


# ---------------------------------------------------------------------------
# exit and barrier
# ---------------------------------------------------------------------------


def test_exit_half_space_oracle():
    m = bs_const()
    h = 0.17
    dom = ExitDomain("half_space", normal=[1.0], offset=h)
    rep = exit_asymptote(m, dom, deadline=1.0, n_steps=N_FAST)
    exact = h**2 / (2 * 0.04)
    assert rep.rate == pytest.approx(exact, rel=1e-2)
    assert rep.diagnostics["converged"]


def test_zero_start_alone_reaches_the_exit_closed_forms():
    # on the zero path every window node ties; the subgradient at the latest
    # one aims the zero start at the deadline, not at an exit at t = dt
    m = bs_const()
    half = ExitDomain("half_space", normal=[1.0], offset=0.17)
    rep = exit_asymptote(m, half, deadline=1.0, n_steps=200, restarts=0)
    assert rep.rate == pytest.approx(0.17**2 / (2 * 0.04), rel=1e-8)
    box = ExitDomain("box", lower=[0.0], upper=[1.25])
    rep = barrier_asymptote(m, box, 1.0, n_steps=200, restarts=0)
    assert rep.rate == pytest.approx(math.log(1.25) ** 2 / (2 * 0.04), rel=1e-8)


@pytest.mark.parametrize("factory", [frac_heston, toy_sabr], ids=lambda f: f.__name__)
def test_zero_start_alone_matches_the_multistart_exit(factory):
    dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    alone = exit_asymptote(factory(), dom, deadline=1.0, n_steps=50, restarts=0)
    multi = exit_asymptote(factory(), dom, deadline=1.0, n_steps=50)
    assert alone.rate == pytest.approx(multi.rate, rel=1e-9)


def test_exit_boundary_at_start_is_free():
    m = bs_const()
    dom = ExitDomain("half_space", normal=[1.0], offset=0.0)  # x0 = 0 on boundary
    rep = exit_asymptote(m, dom, deadline=1.0, n_steps=40, restarts=0)
    assert rep.rate == 0.0


def test_exit_outside_raises():
    m = bs_const()
    dom = ExitDomain("half_space", normal=[1.0], offset=-0.5)
    with pytest.raises(DomainError):
        exit_asymptote(m, dom, deadline=1.0, n_steps=40)


def test_exit_rate_monotone_in_deadline():
    m = bs_const()
    dom = ExitDomain("half_space", normal=[1.0], offset=0.2)
    r_half = exit_asymptote(m, dom, deadline=0.5, horizon=1.0, n_steps=N_FAST).rate
    r_full = exit_asymptote(m, dom, deadline=1.0, horizon=1.0, n_steps=N_FAST).rate
    assert r_half >= r_full - 1e-9
    # shorter window: optimal ramp reaches the boundary by t, rate h^2/(2 s^2 t)
    assert r_half == pytest.approx(0.2**2 / (2 * 0.04 * 0.5), rel=1e-2)


def test_exit_box_two_sided():
    m = bs_const()
    dom = ExitDomain("box", lower=[-0.2], upper=[0.3])
    rep = exit_asymptote(m, dom, deadline=1.0, n_steps=N_FAST)
    # the cheaper (nearer) face wins
    assert rep.rate == pytest.approx(0.2**2 / (2 * 0.04), rel=1e-2)
    assert rep.diagnostics["best_face"] == 1  # lower face


def test_barrier_oracle_and_prefactor():
    m = bs_const(r=0.05)
    pd = ExitDomain("half_space", normal=[1.0], offset=1.25)
    rep = barrier_asymptote(m, pd, horizon=1.0, n_steps=N_FAST)
    # drift r contributes through the optimizer; with r=0 the oracle is exact
    assert rep.diagnostics["discount_prefactor"] == pytest.approx(math.exp(-0.05))
    m0 = bs_const()
    rep0 = barrier_asymptote(m0, pd, horizon=1.0, n_steps=N_FAST)
    assert rep0.rate == pytest.approx(math.log(1.25) ** 2 / (2 * 0.04), rel=1e-2)


# The oracle of an m = 1 exit face: a loop over the window nodes t_j, 0 once
# the zero path reaches the face, else the least terminal rate at a.c on the
# grid cut at t_j (beyond the zero-control point the half-space's infimum is
# the terminal rate at its face, as for ``inf_tail``).
M1_PRESETS = [bs_const, toy_sabr, rough_gauss, frac_heston, reflected_ou]


def _drifted(factory, b):
    model = factory()
    model.drift = lambda t, u: np.full(np.shape(u)[:-1] + (1,), b)
    return model


def _node_scan(model, face, deadline, n_steps, restarts=1):
    from ldpvol.pricing import exit_window
    from ldpvol.ratefn import itilde_terminal

    (a,), c = face
    grid = TimeGrid(1.0, n_steps)
    zero = np.zeros((n_steps, 1))
    reach = a * phi_batch(model, grid, zero, zero)[:, 0]
    nodes = np.flatnonzero(exit_window(grid, deadline))
    if np.any(reach[nodes] >= c):
        return 0.0
    cut = [TimeGrid(j * grid.dt, j) for j in nodes]
    return min(itilde_terminal(model, a * c, grid=g, restarts=restarts).value for g in cut)


def _check_exit_pair(model, dom, rep):
    """The reported pair reaches the face at its exit time, costs the rate,
    and both controls are zero after the exit time."""
    from ldpvol.paths import energy

    grid = rep.minimizer_f.grid
    face = rep.diagnostics["faces"][rep.diagnostics["best_face"]]
    (a, c) = dom.shifted_faces(model.x0)[face["face"]]
    node = int(round(rep.diagnostics["exit_time"] / grid.dt))
    assert grid.nodes[node] == rep.diagnostics["exit_time"] == face["exit_time"]
    l_dots, f_dots = rep.minimizer_l.dot_values, rep.minimizer_f.dot_values
    phi = phi_batch(model, grid, l_dots, f_dots)
    assert float(a @ phi[node]) >= c - 1e-12 * max(1.0, abs(c))
    assert abs(energy(rep.minimizer_l) + energy(rep.minimizer_f) - rep.rate) <= 1e-12 * rep.rate
    assert not np.any(l_dots[node:]) and not np.any(f_dots[node:])


# The test keeps its name from when the penalty path was the oracle of these
# faces (r = 0, the default drift); the oracle is now the node loop.
@pytest.mark.parametrize("deadline", [1.0, 0.63])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
@pytest.mark.parametrize("factory", M1_PRESETS, ids=lambda f: f.__name__)
def test_terminal_exit_equals_the_penalty_path(factory, side, deadline):
    model, n = factory(), 50
    assert model.r == 0.0 and model.drift is None
    dom = ExitDomain("half_space", normal=[side], offset=0.1)
    rep = exit_asymptote(model, dom, deadline=deadline, horizon=1.0, n_steps=n)
    assert rep.diagnostics["converged"]
    want = _node_scan(model, dom.shifted_faces(model.x0)[0], deadline, n)
    assert abs(rep.rate - want) <= 1e-9 * want
    _check_exit_pair(model, dom, rep)
    if factory is bs_const:  # h^2 / (2 sigma^2 t_J)
        last = TimeGrid(1.0, n).nodes[int(deadline * n)]
        assert rep.diagnostics["exit_time"] == last
        assert rep.rate == pytest.approx(0.1**2 / (2 * 0.04 * last), rel=1e-12)


@pytest.mark.parametrize("deadline", [1.0, 0.63])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
@pytest.mark.parametrize("drift", [0.05, -0.05], ids=["up", "down"])
@pytest.mark.parametrize("factory", M1_PRESETS, ids=lambda f: f.__name__)
def test_exit_under_a_drift_equals_the_node_scan(factory, drift, side, deadline):
    # a drift toward the face and one away from it; away from it, the zero
    # path lies nearest the face at the first node, where a penalty on the
    # windowed maximum aims every start
    model, n = _drifted(factory, drift), 30
    dom = ExitDomain("half_space", normal=[side], offset=0.1)
    rep = exit_asymptote(model, dom, deadline=deadline, horizon=1.0, n_steps=n)
    assert rep.diagnostics["converged"]
    want = _node_scan(model, dom.shifted_faces(model.x0)[0], deadline, n)
    assert abs(rep.rate - want) <= 1e-9 * want
    _check_exit_pair(model, dom, rep)


def _bs_exit_closed_form(c, b, n_steps, deadline=1.0):
    """min over window nodes t_j of (c - b t_j)^2 / (2 sigma^2 t_j), bs_const
    with sigma = 0.2 and drift b toward the face."""
    t = TimeGrid(1.0, n_steps).nodes[1:]
    t = t[t <= deadline + 1e-12]
    return float(np.min((c - b * t) ** 2 / (2 * 0.04 * t)))


@pytest.mark.parametrize(
    "model, dom, toward",
    [
        (_drifted(bs_const, -0.05), ExitDomain("half_space", normal=[1.0], offset=0.1), -0.05),
        (bs_const(r=0.05), ExitDomain("half_space", normal=[-1.0], offset=0.1), -0.05),
        (bs_const(r=0.05), ExitDomain("half_space", normal=[1.0], offset=0.1), 0.05),
    ],
    ids=["custom_drift_upper", "r>0_lower", "r>0_upper"],
)
def test_bs_exit_against_and_with_the_drift_equals_the_closed_form(model, dom, toward):
    rep = exit_asymptote(model, dom, deadline=1.0, n_steps=40, restarts=2)
    assert rep.diagnostics["converged"]
    assert rep.rate == pytest.approx(_bs_exit_closed_form(0.1, toward, 40), rel=1e-12)
    assert rep.diagnostics["exit_time"] == 1.0
    _check_exit_pair(model, dom, rep)
    if toward < 0:  # (0.1 + 0.05)^2 / 0.08
        assert rep.rate == pytest.approx(0.28125, rel=1e-12)


def test_barrier_with_rate_equals_the_closed_form():
    # the lower barrier lies against the drift r: (log(1/0.9) + r t)^2 / (2 sigma^2 t)
    pd = ExitDomain("box", lower=[0.9], upper=[1.25])
    rep = barrier_asymptote(bs_const(r=0.05), pd, horizon=1.0, n_steps=50)
    faces = [f["rate"] for f in rep.diagnostics["faces"]]
    want = [_bs_exit_closed_form(math.log(1.25), 0.05, 50),
            _bs_exit_closed_form(-math.log(0.9), -0.05, 50)]
    assert faces == pytest.approx(want, rel=1e-12)
    assert rep.rate == pytest.approx(min(want), rel=1e-12) and rep.diagnostics["best_face"] == 1


def test_exit_two_sided_box_takes_the_terminal_path_on_both_faces():
    dom = ExitDomain("box", lower=[-0.2], upper=[0.3])
    rep = exit_asymptote(bs_const(), dom, deadline=1.0, n_steps=N_FAST)
    faces = rep.diagnostics["faces"]
    assert [f["rate"] for f in faces] == pytest.approx([0.3**2 / 0.08, 0.2**2 / 0.08], rel=1e-12)
    assert [f["exit_time"] for f in faces] == [1.0, 1.0]
    assert rep.diagnostics["best_face"] == 1
    assert all(f["evaluation_rounds"] <= 10 for f in faces)


def test_multivariate_exit_box_keeps_its_face_rates():
    # r = 0, so every window node ties on the zero path and the faces' rates
    # of the windowed-maximum penalty solve were right; they stay
    model = mixed_demo()
    dom = ExitDomain("box", lower=[-0.4, -0.5], upper=[0.3, 0.6])
    rep = exit_asymptote(model, dom, deadline=1.0, n_steps=24, restarts=1, seed=1)
    assert [f["rate"] for f in rep.diagnostics["faces"]] == pytest.approx(
        [0.3931305348074319, 1.1597191268144451, 0.9833287533240608, 1.2719800000349721],
        rel=1e-6,
    )
    assert all(f["converged"] for f in rep.diagnostics["faces"])
    _check_exit_pair(model, dom, rep)


def test_constant_vol_rates_equal_the_brownian_kernel_spec():
    # bs_const's sigma never reads its vol, so declaring the vol constant (no
    # noise kernel) instead of Brownian changes no rate and no minimizer
    from ldpvol.kernels import brownian
    from ldpvol.paths import PathFn
    from ldpvol.ratefn import itilde_terminal, qtilde_path
    from ldpvol.volmap import GAUSSIAN, VolProcessSpec

    grid = TimeGrid(1.0, 40)
    target = PathFn(grid, 0.1 * grid.nodes[:, None])
    half = ExitDomain("half_space", normal=[1.0], offset=0.17)
    box = ExitDomain("box", lower=[0.8], upper=[1.25])

    def rates(model):
        return [
            itilde_terminal(model, 0.1, grid=grid, restarts=2).to_json_obj(),
            qtilde_path(model, target, restarts=1).to_json_obj(),
            asian_asymptote(model, 1.05, 1.0, n_steps=40, restarts=1).to_json_obj(),
            exit_asymptote(model, half, 1.0, n_steps=40, restarts=1).to_json_obj(),
            barrier_asymptote(model, box, 1.0, n_steps=40, restarts=1).to_json_obj(),
        ]

    brownian_vol = bs_const()
    brownian_vol.vol = VolProcessSpec(family=GAUSSIAN, noise_kernels=[[brownian()]])
    assert bs_const().vol.noise_kernels == [[None]]
    assert rates(bs_const()) == rates(brownian_vol)


def test_barrier_at_spot_zero_rate():
    m = bs_const()
    pd = ExitDomain("box", lower=[0.0], upper=[1.0])  # upper barrier at s0
    rep = barrier_asymptote(m, pd, horizon=1.0, n_steps=40, restarts=0)
    assert rep.rate == 0.0


def test_barrier_widening_box_never_decreases_rate():
    m = bs_const()
    rates = []
    for hi in (1.2, 1.35, 1.5):
        pd = ExitDomain("box", lower=[0.0], upper=[hi])
        rates.append(barrier_asymptote(m, pd, horizon=1.0, n_steps=60, restarts=2).rate)
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_barrier_requires_positive_orthant():
    m = bs_const()
    with pytest.raises(DomainError):
        barrier_asymptote(m, ExitDomain("box", lower=[-1.0], upper=[2.0]), 1.0)


# ---------------------------------------------------------------------------
# asian
# ---------------------------------------------------------------------------


def test_asian_zero_rate_at_or_below_spot():
    m = bs_const()
    for K in (0.8, 1.0):
        rep = asian_asymptote(m, K, 1.0, n_steps=40)
        assert rep.rate == 0.0
        assert rep.diagnostics["converged"]
        assert not np.any(rep.minimizer_f.dot_values)
        assert not np.any(rep.minimizer_l.dot_values)
        # the zero-path diagnostics every constrained solve shares
        assert rep.diagnostics["iterations"] == 0
        assert rep.diagnostics["restart_values"] == []
        assert rep.diagnostics["restart_iterations"] == []
        assert rep.diagnostics["restart_stops"] == []
        assert rep.diagnostics["gradient_evaluations"] == 0


def test_asian_monotone_ladder():
    m = bs_const()
    rates = [asian_asymptote(m, K, 1.0, n_steps=50).rate for K in (1.05, 1.1, 1.2)]
    assert all(r > 0 for r in rates)
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_asian_brute_force_gap():
    # dense random search over coarse controls upper-bounds the optimizer;
    # candidates mix smooth random profiles with rough noise in both controls
    m = bs_const()
    K = 1.05
    n8 = 8
    rep = asian_asymptote(m, K, 1.0, n_steps=n8)
    grid8 = TimeGrid(1.0, n8)
    from ldpvol.pricing import _AsianProblem

    prob = _AsianProblem(m, grid8, K)
    tk = grid8.nodes[:-1]
    rng = np.random.default_rng(2024)
    best = math.inf
    chunk = 25_000
    for _ in range(10**6 // chunk):
        amp = rng.normal(scale=0.8, size=(chunk, 1))
        decay = rng.uniform(0.0, 6.0, size=(chunk, 1))
        rough = rng.uniform(0.0, 0.12, size=(chunk, 1))
        l = amp * np.exp(-decay * tk) + rough * rng.standard_normal((chunk, n8))
        f = rng.uniform(0.0, 0.25, size=(chunk, 1)) * rng.standard_normal((chunk, n8))
        z = np.concatenate([l, f], axis=1)
        feas = prob.violation_batch(z) <= 0.0
        if np.any(feas):
            best = min(best, float(np.min(prob.energies(z[feas]))))
    assert best >= rep.rate - 1e-9
    assert best <= 1.10 * rep.rate


def test_exit_toy_joint_control_beats_frozen_volatility():
    # with state-dependent vol the optimizer can spend energy raising the
    # volatility; the rate must beat the best strategy that leaves it frozen
    m = toy_sabr()
    h = 0.3
    dom = ExitDomain("half_space", normal=[1.0], offset=h)
    rep = exit_asymptote(m, dom, deadline=1.0, n_steps=80, restarts=3)
    # frozen-vol cost: reach h against sigma(t) = e^(-t/2), Cauchy-Schwarz
    frozen = h**2 / (2.0 * (1.0 - math.exp(-1.0)))
    assert rep.diagnostics["converged"]
    assert rep.rate < frozen - 1e-4
    assert rep.rate > 0.5 * frozen  # but not implausibly cheap


def test_inf_tail_correlated_matches_scan():
    # the one terminal solve at k is no worse than a coarse dense scan of the tail
    from ldpvol.presets import rough_gauss
    from ldpvol.ratefn import inf_tail_result, itilde_terminal

    m = rough_gauss()  # correlated
    grid = TimeGrid(1.0, 60)
    k = 0.1
    v_inf, _ = inf_tail_result(m, k, grid=grid, restarts=2)
    scan = min(
        itilde_terminal(m, x, grid=grid, restarts=2).value
        for x in np.linspace(k, k + 0.6, 7)
    )
    assert v_inf <= scan + 1e-6


def test_asian_vanishing_sigma_threshold():
    m = frac_heston(r=0.05)
    limit = 1.0 * (math.exp(0.05) - 1.0) / 0.05
    with pytest.raises(DomainError):
        asian_asymptote(m, limit * 0.999, 1.0, n_steps=40)


# ---------------------------------------------------------------------------
# gradient oracle of the constrained problems
# ---------------------------------------------------------------------------


def _joint_problems(model, grid):
    """The Asian problem and the half-space face for m = 1, box-exit faces
    for every m; each with its control dimension."""
    from ldpvol.pricing import _AsianProblem
    from ldpvol.ratefn import ExitFaceObjective

    m = model.m
    box = ExitDomain("box", lower=[-0.2] * m, upper=[0.25] * m)
    faces = box.faces()
    if m == 1:
        yield "asian", _AsianProblem(model, grid, 1.05), 2 * m
        faces = ExitDomain("half_space", normal=[1.0], offset=0.17).faces() + faces
    for idx, face in enumerate(faces):
        yield f"exit_face{idx}", ExitFaceObjective(model, grid, face, 0.9), m


@pytest.mark.parametrize("mu", [10.0, 1e4])
@pytest.mark.parametrize(
    "factory", [bs_const, rough_gauss, frac_heston, mixed_demo],
    ids=lambda f: f.__name__.strip("_"),
)
def test_joint_problem_gradient_oracle(factory, mu):
    from ldpvol.ratefn import check_gradient

    grid = TimeGrid(1.0, 40)
    rng = np.random.default_rng(99)
    for name, prob, control_dim in _joint_problems(factory(), grid):
        if name == "asian":  # the exit objectives have no penalty weight
            prob.mu = mu
        scale = math.sqrt(2.0 / (control_dim * grid.horizon))  # restart size
        for _ in range(2):
            z = rng.normal(scale=scale, size=grid.n_steps * control_dim)
            assert check_gradient(prob, z) < 1e-5, name


def test_pricer_diagnostics_carry_restarts():
    rep = asian_asymptote(bs_const(), 1.05, 1.0, n_steps=40, restarts=2)
    assert len(rep.diagnostics["restart_values"]) == 3
    assert len(rep.diagnostics["restart_iterations"]) == 3
    assert len(rep.diagnostics["restart_stops"]) == 3
    assert set(rep.diagnostics["restart_stops"]) <= {"gtol", "ftol"}
    assert rep.diagnostics["gradient_evaluations"] >= rep.diagnostics["iterations"]
    # each round evaluates every unfinished start in one call
    assert 0 < rep.diagnostics["evaluation_rounds"] < rep.diagnostics["gradient_evaluations"]
    # each later penalty stage reports why it stopped; the zero path has none
    assert len(rep.diagnostics["stage_stops"]) == PENALTY_STAGES - 1
    assert set(rep.diagnostics["stage_stops"]) <= {"gtol", "ftol", "maxiter", "line_search"}
    assert asian_asymptote(bs_const(), 1.0, 1.0, n_steps=40).diagnostics["stage_stops"] == []
    dom = ExitDomain("box", lower=[-0.2], upper=[0.25])
    rep = exit_asymptote(bs_const(), dom, deadline=1.0, n_steps=40, restarts=1)
    assert all(len(face["restart_values"]) == 2 for face in rep.diagnostics["faces"])
    assert len(rep.diagnostics["restart_values"]) == 2
    assert all("stage_stops" not in face for face in rep.diagnostics["faces"])
    call = call_asymptote(toy_sabr(), 1.105, 1.0, n_steps=40, restarts=2)
    assert len(call.diagnostics["restart_values"]) == 3
