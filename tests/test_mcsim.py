import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from ldpvol import TimeGrid
from ldpvol.errors import ConvergenceError, DomainError
from ldpvol.kernels import brownian, molchan_golosov, riemann_liouville, rms_weights, slice_variance
from ldpvol.mcsim import (
    BLOCK_SIZE,
    MIX_ROWS,
    RNG_SCHEME,
    SimConfig,
    _block_rng,
    _draw_increments,
    _displacements,
    _face_thresholds,
    _finite_rows,
    _Moments,
    _per_eps_payoff_stats,
    _reduce_report,
    _run_blocks,
    _running_noise,
    _terminal,
    _vol_block,
    ldp_tail_report,
    mc_call_report,
    mc_exit_report,
    simulate_logprice,
    simulate_vol,
)
from ldpvol.presets import PRESETS, bs_const, frac_heston, make_model, toy_sabr
from ldpvol.pricing import ExitDomain
from ldpvol.ratefn import ModelSpec, _phi_drive, _phi_from, _phi_increment, phi_batch
from ldpvol.volmap import (
    FAMILIES,
    FRACTIONAL,
    GAUSSIAN,
    MIXED,
    VOLTERRA_SDE,
    VolProcessSpec,
    cir_coefficients,
    is_affine,
    is_constant,
    ou_coefficients,
    vol_state,
)

GRID = TimeGrid(1.0, 100)


def _lin(spec, grid, db):
    """The eps-free vol part a block of an affine, non-constant vol carries,
    node-major: vol_state(db) - y at the left nodes; None for every other
    vol."""
    if not is_affine(spec) or is_constant(spec):
        return None
    vals = vol_state(spec, db, grid, rms_weights)[:, :-1] - spec.y
    return np.moveaxis(vals, 1, 0)


def _block_drive(model, grid, dw, db):
    """A hand-made block's drive as ``_run_blocks`` stores it: the mixed
    noise ``_phi_drive(model, dW, dB)`` node-major, turned into its running
    sigma-weighted sum (``_running_noise``) for a constant vol."""
    drive = np.moveaxis(_phi_drive(model, dw, db), 1, 0).copy()
    if is_constant(model.vol):
        _running_noise(model, grid, drive)
    return drive


def _walk(model, grid, eps, db, drive, lin=None, first=1):
    """The displacements ``_displacements`` yields from node ``first`` on,
    copied into (size, n+1, m); nodes before ``first`` stay zero."""
    path = np.zeros((drive.shape[1], grid.n_steps + 1, model.m))
    for k, x in _displacements(model, grid, eps, db, drive, lin, first):
        path[:, k] = x
    return path


def _cfg(model, ladder=(0.4,), n_paths=20000, seed=1, grid=GRID, **kw):
    return SimConfig(
        model=model, epsilon_ladder=list(ladder), n_paths=n_paths, grid=grid, seed=seed, **kw
    )


def test_simconfig_validation():
    with pytest.raises(DomainError):
        _cfg(bs_const(), ladder=(0.4, 0.4))
    with pytest.raises(DomainError):
        _cfg(bs_const(), ladder=(1.5,))
    with pytest.warns(UserWarning):
        _cfg(bs_const(), n_paths=10)
    for w in (0, -2):
        with pytest.raises(DomainError):
            _cfg(bs_const(), max_workers=w)


def test_gaussian_vol_ito_isometry():
    spec = VolProcessSpec(
        family=GAUSSIAN, d=1, m=1, noise_kernels=[[riemann_liouville(0.3)]]
    )
    ens = simulate_vol(spec, 1.0, 20000, GRID, seed=42)
    assert ens.n_excluded == 0
    got = float(ens.paths[:, -1, 0].var())
    want = slice_variance(riemann_liouville(0.3), 1.0)
    se = want * math.sqrt(2.0 / 20000)
    assert abs(got - want) < 3 * se


def _volterra_sde_spec():
    def c_map(t, s, x):
        return np.broadcast_to((0.5 * (t - s) ** -0.2)[:, None, None], x.shape[:-1] + (1, 1))

    return VolProcessSpec(
        family=VOLTERRA_SDE, d=1, m=1, volterra_a=lambda t, s, x: -x, volterra_c=c_map, y=[0.1]
    )


def test_vol_eps_zero_is_skeleton():
    # one scheme per family: the simulator without noise is the skeleton at
    # zero control
    from ldpvol.paths import Control
    from ldpvol.volmap import hat_map

    specs = [make_model(name).vol for name in ("toy_sabr", "rough_gauss", "frac_heston",
                                                "mixed_demo", "reflected_ou")]
    specs.append(_volterra_sde_spec())
    assert {s.family for s in specs} == set(FAMILIES)
    for spec in specs:
        ens = simulate_vol(spec, 0.0, 50, GRID, seed=5)
        skel = hat_map(spec, Control.zero(GRID, spec.m)).values
        assert np.max(np.abs(ens.paths - skel)) < 1e-12, spec.family


def test_ou_fractional_mean_unbiased():
    # y_T = int_0^T v_s ds for an OU factor started at its mean 0: exact mean 0.
    # The scheme must feed the coefficients the state itself, not its
    # positive part.
    drift, disp = ou_coefficients(1.5, 0.0, 0.4)
    spec = VolProcessSpec(
        family=FRACTIONAL,
        d=1,
        m=1,
        k_dim=1,
        drift_kernels=[brownian()],
        u_map=lambda v: v,
        aux_drift=drift,
        aux_disp=disp,
        v0=[0.0],
    )
    n = 20000
    y_t = simulate_vol(spec, 1.0, n, GRID, seed=31).paths[:, -1, 0]
    se = float(y_t.std()) / math.sqrt(n)
    assert abs(float(y_t.mean())) < 4 * se


def test_vol_scaling_coherence_toy():
    spec = toy_sabr().vol
    e1 = simulate_vol(spec, 1.0, 256, GRID, seed=7).paths
    e2 = simulate_vol(spec, 0.25, 256, GRID, seed=7).paths
    assert np.max(np.abs(e2 - 0.5 * e1)) < 1e-12


def test_cir_small_eps_tube():
    kappa, theta, eta, v0 = 2.0, 0.09, 0.4, 0.02
    drift, disp = cir_coefficients(kappa, theta, eta)
    spec = frac_heston(kappa=kappa, theta=theta, eta=eta, v0=v0).vol
    eps = 0.01
    ens = simulate_vol(spec, eps, 2000, GRID, seed=9)
    # auxiliary CIR paths cluster around the mean-reversion solution; the
    # smoothed output stays in a sqrt(eps)-width tube around the skeleton
    from ldpvol.paths import Control
    from ldpvol.volmap import hat_map

    skel = hat_map(spec, Control.zero(GRID, 1)).values[:, 0]
    spread = np.max(np.abs(ens.paths[:, :, 0] - skel), axis=1)
    assert np.quantile(spread, 0.99) < 10.0 * math.sqrt(eps) * eta


def test_logprice_constant_sigma_is_gaussian():
    m = bs_const()
    cfg = _cfg(m, ladder=(1.0,), n_paths=50000)
    s = simulate_logprice(cfg, 1.0)
    assert s.n_excluded == 0
    var = float(s.terminal[:, 0].var())
    se = 0.04 * math.sqrt(2.0 / 50000)
    assert abs(var - 0.04) < 3 * se
    assert abs(float(s.terminal[:, 0].mean()) + 0.02) < 3 * 0.2 / math.sqrt(50000)


def test_logprice_eps_zero_deterministic_drift():
    m = bs_const(r=0.03)
    with pytest.warns(UserWarning):  # tiny path count triggers the validity warning
        cfg = _cfg(m, ladder=(0.5,), n_paths=64)
    s = simulate_logprice(cfg, 0.0)
    np.testing.assert_allclose(s.terminal[:, 0], 0.03, atol=1e-12)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_logprice_block_runs_the_functional_step(name):
    # driven by control increments at eps = 1, the simulated path is the
    # functional with drift b - diag(sigma sigma')/2 on the simulated vol path
    model = make_model(name)
    grid = TimeGrid(1.0, 30)
    n, m, dt = grid.n_steps, model.m, grid.dt
    l_dots, f_dots = np.random.default_rng(5).normal(size=(2, 3, n, m))
    drive = _block_drive(model, grid, l_dots * dt, f_dots * dt)
    lin = _lin(model.vol, grid, f_dots * dt)
    path = _walk(model, grid, 1.0, f_dots * dt, drive, lin)
    x = _walk(model, grid, 1.0, f_dots * dt, drive, lin, n)[:, -1]
    assert np.all(_finite_rows(x))
    np.testing.assert_array_equal(x, path[:, -1])
    tk = grid.nodes[:-1]
    u = _vol_block(model.vol, f_dots * dt, grid, 1.0)[:, :-1]
    sig = model.sigma_values(tk, u)
    half_quad = 0.5 * (sig[..., None] ** 2 if m == 1 else np.einsum("...ab,...ab->...a", sig, sig))
    b = model.drift_values(tk, u) - half_quad
    want = _phi_from(model, grid, b, sig, _phi_drive(model, l_dots, f_dots))
    np.testing.assert_allclose(path, want, rtol=0.0, atol=1e-12)
    if model.vol.family not in (GAUSSIAN, MIXED):
        # no noise table (rms_weights here, pc_weights in the skeleton) is
        # read, so the vol path is the skeleton's and the Ito term is all
        # that separates the path from phi
        ito = np.zeros_like(path)
        ito[:, 1:] = np.cumsum(half_quad * dt, axis=1)
        np.testing.assert_allclose(
            path + ito, phi_batch(model, grid, l_dots, f_dots), rtol=0.0, atol=1e-12
        )


def test_determinism_and_repartitioning():
    m = toy_sabr()
    cfg1 = _cfg(m, ladder=(0.2,), n_paths=5000, seed=33, max_workers=1)
    cfg2 = _cfg(m, ladder=(0.2,), n_paths=5000, seed=33, max_workers=4)
    a = simulate_logprice(cfg1, 0.2).terminal
    b = simulate_logprice(cfg2, 0.2).terminal
    np.testing.assert_array_equal(a, b)
    r1 = ldp_tail_report(cfg1, 0.1, reference_rate=0.0)
    r2 = ldp_tail_report(cfg2, 0.1, reference_rate=0.0)
    assert r1.rows[0].estimate == r2.rows[0].estimate


def test_simulate_vol_skips_unused_price_noise():
    # the driver noise is the first fill of each block's substream, so the
    # ensemble is bit-identical whether or not the price noise is drawn
    spec = toy_sabr().vol
    grid = TimeGrid(1.0, 20)
    n_paths, seed, eps = 3000, 19, 0.3
    ens = simulate_vol(spec, eps, n_paths, grid, seed)
    z = _block_rng(seed, 0).standard_normal((n_paths, grid.n_steps, 1))
    db = z * math.sqrt(grid.dt)
    np.testing.assert_array_equal(ens.paths, _vol_block(spec, db, grid, eps))


def test_block_rng_is_seedsequence_keyed_sfc64():
    for seed, b in [(0, 0), (19, 5), (2**40 + 3, 123)]:
        ref = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence([seed % 2**64, 0, b]))
        )
        np.testing.assert_array_equal(
            _block_rng(seed, b).standard_normal(64), ref.standard_normal(64)
        )
    # the seed enters modulo 2^64
    np.testing.assert_array_equal(
        _block_rng(-1, 2).standard_normal(64), _block_rng(2**64 - 1, 2).standard_normal(64)
    )
    firsts = {_block_rng(5, b).standard_normal() for b in range(32)}
    assert len(firsts) == 32


def _affine_pair():
    """An affine d = m = 2 Gaussian model with a full correlation matrix C."""
    vol = VolProcessSpec(
        family=GAUSSIAN, d=2, m=2, y=[0.1, -0.1],
        noise_kernels=[[riemann_liouville(0.3), brownian()], [None, riemann_liouville(0.4)]],
    )

    def sigma(t, u):
        s = np.zeros(np.shape(u)[:-1] + (2, 2))
        s[..., 0, 0], s[..., 1, 1] = 0.2 * np.exp(u[..., 0]), 0.3 * np.exp(u[..., 1])
        s[..., 0, 1] = 0.05
        return s

    return ModelSpec(m=2, vol=vol, sigma=sigma, C=[[0.3, 0.2], [-0.1, 0.4]], s0=[1.0, 1.0])


def _plain_ids(values):
    """Case ids ending in "-False": these cases ran with antithetic=False
    while antithetic pairs existed, and keep their ids now that every block
    is a plain i.i.d. draw."""
    return [f"{value}-False" for value in values]


def _reads_db(model):
    """Whether a block of ``model`` draws the driver noise dB: its vol is not
    constant, or its price noise is correlated with dB."""
    return not is_constant(model.vol) or bool(model.C.any())


def _block_noise(seed, b, size, grid, model):
    """Block b's whole-block fills, driver noise dB then price noise dW; dB
    is zero, and not drawn, where nothing reads it."""
    rng = _block_rng(seed, b)
    db, dw = np.zeros((2, size, grid.n_steps, model.vol.m))
    if _reads_db(model):
        _draw_increments(rng, db, grid.dt)
    _draw_increments(rng, dw, grid.dt)
    return db, dw


def _brownian_bs(**params):
    """bs_const on a Brownian-kernel vol that its sigma never reads."""
    model = bs_const(**params)
    model.vol = VolProcessSpec(family=GAUSSIAN, noise_kernels=[[brownian()]])
    return model


_DRIVE_MODELS = {
    "bs_const": bs_const,  # constant vol, rho = 0: dW alone
    "bs_const_rho": functools.partial(bs_const, rho=-0.5),  # constant vol, dB parked
    "toy_sabr": toy_sabr,  # affine vol with L, dB parked
    "mixed_demo": functools.partial(make_model, "mixed_demo"),
    "affine_pair": _affine_pair,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(_DRIVE_MODELS), ids=_plain_ids(sorted(_DRIVE_MODELS)))
def test_block_drive_is_the_mixed_whole_block_noise(name, workers):
    # the price noise drawn and mixed MIX_ROWS paths at a time is, bit for
    # bit, the mix of whole-block fills (db, then dW) stored node-major, also
    # where an affine or constant vol draws db in chunks and parks it in the
    # drive buffer (db is None then), and where a constant vol with C = 0
    # draws no db at all; a constant vol's drive is its running
    # sigma-weighted sum; the second block is odd and not a multiple of
    # MIX_ROWS
    model = _DRIVE_MODELS[name]()
    grid = TimeGrid(1.0, 5)
    seed, sizes, m = 23, [BLOCK_SIZE, 1001], model.vol.m
    assert sizes[1] % MIX_ROWS and sizes[1] % 2
    assert is_affine(model.vol) == (name != "mixed_demo")

    def block(eps, db, drive, lin):
        return [None if a is None else a.copy() for a in (db, drive, lin)]

    (got,) = _run_blocks(block, [0.3], sum(sizes), grid, m, seed, workers, model)
    assert _reads_db(model) == (name != "bs_const")
    for b, size in enumerate(sizes):
        db, dw = _block_noise(seed, b, size, grid, model)
        if is_affine(model.vol):
            assert got[b][0] is None
        else:
            np.testing.assert_array_equal(got[b][0], db)
        np.testing.assert_array_equal(got[b][1], _block_drive(model, grid, dw, db))
        # the eps-free vol part rides in the same chunks, for a non-constant
        # affine vol only
        np.testing.assert_array_equal(got[b][2], _lin(model.vol, grid, db))


def _exit_ladder_peak(model, grid, n_paths):
    """Traced peak of a two-entry exit ladder, in bytes."""
    import tracemalloc

    cfg = _cfg(model, ladder=(0.4, 0.2), n_paths=n_paths, grid=grid)
    dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_exit_report(cfg, dom, 1.0, reference_rate=0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak


def test_exit_ladder_holds_no_second_noise_buffer():
    # a one-block exit ladder of toy_sabr (affine vol) holds two block arrays,
    # the drive and the eps-free vol part, plus chunk and per-node
    # temporaries, about 2.4 in all; a whole-block driver noise buffer next to
    # them, or a second noise buffer, would add a third
    model, grid, size = toy_sabr(), TimeGrid(1.0, 50), 1 << 12
    assert _exit_ladder_peak(model, grid, size) <= 2.5 * size * grid.n_steps * model.m * 8


def test_constant_vol_exit_ladder_holds_the_drive_alone():
    # a constant vol (bs_const) keeps no eps-free vol part and, with rho = 0,
    # draws no driver noise: one block array, the drive, plus chunk and
    # per-node temporaries; an L buffer or parked dB next to it would add a
    # second
    model, grid, size = bs_const(), TimeGrid(1.0, 50), 1 << 12
    assert _exit_ladder_peak(model, grid, size) <= 1.5 * size * grid.n_steps * model.m * 8


def _gauss_model(kernel, reflect=False, y=0.0):
    """rough_gauss's price on a Gaussian vol with the given noise kernel."""
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=1, noise_kernels=[[kernel]], y=[y],
                         reflect=reflect)
    return ModelSpec(m=1, vol=vol, sigma=lambda t, u: 0.2 * np.exp(u[..., 0]), rho=-0.3,
                     sigma_positive=True, assumption_b=True)


_LADDER_MODELS = {
    **{name: functools.partial(make_model, name) for name in sorted(PRESETS)},
    "mg_h03": lambda: _gauss_model(molchan_golosov(0.3), y=0.1),
    "reflected_gauss": lambda: _gauss_model(riemann_liouville(0.3), reflect=True),
}


def _per_eps_terminal(model, grid, eps, db, drive):
    """The per-epsilon scheme: the whole vol block of sqrt(eps) dB, read one
    strided column per node."""
    vol = _vol_block(model.vol, db, grid, eps)
    x = np.zeros((db.shape[0], model.m))
    for k, t in enumerate(grid.nodes[:-1]):
        u = vol[:, k, :]
        x += _phi_increment(model, model.drift_values(t, u), model.sigma_values(t, u),
                            math.sqrt(eps) / grid.dt * drive[k], grid.dt, eps)
    return x


@pytest.mark.parametrize("name", sorted(_LADDER_MODELS), ids=_plain_ids(sorted(_LADDER_MODELS)))
def test_block_vol_part_matches_the_per_epsilon_scheme(name):
    # every ladder epsilon of one block: a constant vol (bs_const) reads one
    # row of its running noise sum, within rounding of the node loop; an
    # affine vol (toy, unreflected Gaussian) reads y + sqrt(eps) L built once
    # per block, within rounding of vol_state(sqrt(eps) dB); every other vol
    # keeps the per-epsilon scheme, bit for bit
    model = _LADDER_MODELS[name]()
    grid = TimeGrid(1.0, 40)
    whole, dw = _block_noise(9, 0, 3001, grid, model)
    raw = np.moveaxis(_phi_drive(model, dw, whole), 1, 0)
    seen = []

    def block(eps, db, drive, lin):
        seen.append(lin is not None)
        # an affine or constant block draws db in chunks, if at all, and keeps
        # none; any other gets it whole
        assert (db is None) == is_affine(model.vol)
        if db is not None:
            np.testing.assert_array_equal(db, whole)
        x = _walk(model, grid, eps, db, drive, lin, grid.n_steps)[:, -1]
        assert np.all(_finite_rows(x))
        return x, _per_eps_terminal(model, grid, eps, whole, raw)

    ladder = [0.4, 0.2, 0.1, 0.05]
    per_eps = _run_blocks(block, ladder, 3001, grid, model.vol.m, 9, 1, model)
    assert seen == [is_affine(model.vol) and not is_constant(model.vol)] * len(ladder)
    assert is_affine(model.vol) == (name in ("bs_const", "toy_sabr", "rough_gauss", "mg_h03"))
    assert is_constant(model.vol) == (name == "bs_const")
    for ((got, want),) in per_eps:
        if name in ("toy_sabr", "rough_gauss", "mg_h03"):
            assert np.max(np.abs(got - want)) <= 1e-12
        elif name == "bs_const":
            assert np.max(np.abs(got - want)) <= 1e-13
        else:
            np.testing.assert_array_equal(got, want)


def test_tail_ladder_holds_no_per_epsilon_vol_block():
    # an affine vol's ladder keeps two block arrays (the drive, in which the
    # driver noise is parked chunk by chunk, and the eps-free vol part) and
    # chunk temporaries, about 2.4 in all; a whole-block driver noise buffer
    # would add a third, and building each epsilon's whole vol block from
    # sqrt(eps) dB peaks at 5.0
    import tracemalloc

    model = make_model("rough_gauss")
    grid, size = TimeGrid(1.0, 50), 1 << 12
    cfg = _cfg(model, ladder=(0.4, 0.2), n_paths=size, grid=grid)
    rms_weights(model.vol.noise_kernels[0][0], grid)  # the cached table is not the ladder's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ldp_tail_report(cfg, 0.1, reference_rate=0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * size * grid.n_steps * model.m * 8


def test_ladder_peak_does_not_grow_with_n_paths():
    # every block reuses its worker's buffers and hands back only moments, so
    # an exit ladder over five blocks (the last of one path) peaks where a
    # one-block ladder does
    model, grid = bs_const(), TimeGrid(1.0, 50)
    peaks = [_exit_ladder_peak(model, grid, n) for n in (4 * BLOCK_SIZE + 1, BLOCK_SIZE)]
    assert peaks[0] == pytest.approx(peaks[1], rel=0.1)


def _no_draws(*args, **kwargs):
    raise AssertionError("paths were drawn")


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
def test_simulate_logprice_rejects_bad_epsilon(monkeypatch, eps):
    from ldpvol import mcsim

    monkeypatch.setattr(mcsim, "_run_blocks", _no_draws)
    with pytest.raises(DomainError):
        simulate_logprice(_cfg(bs_const(), n_paths=2000), eps)


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
def test_simulate_vol_rejects_bad_epsilon(monkeypatch, eps):
    from ldpvol import mcsim

    monkeypatch.setattr(mcsim, "_run_blocks", _no_draws)
    with pytest.raises(DomainError):
        simulate_vol(toy_sabr().vol, eps, 2000, GRID, seed=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_do_not_alias_reused_buffers(workers):
    # every block of a three-block run, kept whole, equals the same block
    # rebuilt from freshly allocated increments: no result shares memory
    # with the per-worker draw buffers that later blocks overwrite
    model = toy_sabr()
    grid = TimeGrid(1.0, 10)
    eps = 0.3
    cfg = _cfg(model, ladder=(eps,), n_paths=2 * BLOCK_SIZE + 1000, seed=12, grid=grid,
               max_workers=workers)
    got = simulate_logprice(cfg, eps, keep_paths=True)
    assert got.n_excluded == 0
    start = 0
    s = math.sqrt(grid.dt)
    for b, size in enumerate([BLOCK_SIZE, BLOCK_SIZE, 1000]):
        rng = _block_rng(cfg.seed, b)
        db = rng.standard_normal((size, grid.n_steps, 1)) * s
        dw = rng.standard_normal((size, grid.n_steps, 1)) * s
        drive = np.moveaxis(_phi_drive(model, dw, db), 1, 0)
        lin = _lin(model.vol, grid, db)
        paths = _walk(model, grid, eps, db, drive, lin)
        x = _walk(model, grid, eps, db, drive, lin, grid.n_steps)[:, -1]
        assert np.all(_finite_rows(x))
        np.testing.assert_array_equal(got.terminal[start : start + size], x)
        np.testing.assert_array_equal(got.paths[start : start + size], paths)
        start += size
    assert start == got.terminal.shape[0]


def test_reports_carry_provenance_and_match_across_workers():
    reps = [
        ldp_tail_report(_cfg(bs_const(), ladder=(0.4, 0.2), n_paths=BLOCK_SIZE + 3000, seed=41,
                             grid=TimeGrid(1.0, 10), max_workers=w), 0.1, reference_rate=0.125)
        for w in (1, 2)
    ]
    for w, rep in zip((1, 2), reps):
        assert rep.to_json_obj()["diagnostics"]["provenance"] == {
            "rng": RNG_SCHEME, "seed": 41, "block_size": BLOCK_SIZE, "workers": w,
        }
    assert RNG_SCHEME == (
        "SFC64(SeedSequence([seed, 0, block index])), one draw per block for the whole ladder"
    )
    assert [r.to_json_obj() for r in reps[0].rows] == [r.to_json_obj() for r in reps[1].rows]
    assert reps[0].diagnostics["hits"] == reps[1].diagnostics["hits"]


def _row(model, grid, eps, moms, quantity="tail_probability"):
    """The report row and hit count at one epsilon from per-block
    ``_Moments``, merged and reduced as the report does it."""
    cfg = _cfg(model, ladder=(eps,), n_paths=1000, grid=grid)
    mom = functools.reduce(_Moments.merge, moms)
    return _reduce_report(cfg, quantity, [mom], 0.0).rows[0], mom.hits


def test_ladder_draws_each_block_once(monkeypatch):
    # a four-entry ladder opens each block's substream once, not once per
    # (epsilon, block), and a bs_const block (constant vol, rho = 0) fills
    # dW alone, half the rows a toy_sabr block fills with dB and dW;
    # simulate_vol fills db alone, one fill per block
    from ldpvol import mcsim

    streams, fills = [], []

    def counting_rng(*args):
        streams.append(1)
        return _block_rng(*args)

    def counting_fill(rng, out, dt):
        fills.append(out.size)
        _draw_increments(rng, out, dt)

    monkeypatch.setattr(mcsim, "_block_rng", counting_rng)
    monkeypatch.setattr(mcsim, "_draw_increments", counting_fill)
    grid = TimeGrid(1.0, 5)
    n_paths = 2 * BLOCK_SIZE + 100  # three blocks
    filled = []
    for model in (bs_const(), toy_sabr()):
        cfg = _cfg(model, ladder=(0.4, 0.2, 0.1, 0.05), n_paths=n_paths, grid=grid)
        ldp_tail_report(cfg, 0.1, reference_rate=0.125)
        assert len(streams) == 3
        filled.append(sum(fills))
        streams.clear()
        fills.clear()
    assert filled == [n_paths * grid.n_steps, 2 * n_paths * grid.n_steps]
    simulate_vol(toy_sabr().vol, 0.3, n_paths, grid, 1)
    assert len(streams) == 3 and len(fills) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_ladder_rows_equal_single_epsilon_runs(workers):
    # row k of a tail and of a call ladder report is simulate_logprice at
    # eps_k on the same seed, bit for bit: the ladder shares each block's
    # noise and no entry's block function writes to it (the call payoff, with
    # s0 = 1, is continuous, so any write shows; exit rows:
    # test_exit_report_equals_kept_paths)
    model = toy_sabr()
    grid = TimeGrid(1.0, 10)
    cfg = _cfg(model, ladder=(0.4, 0.2, 0.1, 0.05), n_paths=BLOCK_SIZE + 2000, seed=7,
               grid=grid, max_workers=workers)
    k, strike = 0.05, 1.05
    payoffs = {
        "tail_probability": (ldp_tail_report(cfg, k, reference_rate=0.0),
                             lambda x: (x >= k).astype(float)),
        "call_price": (mc_call_report(cfg, strike, reference_rate=0.0),
                       lambda x: np.maximum(np.exp(x) - strike, 0.0)),
    }
    for li, eps in enumerate(cfg.epsilon_ladder):
        sim = simulate_logprice(cfg, eps)
        assert sim.n_excluded == 0
        for quantity, (rep, payoff) in payoffs.items():
            moms = [_Moments.of(payoff(sim.terminal[start : start + BLOCK_SIZE, 0]))
                    for start in (0, BLOCK_SIZE)]
            want, hits = _row(model, grid, eps, moms, quantity)
            assert rep.rows[li].to_json_obj() == want.to_json_obj()
            assert rep.diagnostics["hits"][li] == hits


def test_first_row_keeps_the_single_epsilon_key():
    # row 0 of a ladder is drawn from SeedSequence([seed, 0, block index]),
    # the key every single-epsilon run has used; dB comes first where the
    # model reads it (rho != 0), and is not drawn where it does not
    grid = TimeGrid(1.0, 10)
    seed, k = 2**40 + 9, 0.1
    s = math.sqrt(grid.dt)
    for model in (bs_const(), bs_const(rho=-0.5)):
        cfg = _cfg(model, ladder=(0.4, 0.2), n_paths=BLOCK_SIZE + 1000, seed=seed, grid=grid)
        rep = ldp_tail_report(cfg, k, reference_rate=0.0)
        moms = []
        for b, size in enumerate([BLOCK_SIZE, 1000]):
            rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, 0, b])))
            db = np.zeros((size, grid.n_steps, 1))
            if _reads_db(model):
                db = rng.standard_normal(db.shape) * s
            dw = rng.standard_normal((size, grid.n_steps, 1)) * s
            x = _walk(model, grid, 0.4, db, _block_drive(model, grid, dw, db), None, grid.n_steps)[:, -1]
            ok = _finite_rows(x)
            moms.append(_Moments.of((x[ok, 0] >= k).astype(float)))
        row, hits = _row(model, grid, 0.4, moms)
        assert rep.rows[0].to_json_obj() == row.to_json_obj()
        assert rep.diagnostics["hits"][0] == hits


@pytest.mark.parametrize("workers", [1, 2], ids=["False-1", "False-2"])  # see _plain_ids
def test_constant_vol_matches_the_brownian_kernel_bit_for_bit(workers):
    # with rho != 0 a constant-vol block draws dB as the Brownian-kernel vol
    # does and skips only the vol part its sigma never reads, so tail and exit
    # ladders are bit-identical; the kept terminal values, read off the
    # running noise sum instead of the node loop, agree to rounding; the last
    # of the two blocks is odd
    grid = TimeGrid(1.0, 20)
    dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    got = []
    for model in (bs_const(rho=-0.5), _brownian_bs(rho=-0.5)):
        cfg = _cfg(model, ladder=(0.4, 0.2, 0.1), n_paths=BLOCK_SIZE + 1001, seed=29, grid=grid,
                   max_workers=workers)
        got.append((
            ldp_tail_report(cfg, 0.1, reference_rate=0.0).to_json_obj(),
            mc_exit_report(cfg, dom, 1.0, reference_rate=0.0).to_json_obj(),
            simulate_logprice(cfg, 0.2).terminal,
        ))
    assert is_constant(bs_const().vol) and not is_constant(_brownian_bs().vol)
    assert got[0][:2] == got[1][:2]
    assert np.max(np.abs(got[0][2] - got[1][2])) <= 1e-13


def _constant_pair():
    """A constant d = m = 2 vol (every noise kernel None, y nonzero) under a
    full sigma and a full correlation matrix C."""
    model = _affine_pair()
    model.vol = VolProcessSpec(family=GAUSSIAN, d=2, m=2, y=[0.1, -0.1],
                               noise_kernels=[[None, None], [None, None]])
    return model


def _bs_sigma_of_t():
    """bs_const with a time-dependent sigma and a time-dependent drift."""
    model = bs_const(rho=0.4)
    model.sigma = lambda t, u: (0.2 + 0.1 * np.asarray(t)) * np.ones(np.shape(u)[:-1])
    model.drift = lambda t, u: 0.02 * np.asarray(t)[..., None] * np.ones(np.shape(u))
    return model


_CONSTANT_MODELS = {
    "bs_const": bs_const,
    "pair": _constant_pair,
    "sigma_of_t": _bs_sigma_of_t,
    "r_rho": functools.partial(bs_const, r=0.05, rho=-0.5),
}


@pytest.mark.parametrize("name", sorted(_CONSTANT_MODELS), ids=_plain_ids(sorted(_CONSTANT_MODELS)))
def test_constant_kind_matches_the_node_loop(name):
    # a constant vol's terminal values and kept paths, read off the block's
    # running noise sum, lie within 1e-13 of the per-epsilon node loop on the
    # same whole-block fills, and its tail and exit ladders (deadline < T)
    # equal the node loop's rows exactly; the second block is odd
    model = _CONSTANT_MODELS[name]()
    assert is_constant(model.vol)
    grid, seed, ladder, deadline = TimeGrid(1.0, 40), 37, [0.4, 0.2, 0.1], 0.6
    sizes = [BLOCK_SIZE, 1001]
    x0 = np.asarray(model.x0, float)
    if model.m == 1:
        dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    else:
        dom = ExitDomain("box", lower=x0 - 0.15, upper=x0 + 0.1)
    faces = [(a, c - float(a @ x0)) for a, c in dom.faces()]
    window = (grid.nodes <= deadline + 1e-12) & (grid.nodes > 0)
    cfg = _cfg(model, ladder=ladder, n_paths=sum(sizes), seed=seed, grid=grid)
    reports = {"exit_probability": mc_exit_report(cfg, dom, deadline, reference_rate=0.0)}
    if model.m == 1:
        reports["tail_probability"] = ldp_tail_report(cfg, 0.1, reference_rate=0.0)
    kept = simulate_logprice(cfg, ladder[1], keep_paths=True)
    moms = {q: [[] for _ in ladder] for q in reports}
    start = 0
    for b, size in enumerate(sizes):
        db, dw = _block_noise(seed, b, size, grid, model)
        raw = np.moveaxis(_phi_drive(model, dw, db), 1, 0)
        running = _block_drive(model, grid, dw, db)
        for li, eps in enumerate(ladder):
            want = np.zeros((size, grid.n_steps + 1, model.m))
            for k, t in enumerate(grid.nodes[:-1]):
                u = np.full((size, model.vol.d), model.vol.y)
                want[:, k + 1] = want[:, k] + _phi_increment(
                    model, model.drift_values(t, u), model.sigma_values(t, u),
                    math.sqrt(eps) / grid.dt * raw[k], grid.dt, eps)
            got = _walk(model, grid, eps, None, running)
            x = _walk(model, grid, eps, None, running, None, grid.n_steps)[:, -1]
            assert np.all(_finite_rows(x))
            np.testing.assert_array_equal(x, got[:, -1])
            assert np.max(np.abs(got - want)) <= 1e-13
            if li == 1:
                assert np.max(np.abs(kept.paths[start : start + size] - want)) <= 1e-13
            hit = np.zeros(size, dtype=bool)
            for a, c in faces:
                hit |= np.any(want[:, window] @ a >= c, axis=1)
            moms["exit_probability"][li].append(_Moments.of(hit.astype(float)))
            if model.m == 1:
                tail = (want[:, -1, 0] >= 0.1).astype(float)
                moms["tail_probability"][li].append(_Moments.of(tail))
        start += size
    for quantity, rep in reports.items():
        for li, eps in enumerate(ladder):
            row, hits = _row(model, grid, eps, moms[quantity][li], quantity)
            assert rep.rows[li].to_json_obj() == row.to_json_obj()
            assert rep.diagnostics["hits"][li] == hits
            assert 0 < hits < sum(sizes)


_CONSTANT_EXITS = {
    "lower_face": (bs_const, ExitDomain("half_space", normal=[-1.0], offset=0.1), 1.0),
    "normal_minus_2": (bs_const, ExitDomain("half_space", normal=[-2.0], offset=0.2), 1.0),
    "box_r": (functools.partial(bs_const, r=0.05),
              ExitDomain("box", lower=[-0.12], upper=[0.1]), 1.0),
    "deadline": (bs_const, ExitDomain("half_space", normal=[1.0], offset=0.08), 0.5),
}


@pytest.mark.parametrize("case", sorted(_CONSTANT_EXITS), ids=_plain_ids(sorted(_CONSTANT_EXITS)))
def test_constant_exit_thresholds_match_the_node_loop(case):
    # a bs_const exit tests each face as a threshold on the running noise
    # sum; its rows equal, exactly, both those of the displacement formed
    # node by node off the running sum (the per-node test it replaces) and
    # those of the per-epsilon node loop, at 1 and 2 workers; the second
    # block is odd
    make, dom, deadline = _CONSTANT_EXITS[case]
    model = make()
    grid, seed, ladder, sizes = TimeGrid(1.0, 40), 41, [0.4, 0.2, 0.1], [BLOCK_SIZE, 1001]
    faces = dom.shifted_faces(model.x0)
    window = (grid.nodes <= deadline + 1e-12) & (grid.nodes > 0)
    moms = {how: [[] for _ in ladder] for how in ("running", "node_loop")}
    for b, size in enumerate(sizes):
        db, dw = _block_noise(seed, b, size, grid, model)
        raw = np.moveaxis(_phi_drive(model, dw, db), 1, 0)
        running = _block_drive(model, grid, dw, db)
        for li, eps in enumerate(ladder):
            got = _walk(model, grid, eps, None, running)
            want = np.zeros_like(got)
            u = np.full((size, 1), model.vol.y)
            for k, t in enumerate(grid.nodes[:-1]):
                want[:, k + 1] = want[:, k] + _phi_increment(
                    model, model.drift_values(t, u), model.sigma_values(t, u),
                    math.sqrt(eps) / grid.dt * raw[k], grid.dt, eps)
            for how, paths in (("running", got), ("node_loop", want)):
                hit = np.zeros(size, dtype=bool)
                for a, c in faces:
                    hit |= np.any(paths[:, window, 0] * a[0] >= c, axis=1)
                moms[how][li].append(_Moments.of(hit.astype(float)))
    for workers in (1, 2):
        cfg = _cfg(model, ladder=ladder, n_paths=sum(sizes), seed=seed, grid=grid,
                   max_workers=workers)
        rep = mc_exit_report(cfg, dom, deadline, reference_rate=0.0)
        for li, eps in enumerate(ladder):
            for how in moms:
                row, hits = _row(model, grid, eps, moms[how][li], "exit_probability")
                assert rep.rows[li].to_json_obj() == row.to_json_obj()
                assert rep.diagnostics["hits"][li] == hits
            assert 0 < hits < sum(sizes)


_WALK_MODELS = {
    "constant": bs_const,
    "constant_pair": _constant_pair,
    "affine": toy_sabr,
    "whole": frac_heston,
}


@pytest.mark.parametrize("name", sorted(_WALK_MODELS), ids=_plain_ids(sorted(_WALK_MODELS)))
def test_walk_from_any_node_matches_the_walk_from_node_one(name):
    # started at node k, the walk yields nodes k..n alone, in order, and at
    # each of them the displacement of the walk from node 1, bit for bit:
    # the constant kind forms those nodes alone, the others step through
    # the nodes before k unseen
    model = _WALK_MODELS[name]()
    grid = TimeGrid(1.0, 12)
    n = grid.n_steps

    def block(eps, db, drive, lin):
        whole = _walk(model, grid, eps, db, drive, lin)
        for first in (1, 2, 7, n):
            nodes = [k for k, _ in _displacements(model, grid, eps, db, drive, lin, first)]
            assert nodes == list(range(first, n + 1))
            part = _walk(model, grid, eps, db, drive, lin, first)
            np.testing.assert_array_equal(part[:, first:], whole[:, first:])
            assert not part[:, :first].any()
        return np.all(_finite_rows(whole))

    per_eps = _run_blocks(block, [0.4, 0.1], 1001, grid, model.vol.m, 3, 1, model)
    assert all(ok for res in per_eps for ok in res)


def _face_test(r, scale, shift, a, c):
    """The node loop's face test at a running-sum value r."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.multiply(np.float64(r), scale)
        x += shift
        return bool(x * a >= c)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(
    scale=st.floats(1e-160, 1.0),
    shift=_finite,
    a=st.one_of(_finite.filter(lambda v: v != 0.0), st.sampled_from([1.0, -1.0])),
    c=st.one_of(_finite, st.sampled_from([math.inf, -math.inf])),
    r=_finite,
)
@settings(max_examples=300, deadline=None)
def test_face_thresholds_are_exact(scale, shift, a, c, r):
    # theta is where the face test flips: it holds at theta and fails at the
    # next float on the failing side (below for a > 0, above for a < 0), so
    # the test equals R >= theta (a > 0) or R <= theta (a < 0) at every R;
    # theta is +-inf where only an infinite R passes or every R does, and
    # NaN where none does
    theta = float(_face_thresholds(scale, shift, a, c))
    fail_side = -math.inf if a > 0 else math.inf
    if math.isnan(theta):
        assert not any(_face_test(v, scale, shift, a, c) for v in (r, math.inf, -math.inf))
        return
    assert _face_test(theta, scale, shift, a, c)
    if theta != fail_side:
        assert not _face_test(math.nextafter(theta, fail_side), scale, shift, a, c)
    for v in (r, math.nextafter(theta, math.inf), math.nextafter(theta, -math.inf), math.nan):
        assert _face_test(v, scale, shift, a, c) == bool(v >= theta if a > 0 else v <= theta)


@pytest.mark.parametrize(("a", "c", "theta"), [
    (1.0, math.inf, math.inf), (-1.0, math.inf, -math.inf),  # only an infinite R reaches
    (1.0, -math.inf, -math.inf), (-1.0, -math.inf, math.inf),  # every R does
])
def test_face_thresholds_of_faces_never_or_always_hit(a, c, theta):
    assert _face_thresholds(0.3, 0.01, a, c) == theta


def test_constant_block_draw_makes_no_chunk_temporary():
    # drawing one bs_const block mixes each chunk of price noise in the chunk
    # buffer and, with rho != 0, over its parked dB in the drive.  The traced
    # peak is the drive (size x n x 8 bytes) and the chunk buffer (MIX_ROWS x
    # n x 8 = 0.8 MB) plus small change: a row of the running sum (size x 8 =
    # 32 KB), the n-sized coefficients and numpy's ufunc iteration buffers
    # for the transposed add (three operands of 8192 doubles, 192 KB, fixed).
    # So it stays below drive + 1.5 chunks; a fresh rho_bar dW and its sum
    # with rho dB per chunk would add two chunks more
    import tracemalloc

    grid, size = TimeGrid(1.0, 400), 1 << 12
    drive, chunk = size * grid.n_steps * 8, MIX_ROWS * grid.n_steps * 8
    for model in (bs_const(), bs_const(rho=-0.5)):
        draw = functools.partial(_run_blocks, lambda *args: None, [0.2], size, grid, 1, 3, 1, model)
        draw()  # the grid's cached nodes and first-call set-up are not the draw's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            draw()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert drive + chunk <= peak <= drive + 1.5 * chunk


def test_shared_noise_ladder_rows_are_unbiased():
    # each row of a ladder run on shared noise lies within 4 SE of the exact
    # Gaussian tail of bs_const, and its own standard error is the exact one
    cfg = _cfg(bs_const(), ladder=(0.4, 0.2, 0.1), n_paths=1 << 16, seed=2024)
    rep = ldp_tail_report(cfg, 0.1, reference_rate=0.125)
    for row in rep.rows:
        eps = row.epsilon
        p = float(norm.sf((0.1 + 0.5 * eps * 0.04) / (0.2 * math.sqrt(eps))))
        se = math.sqrt(p * (1 - p) / cfg.n_paths)
        assert abs(row.estimate - p) < 4 * se
        assert row.std_error * row.estimate / eps == pytest.approx(se, rel=0.1)


def test_ladder_workers_agree_on_three_blocks():
    reps = [
        mc_call_report(_cfg(toy_sabr(), ladder=(0.4, 0.2, 0.1), n_paths=2 * BLOCK_SIZE + 1000,
                            seed=17, grid=TimeGrid(1.0, 10), max_workers=w), 1.05,
                       reference_rate=0.0)
        for w in (1, 2)
    ]
    assert [r.to_json_obj() for r in reps[0].rows] == [r.to_json_obj() for r in reps[1].rows]
    assert reps[0].diagnostics["hits"] == reps[1].diagnostics["hits"]


def test_moment_merge_survives_large_offset():
    # a payoff of a large constant plus small noise: E[X^2] - E[X]^2 cancels
    # to nothing, the per-block (n, mean, M2) merge keeps the variance (its
    # own floor is the rounding of the block means, ulp(offset) ~ 2e-9 here)
    cfg = _cfg(
        bs_const(), ladder=(0.5,), n_paths=2 * BLOCK_SIZE + 1000, grid=TimeGrid(1.0, 10), seed=5
    )
    offset = 1e7
    (mom,) = _per_eps_payoff_stats(cfg, lambda *block: offset + _terminal(cfg, *block)[:, 0])
    vals = offset + simulate_logprice(cfg, 0.5).terminal[:, 0]
    exact = float(np.var(vals))
    naive = float(np.sum(vals**2)) / vals.size - (float(np.sum(vals)) / vals.size) ** 2
    assert abs(naive - exact) > 0.1 * exact
    assert mom.n == vals.size and mom.hits == vals.size
    assert mom.m2 / mom.n == pytest.approx(exact, rel=1e-10)
    # the report's standard error is built on the merged variance
    rep = ldp_tail_report(cfg, 0.1, reference_rate=0.125)
    assert rep.diagnostics["hits"] == [round(rep.rows[0].estimate * rep.rows[0].n_effective)]


@pytest.mark.parametrize("rows", [1000, 1 << 12, 1 << 13, 1 << 15])
def test_moment_merge_keeps_the_spread_of_a_large_level(rows):
    # the block means are pivot + offset, so merges take the difference of
    # two pivots exactly and the merged variance keeps full precision
    # however the payoffs are split into blocks
    vals = 1e7 + np.random.default_rng(5).normal(0.0, 0.14, 3 * (1 << 13) + 1000)
    moms = [_Moments.of(vals[start : start + rows]) for start in range(0, vals.size, rows)]
    mom = functools.reduce(_Moments.merge, moms)
    assert mom.n == vals.size
    assert abs(mom.m2 / mom.n / float(np.var(vals)) - 1.0) <= 1e-13


def test_moment_merge_worker_independent():
    m = toy_sabr()
    cfgs = [
        _cfg(m, ladder=(0.3,), n_paths=BLOCK_SIZE + 5000, seed=3, grid=TimeGrid(1.0, 10),
             max_workers=w)
        for w in (1, 2)
    ]
    reps = [mc_call_report(cfg, 1.05, reference_rate=0.0) for cfg in cfgs]
    assert reps[0].rows[0].estimate == reps[1].rows[0].estimate
    assert reps[0].rows[0].std_error == reps[1].rows[0].std_error
    assert reps[0].diagnostics["hits"] == reps[1].diagnostics["hits"]


def test_grid_refinement_weak_consistency():
    m = bs_const()
    est = []
    for n in (100, 200):
        cfg = _cfg(m, ladder=(1.0,), n_paths=40000, grid=TimeGrid(1.0, n), seed=77)
        est.append(float(simulate_logprice(cfg, 1.0).terminal[:, 0].var()))
    se = 0.04 * math.sqrt(2.0 / 40000)
    assert abs(est[0] - est[1]) < 3 * math.sqrt(2) * se


def test_tail_report_gaussian_oracle():
    # exact tail for the constant-sigma model at each ladder point
    m = bs_const()
    cfg = _cfg(m, ladder=(0.4, 0.2), n_paths=200000, seed=11)
    rep = ldp_tail_report(cfg, 0.1, reference_rate=0.125)
    for row in rep.rows:
        eps = row.epsilon
        z = (0.1 + 0.5 * eps * 0.04) / (0.2 * math.sqrt(eps))
        p = float(norm.sf(z))
        se = math.sqrt(p * (1 - p) / cfg.n_paths)
        assert abs(row.estimate - p) < 4 * se
        assert row.n_effective == cfg.n_paths
        assert not row.zero_hits


def test_tail_report_sure_event():
    m = bs_const()
    cfg = _cfg(m, ladder=(0.1,), n_paths=5000)
    rep = ldp_tail_report(cfg, -10.0, reference_rate=0.0)
    assert rep.rows[0].estimate == 1.0
    assert rep.rows[0].eps_log_estimate == pytest.approx(0.0, abs=1e-12)


def test_tail_report_zero_hits_flagged():
    m = bs_const()
    cfg = _cfg(m, ladder=(0.4, 0.01), n_paths=2000, seed=2)
    # hits at eps=0.4, none in the far tail at eps=0.01
    rep = ldp_tail_report(cfg, 0.25, reference_rate=0.78125)
    assert not rep.rows[0].zero_hits
    assert rep.rows[1].zero_hits
    assert math.isinf(rep.rows[1].eps_log_estimate)


def test_tail_report_all_zero_raises():
    m = bs_const()
    cfg = _cfg(m, ladder=(0.05,), n_paths=1000, seed=3)
    with pytest.raises(ConvergenceError):
        ldp_tail_report(cfg, 5.0, reference_rate=1.0)


def test_call_report_black_scholes_oracle():
    m = bs_const()
    cfg = _cfg(m, ladder=(0.4, 0.2), n_paths=100000, seed=13)
    K = math.exp(0.1)
    rep = mc_call_report(cfg, K, reference_rate=0.125)
    for row in rep.rows:
        eps = row.epsilon
        v = 0.2 * math.sqrt(eps)
        d1 = (-0.1 + 0.5 * v * v) / v
        d2 = d1 - v
        price = float(norm.cdf(d1) - K * norm.cdf(d2))
        assert abs(row.estimate - price) < 4 * max(row.std_error * price / eps, 1e-5)


def test_call_report_atm_rate_zero_regime():
    # in-the-money strike: the price stays bounded away from zero, so the
    # scaled log estimate decays to zero linearly in epsilon
    m = bs_const()
    cfg = _cfg(m, ladder=(0.4, 0.2, 0.1), n_paths=20000, seed=4)
    rep = mc_call_report(cfg, 0.9, reference_rate=0.0)
    logs = [r.eps_log_estimate for r in rep.rows]
    assert all(a > b for a, b in zip(logs, logs[1:]))
    assert logs[-1] < logs[0] / 3.0


def test_exit_report_reflection_oracle():
    m = bs_const()
    h = 0.17
    dom = ExitDomain("half_space", normal=[1.0], offset=h)
    cfg = _cfg(m, ladder=(0.2,), n_paths=100000, seed=17, grid=TimeGrid(1.0, 200))
    rep = mc_exit_report(cfg, dom, 1.0, reference_rate=h**2 / 0.08)
    row = rep.rows[0]
    # reflection principle with the small negative drift; discrete monitoring
    # undershoots slightly
    eps = 0.2
    v = 0.2 * math.sqrt(eps)
    a = -0.5 * eps * 0.04
    p_cont = float(
        norm.sf((h - a) / v) + math.exp(2 * a * h / v**2) * norm.sf((h + a) / v)
    )
    assert 0.5 * p_cont < row.estimate <= p_cont * 1.05
    assert rep.reference_rate == pytest.approx(0.361250)


def test_exit_report_boundary_at_start():
    # boundary through the start point: nearly every path registers an exit;
    # the shortfall from 1 is the discrete-monitoring survival ~ n^(-1/2)
    m = bs_const()
    dom = ExitDomain("half_space", normal=[1.0], offset=0.0)
    cfg = _cfg(m, ladder=(0.2,), n_paths=2000, seed=19)
    rep = mc_exit_report(cfg, dom, 1.0, reference_rate=0.0)
    assert rep.rows[0].estimate > 0.9
    finer = _cfg(m, ladder=(0.2,), n_paths=2000, seed=19, grid=TimeGrid(1.0, 400))
    rep2 = mc_exit_report(finer, dom, 1.0, reference_rate=0.0)
    assert rep2.rows[0].estimate >= rep.rows[0].estimate


def test_exit_report_empty_window_raises_before_drawing(monkeypatch, tmp_path, capsys):
    # a deadline before the first positive node leaves no node to exit at
    import json

    from ldpvol import mcsim
    from ldpvol.cli import EXIT_CONFIG, main

    monkeypatch.setattr(mcsim, "_run_blocks", _no_draws)
    dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    cfg = _cfg(bs_const(), n_paths=2000, grid=TimeGrid(1.0, 10))
    with pytest.raises(DomainError):
        mc_exit_report(cfg, dom, 0.05, reference_rate=0.125)
    sim = {
        "model": {"preset": "bs_const"}, "quantity": "exit", "epsilon_ladder": [0.4],
        "n_paths": 2000, "horizon": 1.0, "n_steps": 10, "seed": 1,
        "domain": dom.to_json_obj(), "deadline": 0.05, "reference_rate": 0.125,
    }
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    assert main(["mc-verify", "--config", str(tmp_path / "sim.json")]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def test_exit_report_far_boundary_zero_hits():
    m = bs_const()
    dom = ExitDomain("half_space", normal=[1.0], offset=0.3)
    cfg = _cfg(m, ladder=(0.4, 0.01), n_paths=2000, seed=23)
    rep = mc_exit_report(cfg, dom, 1.0, reference_rate=0.3**2 / 0.08)
    assert not rep.rows[0].zero_hits
    assert rep.rows[1].zero_hits


def test_exit_report_standard_error_is_honest():
    # over 128 seeds the spread of -eps log p_hat matches the delta-method
    # standard error the report gives, which holds only if the paths are
    # independent: paths drawn in antithetic pairs read 1.33-1.45 here
    dom = ExitDomain("box", lower=[-0.1], upper=[0.1])
    est, se = [], []
    for seed in range(128):
        cfg = _cfg(bs_const(), ladder=(0.1,), n_paths=2048, seed=seed, grid=TimeGrid(1.0, 50))
        row = mc_exit_report(cfg, dom, 1.0, reference_rate=0.0).rows[0]
        est.append(row.eps_log_estimate)
        se.append(row.std_error)
    assert 0.8 <= np.std(est, ddof=1) / np.median(se) <= 1.25


@pytest.mark.parametrize("make", [bs_const, _brownian_bs], ids=["constant", "brownian_kernel"])
def test_exit_report_ignores_blowups_after_the_deadline(make):
    # sigma jumps to 1e12 after t = 0.5, so every path blows up before T
    # but none by the deadline 0.5: the exclusions, like the event, read the
    # path up to the deadline alone, at the thresholds on the running sum
    # (constant vol) and on the node loop (Brownian-kernel vol) alike
    model = make()
    model.sigma = lambda t, u: np.where(np.asarray(t) > 0.5, 1e12, 0.2) * np.ones(np.shape(u)[:-1])
    n_paths = 3000
    cfg = _cfg(model, ladder=(0.4, 0.2), n_paths=n_paths, seed=5, grid=TimeGrid(1.0, 20))
    assert simulate_logprice(cfg, 0.4).n_excluded == n_paths
    dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    rep = mc_exit_report(cfg, dom, 0.5, reference_rate=0.0)
    for row, hits in zip(rep.rows, rep.diagnostics["hits"]):
        assert row.n_effective == n_paths
        assert 0 < hits < n_paths


def test_tail_report_computes_reference_rate():
    m = toy_sabr()
    cfg = _cfg(m, ladder=(0.4,), n_paths=2000, seed=8)
    rep = ldp_tail_report(cfg, 0.1)  # reference computed from the model
    assert 0.005 <= rep.reference_rate <= 0.0158198


def test_multivariate_logprice_smoke():
    from ldpvol.presets import mixed_demo

    m = mixed_demo()
    cfg = _cfg(m, ladder=(0.5,), n_paths=2000, grid=TimeGrid(1.0, 40), seed=3)
    s = simulate_logprice(cfg, 0.5)
    assert s.terminal.shape == (2000, 2)
    assert np.all(np.isfinite(s.terminal))
    assert s.n_excluded == 0


def test_report_json_csv(tmp_path):
    m = bs_const()
    cfg = _cfg(m, ladder=(0.4, 0.2), n_paths=2000, seed=29)
    rep = ldp_tail_report(cfg, 0.05, reference_rate=0.125)
    obj = rep.to_json_obj()
    assert obj["quantity"] == "tail_probability"
    assert len(obj["rows"]) == 2
    f = tmp_path / "rep.csv"
    rep.to_csv(f)
    lines = f.read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,")
    assert len(lines) == 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["half_space", "box"])
def test_exit_report_equals_kept_paths(case, workers):
    # the running hit flag reproduces the exit frequencies taken from whole
    # kept paths, bit for bit, over two blocks and two ladder entries
    from ldpvol.presets import mixed_demo

    if case == "half_space":
        model = bs_const()
        dom = ExitDomain("half_space", normal=[1.0], offset=0.1)
    else:
        model = mixed_demo()
        x0 = np.asarray(model.x0, float)
        dom = ExitDomain("box", lower=x0 - 0.2, upper=x0 + 0.15)
    grid = TimeGrid(1.0, 20)
    cfg = _cfg(model, ladder=(0.5, 0.2), n_paths=BLOCK_SIZE + 500, seed=31, grid=grid,
               max_workers=workers)
    rep = mc_exit_report(cfg, dom, 0.8, reference_rate=0.0)
    faces = [(a, c - float(a @ model.x0)) for a, c in dom.faces()]
    window = grid.nodes <= 0.8 + 1e-12
    window[0] = False
    for li, (eps, row) in enumerate(zip(cfg.epsilon_ladder, rep.rows)):
        paths = simulate_logprice(cfg, eps, keep_paths=True).paths
        flags = np.zeros(paths.shape[0], dtype=bool)
        for a, c in faces:
            sd = np.einsum("a,bna->bn", a, paths) - c
            flags |= np.any(sd[:, window] >= 0.0, axis=1)
        assert row.n_effective == paths.shape[0]
        assert rep.diagnostics["hits"][li] == int(np.sum(flags))
        assert 0 < np.sum(flags) < paths.shape[0]
        assert row.estimate == float(np.sum(flags.astype(float))) / paths.shape[0]
