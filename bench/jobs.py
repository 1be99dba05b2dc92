"""Workload set-up, job lists and oracles.

Every job calls a public entry point of ``ldpvol``: ``ldpvol.cli.main`` in
process for the README commands and ``mc-verify``, and library calls only for
the two custom models no preset or CLI flag can express (a ``volterra_sde``
vol process and a Molchan-Golosov Gaussian driver).  Entry points are looked
up on their module at call time, so the traced run's wrappers see them.  Each job has an oracle;
an operation fails if it raises, exits nonzero, reports not converged, or
misses its oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

import ldpvol
from ldpvol import cli
from ldpvol import kernels as K
from ldpvol import mcsim, ratefn
from ldpvol.mcsim import SimConfig
from ldpvol.paths import TimeGrid
from ldpvol.presets import make_model
from ldpvol.ratefn import ModelSpec
from ldpvol.toymodel import ToyParams, iv_limit_bounds
from ldpvol.volmap import GAUSSIAN, VOLTERRA_SDE, VolProcessSpec

WORKLOADS = ("rates", "mc_tail", "mc_exit")
SIGMA_BS = 0.2
RATE_TOL = 1e-4  # absolute, on closed-form decay rates
MC_SIGMAS = 4.0  # Monte Carlo gates: estimate vs exact within this many SE
HALF_SPACE = '{"kind":"half_space","normal":[1.0],"offset":0.17}'
BOX = '{"kind":"box","lower":[0.0],"upper":[1.25]}'
RL03 = '{"kind":"riemann_liouville","hurst":0.3}'
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke check."""

    n_steps: int  # README default grid for the rate commands
    small_steps: int  # grid of the mixed_demo and volterra_sde jobs
    tail_paths: int  # both mc_tail jobs
    exit_paths: int  # the mc_exit job
    tail_steps: int
    exit_steps: int
    restarts: int | None  # None keeps the library default
    probe_paths: int  # the per-layer mcsim probes


# Both Monte Carlo workloads run fewer paths than a production check, so that
# several passes fit in one run: mc_tail 2^16 (at 2^17 a single pass per run
# left its wall_s spread at about a quarter of the median) and mc_exit 2^15
# on one worker (about four passes per run).
FULL = Sizes(200, 50, 1 << 16, 1 << 15, 200, 400, None, 1 << 14)
TINY = Sizes(24, 12, 1 << 12, 1 << 12, 24, 48, 1, 1 << 11)


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    mc: dict | None = None  # {"ladder", "n_paths", "n_steps"} for MC jobs


@dataclass
class Workload:
    name: str
    seed: int
    sizes: Sizes
    workdir: str
    jobs_for_pass: Callable[[int], list] = None
    target: tuple | None = None  # (job name, epsilon) for s_to_rel10
    workers: int = 1  # block-pool workers; the 2-worker pool is timed by the traced run's probes
    oracle_shift: float = 0.0  # smoke check only: corrupts every oracle value


# ---------------------------------------------------------------------------
# models the CLI cannot express
# ---------------------------------------------------------------------------


def volterra_model() -> ModelSpec:
    """Volterra SDE vol: a(t,s,x) = -x, c(t,s,x) = 0.5 (t-s)^-0.2."""

    def a_map(t, s, x):
        return -x

    def c_map(t, s, x):
        c = 0.5 * (t - s) ** -0.2
        return np.broadcast_to(c[:, None, None], x.shape[:-1] + (1, 1))

    vol = VolProcessSpec(family=VOLTERRA_SDE, d=1, m=1, volterra_a=a_map, volterra_c=c_map)
    return ModelSpec(
        m=1, vol=vol, sigma=lambda t, u: SIGMA_BS * np.exp(u[..., 0]), rho=-0.3,
        name="volterra_sde",
    )


def mg_model() -> ModelSpec:
    """Gaussian family with a Molchan-Golosov H = 0.3 noise kernel."""
    vol = VolProcessSpec(family=GAUSSIAN, d=1, m=1, noise_kernels=[[K.molchan_golosov(0.3)]])
    return ModelSpec(
        m=1, vol=vol, sigma=lambda t, u: SIGMA_BS * np.exp(u[..., 0]), rho=-0.3,
        sigma_positive=True, assumption_b=True, name="mg_gauss",
    )


def model_kernels(model: ModelSpec):
    vol = model.vol
    rows = vol.noise_kernels or []
    noise = [k for row in rows for k in row if k is not None]
    drift = [k for k in (vol.drift_kernels or []) if k is not None]
    return noise, drift


def warm_tables(model: ModelSpec, grid: TimeGrid, simulate: bool) -> None:
    """Build the weight tables a CLI process builds lazily on first use:
    ``pc_weights`` for the skeleton, ``rms_weights`` for simulated noise."""
    noise, drift = model_kernels(model)
    if simulate:
        for k in noise:
            K.rms_weights(k, grid)
        for k in drift:
            K.pc_weights(k, grid)
    else:
        for k in noise + drift:
            K.pc_weights(k, grid)


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def bs_tail_exact(eps: float, k: float, sigma: float = SIGMA_BS) -> float:
    """P(X_T >= k) for X_T = sigma sqrt(eps) W_1 - eps sigma^2 / 2."""
    s = sigma * math.sqrt(eps)
    return float(ndtr(-(k + 0.5 * eps * sigma**2) / s))


def bs_exit_continuous(eps: float, h: float, sigma: float = SIGMA_BS, T: float = 1.0) -> float:
    """P(max_{t<=T} X_t >= h) for the continuously monitored drifted BM."""
    mu = -0.5 * eps * sigma**2
    s = sigma * math.sqrt(eps * T)
    return float(
        ndtr(-(h - mu * T) / s) + math.exp(2.0 * mu * h / (sigma**2 * eps)) * ndtr(-(h + mu * T) / s)
    )


def rows_summary(report_obj: dict) -> list:
    """(epsilon, estimate, se of the estimate, n_effective) per ladder row."""
    out = []
    for r in report_obj["rows"]:
        eps, est = r["epsilon"], r["estimate"]
        se = r["std_error"] * est / eps if est > 0 else math.inf
        out.append((eps, est, se, r["n_effective"]))
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _close(value, exact, what, tol=RATE_TOL):
    if value is None or not abs(value - exact) <= tol:
        return [f"{what}: {value!r} vs exact {exact!r} (tol {tol})"]
    return []


def _finite_positive(value, what):
    if value is None or not (math.isfinite(value) and value > 0):
        return [f"{what}: {value!r} is not finite and positive"]
    return []


def _converged(payload, what):
    if payload.get("converged") is False or payload.get("diagnostics", {}).get("converged") is False:
        return [f"{what}: reports not converged"]
    return []


def cli_call(argv) -> dict:
    """``ldpvol.cli.main(argv)`` in process; stdout parsed as the result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    payload = json.loads(out.getvalue()) if rc == 0 else None
    return {"rc": rc, "payload": payload, "stderr": err.getvalue()[-500:]}


def _cli_job(name, argv, oracle) -> Job:
    def check(out):
        if out["rc"] != 0:
            return [f"{name}: exit code {out['rc']}: {out['stderr']}"]
        p = out["payload"]
        return _converged(p, name) + oracle(p)

    return Job(name, lambda: cli_call(argv), check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _opt_args(wl: Workload):
    """README settings: the CLI's default restart seed and count."""
    return [] if wl.sizes.restarts is None else ["--restarts", str(wl.sizes.restarts)]


def _rates(wl: Workload) -> None:
    sz, shift = wl.sizes, wl.oracle_shift
    target = os.path.join(wl.workdir, "target_path.csv")
    nodes = TimeGrid(1.0, sz.n_steps).nodes
    with open(target, "w") as fh:
        fh.write("t,x\n")
        fh.writelines(f"{float(t)!r},{0.1 * float(t)!r}\n" for t in nodes)
    grid, small = TimeGrid(1.0, sz.n_steps), TimeGrid(1.0, sz.small_steps)
    presets = {name: make_model(name) for name in ("bs_const", "toy_sabr", "rough_gauss", "frac_heston", "mixed_demo")}
    vmodel = volterra_model()
    for name, model in presets.items():
        warm_tables(model, small if name == "mixed_demo" else grid, simulate=False)
    K.pc_weights(K.riemann_liouville(0.3), TimeGrid(1.0, 64))  # kernel-info grid
    opt = _opt_args(wl)
    steps = ["--n-steps", str(sz.n_steps)]
    exact_bs = 0.1**2 / (2 * SIGMA_BS**2) + shift
    exit_exact = 0.17**2 / (2 * SIGMA_BS**2) + shift
    barrier_exact = math.log(1.25) ** 2 / (2 * SIGMA_BS**2) + shift
    iv_lo, iv_hi = iv_limit_bounds(ToyParams(1.0, 0.1))
    h = 0.3
    rl_slice_T = 1.0 / (2 * h * math.gamma(h + 0.5) ** 2) + shift

    def value_oracle(exact, what):
        return lambda p: _close(p["value"], exact, what)

    def positive_value(what):
        return lambda p: _finite_positive(p["value"], what)

    def ladder_oracle(p):
        rates = [row["rate"] for row in p.get("ladder", [])]
        errs = _finite_positive(p["rate"], "call rate")
        if len(rates) != 3 or any(b < a for a, b in zip(rates, rates[1:])):
            errs.append(f"call ladder rates not nondecreasing in strike: {rates}")
        return errs

    def iv_toy(p):
        v = p["limit_value"]
        if v is None or not iv_lo + shift <= v <= iv_hi + shift:
            return [f"toy_sabr IV limit {v!r} outside [{iv_lo}, {iv_hi}]"]
        return []

    def toy_bounds(p):
        if not p["lower"] + shift <= p["rate"] <= p["upper"] + shift:
            return [f"toy rate {p['rate']} outside [{p['lower']}, {p['upper']}]"]
        return []

    def rate_only(exact, what):
        return lambda p: _close(p["rate"], exact, what)

    def kernel_info(p):
        sv = p["slice_variance"]
        return _close(sv[max(sv, key=float)], rl_slice_T, "RL H=0.3 slice variance at T", 1e-9)

    def volterra_job():
        res = ratefn.itilde_terminal(vmodel, 0.1, grid=small, **(
            {} if sz.restarts is None else {"restarts": sz.restarts}))
        return {"value": res.value, "converged": res.converged, "iterations": res.iterations}

    def volterra_check(out):
        errs = _finite_positive(out["value"], "volterra_sde terminal rate")
        return errs + ([] if out["converged"] else ["volterra_sde terminal rate: not converged"])

    jobs = [
        _cli_job("rate-terminal.bs_const", ["rate-terminal", "--preset", "bs_const", "--x", "0.1", *steps, *opt], value_oracle(exact_bs, "bs_const terminal rate")),
        _cli_job("rate-terminal.rough_gauss", ["rate-terminal", "--preset", "rough_gauss", "--x", "0.1", *steps, *opt], positive_value("rough_gauss terminal rate")),
        _cli_job("rate-terminal.frac_heston", ["rate-terminal", "--preset", "frac_heston", "--x", "0.1", *steps, *opt], positive_value("frac_heston terminal rate")),
        _cli_job("rate-terminal.mixed_demo", ["rate-terminal", "--preset", "mixed_demo", "--x", "0.05,0.05", "--n-steps", str(sz.small_steps), *opt], positive_value("mixed_demo terminal rate")),
        _cli_job("rate-path.bs_const", ["rate-path", "--preset", "bs_const", "--target", target, *opt], value_oracle(exact_bs, "bs_const path rate")),
        _cli_job("call-asymptote.toy_sabr", ["call-asymptote", "--preset", "toy_sabr", "--strike", "1.105", "--ladder", "1.2,1.3", *steps, *opt], ladder_oracle),
        _cli_job("iv-limit.toy_sabr", ["iv-limit", "--preset", "toy_sabr", "--k", "0.1", *steps, *opt], iv_toy),
        _cli_job("iv-limit.rough_gauss", ["iv-limit", "--preset", "rough_gauss", "--k", "0.1", *steps, *opt], lambda p: _finite_positive(p["limit_value"], "rough_gauss IV limit")),
        _cli_job("asian-asymptote.bs_const", ["asian-asymptote", "--preset", "bs_const", "--strike", "1.05", *steps, *opt], lambda p: _finite_positive(p["rate"], "bs_const Asian rate")),
        _cli_job("exit-rate.bs_const", ["exit-rate", "--preset", "bs_const", "--domain", HALF_SPACE, *steps, *opt], rate_only(exit_exact, "bs_const exit rate")),
        _cli_job("barrier-rate.bs_const", ["barrier-rate", "--preset", "bs_const", "--domain", BOX, *steps, *opt], rate_only(barrier_exact, "bs_const barrier rate")),
        _cli_job("toy-bounds", ["toy-bounds", "--T", "1", "--k", "0.1", *steps], toy_bounds),
        _cli_job("kernel-info.rl_h03", ["kernel-info", "--kernel", RL03], kernel_info),
        Job("itilde_terminal.volterra_sde", volterra_job, volterra_check),
    ]
    # the seed draws the job order; the inputs of each job are fixed
    order = np.random.default_rng(wl.seed).permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    wl.jobs_for_pass = lambda p: jobs


def _repo_config(name: str) -> dict:
    """A shipped ``mc-verify`` config; the oracles assume its model, k and domain."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return json.load(fh)


def pass_seed(seed: int, pass_index: int) -> int:
    """Simulation seed of one pass: a pure function of (seed, pass index)."""
    return int(np.random.SeedSequence([seed, pass_index]).generate_state(1)[0])


def _mc_verify_job(wl, name, cfg_obj, pass_index, row_check) -> Job:
    cfg = dict(cfg_obj, seed=pass_seed(wl.seed, pass_index))
    path = os.path.join(wl.workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    argv = ["mc-verify", "--config", path, "--workers", str(wl.workers)]

    def check(out):
        if out["rc"] != 0:
            return [f"{name}: exit code {out['rc']}: {out['stderr']}"]
        errs = []
        for eps, est, se, n_eff in rows_summary(out["payload"]):
            if n_eff != cfg["n_paths"]:
                errs.append(f"{name}: {cfg['n_paths'] - n_eff} paths excluded at eps={eps}")
            errs += row_check(eps, est, se)
        return errs

    mc = {"ladder": cfg["epsilon_ladder"], "n_paths": cfg["n_paths"], "n_steps": cfg["n_steps"]}
    return Job(name, lambda: cli_call(argv), check, mc)


def _tail_row_check(shift):
    def check(eps, est, se):
        exact = bs_tail_exact(eps, 0.1) + shift
        if not abs(est - exact) <= MC_SIGMAS * se:
            return [f"bs tail eps={eps}: {est} vs exact {exact}, se {se}"]
        return []

    return check


def _mc_tail(wl: Workload) -> None:
    sz = wl.sizes
    base = dict(_repo_config("sim_tail_bs.json"), n_paths=sz.tail_paths, n_steps=sz.tail_steps)
    model = mg_model()
    grid = TimeGrid(1.0, sz.tail_steps)
    warm_tables(model, grid, simulate=True)  # the cold Molchan-Golosov table

    def mg_job(pass_index):
        cfg = SimConfig(model=model, epsilon_ladder=base["epsilon_ladder"], n_paths=sz.tail_paths,
                        grid=grid, seed=pass_seed(wl.seed, pass_index), max_workers=1)

        def run():
            # the reference rate is not the object of this job: pass it so the
            # report does not solve inf_tail (not timed here, and not gated)
            return {"payload": mcsim.ldp_tail_report(cfg, float(base["k"]), reference_rate=math.nan).to_json_obj()}

        def check(out):
            errs = []
            for eps, est, se, n_eff in rows_summary(out["payload"]):
                if n_eff != sz.tail_paths:
                    errs.append(f"mg tail: {sz.tail_paths - n_eff} blow-ups at eps={eps}")
                if not (0.0 < est < 1.0 and math.isfinite(se)):
                    errs.append(f"mg tail eps={eps}: estimate {est} not in (0, 1)")
            return errs

        mc = {"ladder": base["epsilon_ladder"], "n_paths": sz.tail_paths, "n_steps": sz.tail_steps}
        return Job("ldp_tail_report.mg_gauss", run, check, mc)

    wl.jobs_for_pass = lambda p: [
        _mc_verify_job(wl, "mc-verify.sim_tail_bs", base, p, _tail_row_check(wl.oracle_shift)),
        mg_job(p),
    ]
    wl.target = ("mc-verify.sim_tail_bs", 0.05)


def _mc_exit(wl: Workload) -> None:
    sz = wl.sizes
    base = dict(_repo_config("sim_exit_bs.json"), n_paths=sz.exit_paths, n_steps=sz.exit_steps)
    shift = wl.oracle_shift

    def row_check(eps, est, se):
        # one-sided: monitoring at grid nodes only misses crossings
        bound = bs_exit_continuous(eps, 0.17) - shift + MC_SIGMAS * se
        if not est <= bound:
            return [f"bs exit eps={eps}: {est} above continuous value + {MC_SIGMAS} se = {bound}"]
        return []

    wl.jobs_for_pass = lambda p: [_mc_verify_job(wl, "mc-verify.sim_exit_bs", base, p, row_check)]
    wl.target = ("mc-verify.sim_exit_bs", 0.1)


_SETUP_FNS = {"rates": _rates, "mc_tail": _mc_tail, "mc_exit": _mc_exit}


def setup(name: str, seed: int, sizes: Sizes, workdir: str, oracle_shift: float = 0.0) -> Workload:
    """Build models, configs and the cold weight tables of one workload."""
    os.makedirs(workdir, exist_ok=True)
    wl = Workload(name, seed, sizes, workdir, oracle_shift=oracle_shift)
    _SETUP_FNS[name](wl)
    return wl


def versions() -> dict:
    import platform

    import scipy

    return {
        "ldpvol": ldpvol.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
