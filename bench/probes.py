"""Per-layer probes of the traced run.

The same probe suite runs in the traced run of every workload, so every
traced run reports every per-layer metric.  Probes time public functions of
one layer at fixed inputs (the seed only draws the random control and the
simulation streams):

* ``ratefn``: objective value and gradient of the public objective classes;
* ``volmap``: ``hat_map_batch`` on a batch of 2*dim rows, the shape one
  finite-difference gradient evaluates;
* ``pricing``: the five pricers at README settings, traced, for the time and
  rows spent in ``phi_batch`` and the L-BFGS iterations under each;
* ``mcsim``: ``simulate_vol``, ``simulate_logprice`` and one ladder entry at
  the target epsilon of three cases;
* ``kernels``: each weight table built cold, after every kernel cache is
  cleared.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

from ldpvol import kernels as K
from ldpvol import pricing, ratefn, volmap
from ldpvol.mcsim import BLOCK_SIZE, SimConfig, ldp_tail_report, mc_exit_report, simulate_logprice, simulate_vol
from ldpvol.paths import PathFn, TimeGrid
from ldpvol.presets import make_model
from ldpvol.pricing import ExitDomain
from ldpvol.toymodel import ToyParams, iv_limit_bounds

import jobs

TABLES = {"pc": K.pc_weights, "rms": K.rms_weights, "quad": K.quad_weights}


def table_cache_counts() -> tuple[int, int]:
    """(hits, misses) summed over the three public weight-table caches."""
    infos = [fn.cache_info() for fn in TABLES.values()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _median_time(fn, min_total=0.3, min_reps=3, max_reps=40) -> float:
    times = []
    t_begin = time.perf_counter()
    while len(times) < max_reps and (len(times) < min_reps or time.perf_counter() - t_begin < min_total):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# ratefn and volmap
# ---------------------------------------------------------------------------


OBJECTIVE_CASES = ("bs_const", "rough_gauss", "frac_heston", "mixed_demo", "volterra_sde", "path_bs_const")
# probe oracles; each counts as one operation of the traced run
GATES = ("toy_sabr IV limit in its bounds", "bs tail within 4 SE of exact",
         "no MG blow-ups", "bs exit identical at 1 and 2 workers")


def _objective_cases(sizes):
    grid, small = TimeGrid(1.0, sizes.n_steps), TimeGrid(1.0, sizes.small_steps)
    bs = make_model("bs_const")
    target = PathFn(grid, (0.1 * grid.nodes)[:, None])
    return {
        "bs_const": (ratefn.TerminalObjective(bs, grid, 0.1), grid, 1),
        "rough_gauss": (ratefn.TerminalObjective(make_model("rough_gauss"), grid, 0.1), grid, 1),
        "frac_heston": (ratefn.TerminalObjective(make_model("frac_heston"), grid, 0.1), grid, 1),
        "mixed_demo": (ratefn.TerminalObjectiveOrthogonal(make_model("mixed_demo"), small, np.array([0.05, 0.05])), small, 2),
        "volterra_sde": (ratefn.TerminalObjective(jobs.volterra_model(), small, 0.1), small, 1),
        "path_bs_const": (ratefn.PathRateObjective(bs, target), grid, 1),
    }


def ratefn_probes(sizes, rng) -> dict:
    out = {}
    for case, (obj, grid, m) in _objective_cases(sizes).items():
        # restart-sized random control, as minimize_multistart draws them
        x = rng.normal(scale=math.sqrt(2.0 / (m * grid.horizon)), size=grid.n_steps * m)
        v = _median_time(lambda: obj.value(x))
        g = _median_time(lambda: obj.gradient(x))
        out[f"ratefn.value_s.{case}"] = v
        out[f"ratefn.grad_s.{case}"] = g
        out[f"ratefn.grad_over_value.{case}"] = g / v
    return out


VOL_FAMILIES = {
    "toy": ("bs_const", False),
    "gaussian": ("rough_gauss", False),
    "fractional": ("frac_heston", False),
    "mixed": ("mixed_demo", True),
    "reflected": ("reflected_ou", False),
    "volterra_sde": (None, True),
}


def volmap_probes(sizes, rng) -> dict:
    out = {}
    for family, (preset, small) in VOL_FAMILIES.items():
        spec = (make_model(preset) if preset else jobs.volterra_model()).vol
        grid = TimeGrid(1.0, sizes.small_steps if small else sizes.n_steps)
        dim = grid.n_steps * spec.m
        dots = rng.normal(scale=0.5, size=(2 * dim, grid.n_steps, spec.m))
        volmap.hat_map_batch(spec, dots[:1], grid)  # tables built outside the timing
        out[f"volmap.hat_map_batch_s.{family}"] = _median_time(
            lambda: volmap.hat_map_batch(spec, dots, grid), min_reps=3, max_reps=10
        )
    return out


# ---------------------------------------------------------------------------
# pricing (traced)
# ---------------------------------------------------------------------------


PRICERS = ("call_asymptote", "implied_vol_limit", "asian_asymptote", "exit_asymptote", "barrier_asymptote")
# the terminal pricers solve the explicit-ratio objective and never call phi_batch
PHI_PRICERS = ("asian_asymptote", "exit_asymptote", "barrier_asymptote")


def pricing_probes(sizes, tracer) -> dict:
    """The five pricers at README settings; ``tracer`` must be installed."""
    kw = {"n_steps": sizes.n_steps}
    if sizes.restarts is not None:
        kw["restarts"] = sizes.restarts
    toy, bs, rough = make_model("toy_sabr"), make_model("bs_const"), make_model("rough_gauss")
    half = ExitDomain.from_json_obj(json.loads(jobs.HALF_SPACE))
    box = ExitDomain.from_json_obj(json.loads(jobs.BOX))
    calls = {
        "call_asymptote": lambda: pricing.call_asymptote(toy, 1.105, 1.0, **kw),
        "implied_vol_limit": lambda: pricing.implied_vol_limit(toy, 0.1, 1.0, **kw),
        "asian_asymptote": lambda: pricing.asian_asymptote(bs, 1.05, 1.0, **kw),
        "exit_asymptote": lambda: pricing.exit_asymptote(bs, half, 1.0, horizon=1.0, **kw),
        "barrier_asymptote": lambda: pricing.barrier_asymptote(bs, box, 1.0, **kw),
    }
    out, errors = {}, []
    for fn_name, call in calls.items():
        first = len(tracer.spans)
        rep = call()
        spans = tracer.spans[first:]
        top = [s for s in spans if s["name"] == f"pricing.{fn_name}"]
        out[f"pricing.call_s.{fn_name}"] = sum(s["end"] - s["start"] for s in top)
        out[f"pricing.iters.{fn_name}"] = sum(
            s["attrs"]["iterations"] for s in spans if s["name"] == "ratefn.minimize_multistart"
        )
        if fn_name in PHI_PRICERS:
            phi = [s for s in spans if s["name"] == "ratefn.phi_batch"]
            out[f"pricing.phi_rows.{fn_name}"] = sum(s["attrs"]["rows"] for s in phi)
            out[f"pricing.phi_s.{fn_name}"] = sum(s["end"] - s["start"] for s in phi)
        if fn_name == "implied_vol_limit":
            lo, hi = iv_limit_bounds(ToyParams(1.0, 0.1))
            if not lo <= rep.limit_value <= hi:
                errors.append(f"probe toy_sabr IV limit {rep.limit_value} outside [{lo}, {hi}]")
    # inf_tail on a correlated model: bounded-scalar probes, each a full solve
    first = len(tracer.spans)
    pricing.implied_vol_limit(rough, 0.1, 1.0, **kw)
    out["ratefn.inf_tail_probes.rough_gauss"] = sum(
        1 for s in tracer.spans[first:] if s["name"] == "ratefn.itilde_terminal"
    )
    return out, errors


# ---------------------------------------------------------------------------
# mcsim
# ---------------------------------------------------------------------------


def _mc_case(name, model, grid, eps, n_paths, seed, report, keep_paths):
    """Median of three timings each of ``simulate_vol``, ``simulate_logprice``
    and one ladder entry, all on one worker; the derived self times are
    differences of those medians."""
    cfg = SimConfig(model=model, epsilon_ladder=[eps], n_paths=n_paths, grid=grid, seed=seed)
    vol_s = _median_time(lambda: simulate_vol(model.vol, eps, n_paths, grid, seed), min_total=0.0)
    lp_s = _median_time(lambda: simulate_logprice(cfg, eps, keep_paths=keep_paths), min_total=0.0)
    reps = []
    entry_s = _median_time(lambda: reps.append(report(cfg)), min_total=0.0)
    row = reps[0].rows[0]
    rel_se = row.std_error / eps  # delta method: se(log estimate) = eps * se / estimate
    return {
        f"mcsim.simulate_vol_s.{name}": vol_s,
        f"mcsim.simulate_logprice_s.{name}": lp_s,
        f"mcsim.entry_s.{name}": entry_s,
        f"mcsim.logprice_self_s.{name}": lp_s - vol_s,
        f"mcsim.payoff_self_s.{name}": entry_s - lp_s,
        f"mcsim.hits.{name}": int(round(row.estimate * row.n_effective)),
        f"mcsim.excluded.{name}": n_paths - row.n_effective,
        f"mcsim.s_to_rel10.{name}": entry_s * (rel_se / 0.1) ** 2,
    }, row


def mcsim_probes(sizes, seed) -> tuple[dict, list]:
    """Cases at their target epsilon on ``sizes.probe_paths`` paths; the
    2-worker speed-up is measured on two full blocks."""
    n = sizes.probe_paths
    tail_grid, exit_grid = TimeGrid(1.0, sizes.tail_steps), TimeGrid(1.0, sizes.exit_steps)
    bs, mg = make_model("bs_const"), jobs.mg_model()
    jobs.warm_tables(mg, tail_grid, simulate=True)  # already built when the sweep ran first
    half = ExitDomain.from_json_obj(json.loads(jobs.HALF_SPACE))
    tail = lambda cfg: ldp_tail_report(cfg, 0.1, reference_rate=0.125)
    exit_ = lambda cfg: mc_exit_report(cfg, half, 1.0, reference_rate=0.36125)
    out, errors = {}, []
    m, row = _mc_case("bs_tail", bs, tail_grid, 0.05, n, seed, tail, False)
    out.update(m)
    se = row.std_error * row.estimate / row.epsilon
    exact = jobs.bs_tail_exact(0.05, 0.1)
    if not abs(row.estimate - exact) <= jobs.MC_SIGMAS * se:
        errors.append(f"probe bs tail: {row.estimate} vs exact {exact}, se {se}")
    m, row = _mc_case("mg_tail", mg, tail_grid, 0.05, n, seed, tail, False)
    out.update(m)
    if row.n_effective != n:
        errors.append(f"probe mg tail: {n - row.n_effective} blow-ups")
    m, row = _mc_case("bs_exit", bs, exit_grid, 0.1, n, seed, exit_, True)
    out.update(m)
    timed = {}
    for workers in (1, 2):
        cfg = SimConfig(model=bs, epsilon_ladder=[0.1], n_paths=2 * BLOCK_SIZE, grid=exit_grid, seed=seed,
                        max_workers=workers)
        t = time.perf_counter()
        timed[workers] = (exit_(cfg).rows[0].estimate, time.perf_counter() - t)
    out["mcsim.speedup_2w.bs_exit"] = timed[1][1] / timed[2][1]
    # on the larger two-block sample: the bias is a few SE of the small one
    out["mcsim.monitoring_bias.bs_exit"] = 1.0 - timed[2][0] / jobs.bs_exit_continuous(0.1, 0.17)
    if timed[1][0] != timed[2][0]:
        errors.append("probe bs exit: 1- and 2-worker estimates differ")
    return out, errors


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _tabulated_kernel():
    axis = np.linspace(0.0, 1.0, 41)
    vals = np.exp(-np.subtract.outer(axis, axis) ** 2)
    return K.tabulated(axis, axis, vals)


def sweep_kinds():
    """Kinds of the cold sweep.  mg_h03 comes last and its rms table is its
    last build, so the sweep leaves the table the mg_tail probe needs."""
    return {
        "rl_h03": K.riemann_liouville(0.3),
        "rl_h07": K.riemann_liouville(0.7),
        "log_b2": K.logarithmic(2.0),
        "tabulated": _tabulated_kernel(),
        "brownian": K.brownian(),
        "mg_h03": K.molchan_golosov(0.3),
    }


# Molchan-Golosov quad_weights is left out: pc_weights builds it for that
# kind, so ``pc_weights_s.mg_h03`` already holds its cost.  The H = 0.7
# Molchan-Golosov kind is left out too: its two cold tables would add about
# 11 s to every traced run, and no workload uses it.
SWEEP_SKIP = {("quad", "mg_h03")}


def kernel_sweep(sizes) -> dict:
    out = {}
    for kind, kern in sweep_kinds().items():
        # the logarithmic kernel is square integrable only for t < 1
        grid = TimeGrid(0.5 if kind == "log_b2" else 1.0, sizes.n_steps)
        for table, fn in TABLES.items():
            if (table, kind) in SWEEP_SKIP:
                continue
            # every cache of the module, private ones included (kernel values
            # on the grid are shared between tables), so the build is cold
            for obj in vars(K).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
            t = time.perf_counter()
            fn(kern, grid)
            out[f"kernels.{table}_weights_s.{kind}"] = time.perf_counter() - t
    return out
