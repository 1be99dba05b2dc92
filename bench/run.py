#!/usr/bin/env python3
"""ldpvol benchmark: one workload per process, oracle-checked.

    python3 bench/run.py --workload rates --seed 1 --seconds 30 --trace 0

Workloads (closed loops: each job starts when the previous one ends):
  rates    README rate/pricing CLI commands plus one volterra_sde library
           solve, on 1 thread;
  mc_tail  mc-verify on configs/sim_tail_bs.json and a Molchan-Golosov
           ldp_tail_report, 2^16 paths, 1 worker;
  mc_exit  mc-verify on configs/sim_exit_bs.json, 2^15 paths, 1 worker.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
done three times (this process and two fresh child processes) and its median
reported; passes over the job list repeat while the next one is expected to
end within ``--seconds`` (at least two passes), and the median pass is
reported.  ``--trace 1``
runs one untraced and one traced pass (for the tracing overhead), then the
per-layer probe suite; spans go to ``bench/out/`` as JSON lines.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines give the provenance and each
metric with its unit.  The exit code is nonzero if any operation failed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
MIN_PASSES = 2
RNG_SCHEME = "Philox keyed by (seed, ladder index, block index), 2^15-path blocks"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    import probes

    units = {"trace.pass_wall_s": "s", "trace.overhead": "1", "trace.spans": "count", "cli.self_s": "s",
             "kernels.cache_hits": "count", "kernels.cache_misses": "count",
             "mcsim.path_steps": "count", "mcsim.normal_bytes": "B"}
    for case in probes.OBJECTIVE_CASES:
        units[f"ratefn.value_s.{case}"] = "s"
        units[f"ratefn.grad_s.{case}"] = "s"
        units[f"ratefn.grad_over_value.{case}"] = "1"
    units["ratefn.inf_tail_probes.rough_gauss"] = "count"
    for family in probes.VOL_FAMILIES:
        units[f"volmap.hat_map_batch_s.{family}"] = "s"
    for kind in probes.sweep_kinds():
        for table in probes.TABLES:
            if (table, kind) not in probes.SWEEP_SKIP:
                units[f"kernels.{table}_weights_s.{kind}"] = "s"
    for fn in probes.PRICERS:
        units[f"pricing.call_s.{fn}"] = "s"
        units[f"pricing.iters.{fn}"] = "count"
    for fn in probes.PHI_PRICERS:
        units[f"pricing.phi_rows.{fn}"] = "count"
        units[f"pricing.phi_s.{fn}"] = "s"
    for case in ("bs_tail", "mg_tail", "bs_exit"):
        for key in ("simulate_vol_s", "simulate_logprice_s", "entry_s", "logprice_self_s", "payoff_self_s", "s_to_rel10"):
            units[f"mcsim.{key}.{case}"] = "s"
        units[f"mcsim.hits.{case}"] = "count"
        units[f"mcsim.excluded.{case}"] = "count"
    units["mcsim.monitoring_bias.bs_exit"] = "1"
    units["mcsim.speedup_2w.bs_exit"] = "1"
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("rates", "mc_tail", "mc_exit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="shift every oracle value (smoke check: the run must fail)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable (no git)"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def do_setup(args, workdir):
    import jobs

    sizes = jobs.TINY if args.tiny else jobs.FULL
    shift = 0.05 if args.corrupt_oracle else 0.0
    return jobs.setup(args.workload, args.seed, sizes, str(workdir), oracle_shift=shift)


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process, measured the same way as our own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    res = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed: {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(wl, pass_index):
    """One closed-loop pass; job time excludes the oracle check."""
    records = []
    for job in wl.jobs_for_pass(pass_index):
        t = time.perf_counter()
        try:
            out = job.run()
            seconds = time.perf_counter() - t
            errors = job.check(out)
        except Exception as exc:  # a raising operation is a failed operation
            seconds = time.perf_counter() - t
            out, errors = None, [f"{job.name}: raised {type(exc).__name__}: {exc}"]
        records.append({"job": job.name, "seconds": seconds, "errors": errors,
                        "mc": job.mc, "out": out if job.mc else None})
    return {"wall": sum(r["seconds"] for r in records), "records": records}


def s_to_rel10(wl, passes):
    """Seconds per ladder entry x (rel. SE / 0.1)^2 at the target epsilon."""
    import jobs

    name, eps = wl.target
    vals = []
    for p in passes:
        for r in p["records"]:
            if r["job"] != name or r["out"] is None:
                continue
            for e, est, se, _ in jobs.rows_summary(r["out"]["payload"]):
                if e == eps and est > 0:
                    vals.append(r["seconds"] / len(r["mc"]["ladder"]) * (se / est / 0.1) ** 2)
    return statistics.median(vals) if vals else float("nan")


def path_steps(one_pass) -> int:
    """Path-steps simulated by one pass (computed from the job sizes)."""
    mc = [r["mc"] for r in one_pass["records"] if r["mc"]]
    return sum(m["n_paths"] * m["n_steps"] * len(m["ladder"]) for m in mc)


def host_steal_s():
    """CPU time the hypervisor took from this machine's CPUs so far, from
    /proc/stat; None where it is not available.  Reported so that a slow run
    can be told apart from a slow program."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def install_tracer(tracer):
    """Wrap the public functions of each layer for the traced pass."""
    import numpy as np

    from ldpvol import cli, kernels, mcsim, pricing, ratefn, volmap

    def rows(args, kwargs, result):
        f = args[3] if len(args) > 3 else kwargs["f_dots"]
        return {"rows": math.prod(np.shape(f)[:-2])}

    tracer.install_function(cli, "main", "cli.main", lambda a, k, r: {"command": a[0][0] if a else None})
    for fn in ("itilde_terminal", "qtilde_path", "inf_tail", "inf_tail_result"):
        tracer.install_function(ratefn, fn, f"ratefn.{fn}")
    tracer.install_function(ratefn, "minimize_multistart", "ratefn.minimize_multistart",
                            lambda a, k, r: {"iterations": r[1]["iterations"]})
    tracer.install_function(ratefn, "phi_batch", "ratefn.phi_batch", rows)
    for cls in (ratefn.TerminalObjective, ratefn.TerminalObjectiveOrthogonal, ratefn.PathRateObjective):
        for meth in ("value_batch", "gradient"):
            tracer.install_method(cls, meth, f"ratefn.{cls.__name__}.{meth}")
    for fn in ("call_asymptote", "implied_vol_limit", "asian_asymptote", "exit_asymptote", "barrier_asymptote"):
        tracer.install_function(pricing, fn, f"pricing.{fn}")
    for fn in ("hat_map_batch", "gamma_y_batch", "solve_psi_batch"):
        tracer.install_function(volmap, fn, f"volmap.{fn}")
    for fn in ("pc_weights", "rms_weights", "quad_weights", "hs_apply", "slice_variance", "l2_modulus", "kernel_info"):
        tracer.install_function(kernels, fn, f"kernels.{fn}")
    for fn in ("simulate_vol", "simulate_logprice", "ldp_tail_report", "mc_call_report", "mc_exit_report"):
        tracer.install_function(mcsim, fn, f"mcsim.{fn}")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def traced_run(args, wl, out_dir):
    """One traced pass of the workload, then the probe suite.

    The pass's wall time is comparable with ``wall_s`` of untraced runs; the
    overhead reported here is computed: spans times the measured cost of one
    wrapper call, over the traced pass's wall time.
    """
    import numpy as np

    import probes
    from tracer import Tracer, span_cost

    tracer = Tracer()
    install_tracer(tracer)
    try:
        t_traced = time.perf_counter()
        traced = run_pass(wl, 0)
        pass_spans = list(tracer.spans)
        hits, misses = probes.table_cache_counts()
        pricing_m, errors = probes.pricing_probes(wl.sizes, tracer)
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    layer_self = {}
    for s in pass_spans:
        layer_self[layer_of(s["name"])] = layer_self.get(layer_of(s["name"]), 0.0) + selfs[s["id"]]
    steps = path_steps(traced)
    metrics = {
        "trace.pass_wall_s": traced["wall"],
        "trace.overhead": len(pass_spans) * span_cost() / traced["wall"],
        "trace.spans": len(pass_spans),
        "cli.self_s": layer_self["cli"],
        "kernels.cache_hits": hits,
        "kernels.cache_misses": misses,
        "mcsim.path_steps": steps,
        "mcsim.normal_bytes": 2 * 8 * steps,  # two f64 normals per path-step, m = 1
    }
    rng = np.random.default_rng(args.seed)
    metrics.update(probes.ratefn_probes(wl.sizes, rng))
    metrics.update(probes.volmap_probes(wl.sizes, rng))
    metrics.update(pricing_m)
    metrics.update(probes.kernel_sweep(wl.sizes))  # before mcsim: see sweep_kinds
    mc_m, mc_errors = probes.mcsim_probes(wl.sizes, args.seed)
    metrics.update(mc_m)
    errors += mc_errors
    tracer.write_jsonl(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", t_traced)
    detail = {
        "workload": args.workload,
        "self_s_by_layer": layer_self,
        "jobs": job_detail(pass_spans, traced["records"]),
    }
    if wl.target:
        detail["s_to_rel10_s"] = s_to_rel10(wl, [traced])
    return metrics, [traced], errors, detail


def job_detail(spans, records):
    """Per job of the traced pass: span time and L-BFGS iterations under it.

    Each job opens exactly one root span (``cli.main`` or the library call),
    so roots in start order pair with the jobs in run order.
    """
    by_id = {s["id"]: s for s in spans}
    roots = sorted((s for s in spans if s["parent"] is None and s["thread"] == spans[-1]["thread"]),
                   key=lambda s: s["start"])
    out = {r["job"]: {"s": root["end"] - root["start"], "lbfgs_iters": 0} for r, root in zip(records, roots)}
    root_job = {root["id"]: r["job"] for r, root in zip(records, roots)}
    for s in spans:
        if s["name"] != "ratefn.minimize_multistart":
            continue
        top = s
        while top["parent"] is not None:
            top = by_id[top["parent"]]
        if top["id"] in root_job:
            out[root_job[top["id"]]]["lbfgs_iters"] += s["attrs"]["iterations"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # Untraced runs generate load from one thread: BLAS stays single-threaded
    # and every workload runs its Monte Carlo blocks on one worker (on a
    # shared 2-vCPU host, a 2-worker pass spread too widely from run to run).
    # Only the traced run's probes start a second worker.  Set before numpy
    # is imported; the set-up children inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ldpvol" / "__init__.py").is_file():
        print(f"error: the ldpvol sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    out_dir = HERE / "out"
    try:
        wl = do_setup(args, workdir)
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, wl, own_setup, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, own_setup, out_dir) -> int:
    import jobs

    out_dir.mkdir(exist_ok=True)
    provenance = {
        **jobs.versions(), "nproc": os.cpu_count(), "git_commit": git_commit(),
        "rng": RNG_SCHEME, "workers": wl.workers, "seed": args.seed, "workload": args.workload,
        "trace": args.trace, "sizes": "tiny" if args.tiny else "full",
    }
    print(json.dumps({"provenance": provenance}))
    errors = []
    if args.trace:
        metrics, passes, errors, detail = traced_run(args, wl, out_dir)
        units = per_layer_units()
        missing = set(units) ^ set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics do not match the declared list: {sorted(missing)}")
        with open(out_dir / f"report-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"provenance": provenance, "metrics": metrics, "detail": detail}, fh, indent=1)
        print(json.dumps({"detail": detail}))
    else:
        setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        passes = []
        steal_start = host_steal_s()
        t_start = time.perf_counter()
        while True:
            passes.append(run_pass(wl, len(passes)))
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall"] > args.seconds:
                break
        steal_end = host_steal_s()
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        extra = {"passes": len(passes), "pass_wall_s": [p["wall"] for p in passes], "setup_samples_s": setups,
                 "host_steal_s": None if steal_start is None else steal_end - steal_start}
        if wl.target:
            extra["s_to_rel10_s"] = s_to_rel10(wl, passes)
        print(json.dumps({"detail": extra}))
    attempted = sum(len(p["records"]) for p in passes)
    if args.trace:
        import probes

        attempted += len(probes.GATES)  # each probe gate reports at most one error
    failed = sum(1 for p in passes for r in p["records"] if r["errors"]) + len(errors)
    errors = [e for p in passes for r in p["records"] for e in r["errors"]] + errors
    for e in errors:
        print(f"FAIL {e}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    if not args.trace and wl.target:
        print(f"s_to_rel10 = {extra['s_to_rel10_s']!r} s")
    print(f"fail_ratio = {failed / attempted!r} 1 ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
