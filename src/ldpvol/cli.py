"""Command-line interface: configuration ingestion, dispatch, result emission.

Exit codes: 0 success, 2 configuration/validation problem, 3 numerical
non-convergence.  Failures print a machine-readable error object to stderr.
Every successful result echoes a resolved configuration block so runs can be
reproduced from their own output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, LdpvolError, require_number
from .kernels import KernelSpec, kernel_info
from .mcsim import SimConfig, ldp_tail_report, mc_call_report, mc_exit_report
from .paths import TimeGrid, dump_json, path_from_csv
from .presets import PRESETS, make_model, model_from_json_obj
from .pricing import (
    AsymptoteReport,
    ExitDomain,
    asian_asymptote,
    barrier_asymptote,
    call_asymptote,
    exit_asymptote,
    implied_vol_limit,
)
from .ratefn import itilde_terminal, qtilde_path, restart_count
from .toymodel import ToyParams, toy_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3


def _default_workers() -> int:
    raw = os.environ.get("LDPVOL_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise DomainError(f"LDPVOL_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise DomainError(f"LDPVOL_WORKERS must be positive, got {workers}")
    return workers


def _load_model(args):
    if getattr(args, "model", None):
        with open(args.model) as fh:
            return model_from_json_obj(json.load(fh))
    if getattr(args, "preset", None):
        return make_model(args.preset)
    raise LdpvolError("supply --model FILE or --preset NAME")


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _json_arg(arg: str, what: str) -> dict:
    """A JSON object given as a file path or as literal JSON."""
    if os.path.exists(arg):
        with open(arg) as fh:
            return _json_object(json.load(fh), what)
    return _json_object(json.loads(arg), what)


def _emit(payload: dict, args, csv_writer=None) -> None:
    """Print the payload or write PREFIX.json; only commands with --format pass a csv_writer."""
    out = getattr(args, "output", None)
    if out:
        dump_json(payload, f"{out}.json")
        if csv_writer is not None and args.format == "csv":
            csv_writer(f"{out}.csv")
        print(f"{out}.json")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _model_config(args):
    if getattr(args, "model", None):
        return {"model_file": args.model}
    return {"preset": args.preset}


def _model_command(sub, name: str, help: str):
    """A subcommand on a model: --model or --preset, the grid, the optimizer
    restarts and --output."""
    p = sub.add_parser(name, help=help)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--model", help="model JSON file ({'preset': name, 'params': {...}})")
    g.add_argument("--preset", choices=sorted(PRESETS), help="bundled model preset")
    p.add_argument("--horizon", type=float, default=1.0, help="time horizon T")
    p.add_argument("--n-steps", type=int, default=200, help="grid steps")
    p.add_argument("--seed", type=int, default=0, help="optimizer restart seed")
    p.add_argument("--restarts", type=int, default=None, help="random restarts, ≥ 0")
    p.add_argument("--output", help="output path prefix (writes PREFIX.json)")
    return p


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ldpvol",
        description="Small-noise decay rates and asymptotic prices for "
        "stochastic volatility models, with Monte Carlo verification.",
    )
    ap.add_argument("--version", action="version", version=f"ldpvol {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _model_command(sub, "rate-path", "sample-path rate of a target CSV path")
    p.add_argument("--target", required=True, help="CSV path (t, x1..xm)")

    p = _model_command(sub, "rate-terminal", "terminal rate at a target point")
    p.add_argument("--x", required=True, help="target displacement (comma list for m>1)")

    p = _model_command(sub, "call-asymptote", "decay rate of the call price")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--ladder", help="comma-separated extra strikes for a CSV ladder")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = _model_command(sub, "iv-limit", "small-noise implied volatility limit")
    p.add_argument("--k", type=float, required=True, help="log-moneyness > 0")

    p = _model_command(sub, "asian-asymptote", "decay rate of the Asian call")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--ladder", help="comma-separated extra strikes for a CSV ladder")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = _model_command(sub, "exit-rate", "decay rate of the first-exit probability")
    p.add_argument("--domain", required=True, help="domain JSON (file or literal)")
    p.add_argument("--deadline", type=float, default=None, help="exit deadline (default horizon)")

    p = _model_command(sub, "barrier-rate", "decay rate of a binary knock-in barrier")
    p.add_argument("--domain", required=True, help="price-space domain JSON")

    p = sub.add_parser("toy-bounds", help="closed-form toy-model bounds plus the rate")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n-steps", type=int, default=200)
    p.add_argument("--output", help="output path prefix")

    p = sub.add_parser("mc-verify", help="Monte Carlo ladder vs the computed rate")
    p.add_argument("--config", required=True, help="simulation config JSON file")
    p.add_argument("--output", help="output path prefix")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("kernel-info", help="kernel diagnostics on a grid")
    p.add_argument("--kernel", required=True, help="kernel JSON (file or literal)")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--n-steps", type=int, default=64)
    p.add_argument("--output", help="output path prefix")
    return ap


def _opt_kwargs(args):
    kw = {"seed": args.seed}
    if args.restarts is not None:
        kw["restarts"] = restart_count(args.restarts)
    return kw


def _resolved(args, **keys):
    """resolved_config: the model, the command's own keys, then the grid and seed."""
    return {
        **_model_config(args),
        **keys,
        "horizon": args.horizon,
        "n_steps": args.n_steps,
        "seed": args.seed,
    }


def _exit_code(converged: bool) -> int:
    return EXIT_OK if converged else EXIT_NONCONVERGED


def _cmd_rate_path(args):
    model = _load_model(args)
    g = path_from_csv(args.target)
    res = qtilde_path(model, g, **_opt_kwargs(args))
    payload = res.to_json_obj()
    payload["resolved_config"] = {
        **_model_config(args),
        "target": args.target,
        "seed": args.seed,
    }
    _emit(payload, args)
    return _exit_code(res.converged)


def _cmd_rate_terminal(args):
    model = _load_model(args)
    x = np.array([float(v) for v in str(args.x).split(",")])
    grid = TimeGrid(args.horizon, args.n_steps)
    res = itilde_terminal(model, x, grid=grid, **_opt_kwargs(args))
    payload = res.to_json_obj()
    payload["resolved_config"] = _resolved(args, x=args.x)
    _emit(payload, args)
    return _exit_code(res.converged)


def _ladder_csv(reports, key):
    def write(filename):
        import csv

        with open(filename, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([key, "rate", "limit_value"])
            for kval, rep in reports:
                w.writerow([kval, rep.rate, rep.limit_value])

    return write


def _emit_report(rep: AsymptoteReport, args, resolved: dict, csv_writer=None, **extra):
    payload = {**rep.to_json_obj(), "resolved_config": resolved, **extra}
    _emit(payload, args, csv_writer=csv_writer)
    return _exit_code(rep.diagnostics.get("converged", True))


def _strike_command(args, pricer):
    """Call and Asian asymptotes: one strike, optionally a ladder that starts
    with it (the first strike's report is reused, not solved again)."""
    model = _load_model(args)

    def solve(strike):
        return pricer(model, strike, args.horizon, n_steps=args.n_steps, **_opt_kwargs(args))

    rep = solve(args.strike)
    resolved = _resolved(args, strike=args.strike)
    if not args.ladder:
        return _emit_report(rep, args, resolved)
    ladder = [(args.strike, rep)] + [(K, solve(K)) for K in map(float, args.ladder.split(","))]
    return _emit_report(
        rep,
        args,
        resolved,
        csv_writer=_ladder_csv(ladder, "strike"),
        ladder=[{"strike": K, "rate": r.rate} for K, r in ladder],
    )


def _cmd_call(args):
    return _strike_command(args, call_asymptote)


def _cmd_asian(args):
    return _strike_command(args, asian_asymptote)


def _cmd_iv(args):
    model = _load_model(args)
    rep = implied_vol_limit(
        model, args.k, args.horizon, n_steps=args.n_steps, **_opt_kwargs(args)
    )
    return _emit_report(rep, args, _resolved(args, k=args.k))


def _cmd_exit(args):
    model = _load_model(args)
    domain = ExitDomain.from_json_obj(_json_arg(args.domain, "domain"))
    deadline = args.deadline if args.deadline is not None else args.horizon
    rep = exit_asymptote(
        model, domain, deadline, horizon=args.horizon, n_steps=args.n_steps, **_opt_kwargs(args)
    )
    return _emit_report(
        rep, args, _resolved(args, domain=domain.to_json_obj(), deadline=deadline)
    )


def _cmd_barrier(args):
    model = _load_model(args)
    domain = ExitDomain.from_json_obj(_json_arg(args.domain, "domain"))
    rep = barrier_asymptote(
        model, domain, args.horizon, n_steps=args.n_steps, **_opt_kwargs(args)
    )
    return _emit_report(rep, args, _resolved(args, domain=domain.to_json_obj()))


def _cmd_toy(args):
    params = ToyParams(args.T, args.k)
    report = toy_report(params, grid=TimeGrid(args.T, args.n_steps))
    report["resolved_config"] = {"T": args.T, "k": args.k, "n_steps": args.n_steps}
    _emit(report, args)
    return EXIT_OK


def _cmd_mc_verify(args):
    with open(args.config) as fh:
        cfg_obj = _json_object(json.load(fh), "mc-verify config")
    model = model_from_json_obj(cfg_obj["model"])
    grid = TimeGrid(cfg_obj.get("horizon", 1.0), cfg_obj.get("n_steps", 200))
    workers = args.workers if args.workers is not None else cfg_obj.get("max_workers")
    antithetic = cfg_obj.get("antithetic", False)
    if not isinstance(antithetic, bool):
        raise DomainError(f"antithetic must be true or false, got {antithetic!r}")
    cfg = SimConfig(
        model=model,
        epsilon_ladder=cfg_obj["epsilon_ladder"],
        n_paths=cfg_obj["n_paths"],
        grid=grid,
        seed=cfg_obj.get("seed", 0),
        antithetic=antithetic,
        max_workers=_default_workers() if workers is None else workers,
    )
    quantity = cfg_obj.get("quantity", "tail")
    ref = cfg_obj.get("reference_rate")
    if quantity == "tail":
        k = float(require_number(cfg_obj["k"], "k"))
        report = ldp_tail_report(cfg, k, reference_rate=ref)
    elif quantity == "call":
        strike = float(require_number(cfg_obj["strike"], "strike"))
        report = mc_call_report(cfg, strike, reference_rate=ref)
    elif quantity == "exit":
        domain = ExitDomain.from_json_obj(_json_object(cfg_obj["domain"], "domain"))
        deadline = float(require_number(cfg_obj.get("deadline", grid.horizon), "deadline"))
        report = mc_exit_report(cfg, domain, deadline, reference_rate=ref)
    else:
        raise LdpvolError(f"unknown mc quantity {quantity!r} (tail, call, exit)")
    resolved = dict(cfg_obj)
    resolved.setdefault("horizon", grid.horizon)
    resolved.setdefault("n_steps", grid.n_steps)
    resolved.setdefault("seed", cfg.seed)
    payload = report.to_json_obj()
    payload["resolved_config"] = resolved
    _emit(payload, args, csv_writer=report.to_csv)
    return EXIT_OK


def _cmd_kernel_info(args):
    spec = KernelSpec.from_json_obj(_json_arg(args.kernel, "kernel"))
    grid = TimeGrid(args.horizon, args.n_steps)
    info = kernel_info(spec, grid)
    info["resolved_config"] = {
        "kernel": spec.to_json_obj(),
        "horizon": args.horizon,
        "n_steps": args.n_steps,
    }
    _emit(info, args)
    return EXIT_OK


_HANDLERS = {
    "rate-path": _cmd_rate_path,
    "rate-terminal": _cmd_rate_terminal,
    "call-asymptote": _cmd_call,
    "iv-limit": _cmd_iv,
    "asian-asymptote": _cmd_asian,
    "exit-rate": _cmd_exit,
    "barrier-rate": _cmd_barrier,
    "toy-bounds": _cmd_toy,
    "mc-verify": _cmd_mc_verify,
    "kernel-info": _cmd_kernel_info,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ConvergenceError as exc:
        _print_error(exc)
        return EXIT_NONCONVERGED
    except (LdpvolError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        _print_error(exc)
        return EXIT_CONFIG


def _print_error(exc) -> None:
    json.dump(
        {"error": type(exc).__name__, "message": str(exc)}, sys.stderr, indent=2
    )
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
