import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ldpvol import cli
from ldpvol.cli import EXIT_CONFIG, EXIT_NONCONVERGED, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_import_loads_no_scipy_integrate():
    # kernels imports scipy.integrate at its two quadratures only, and ratefn
    # scipy.optimize at its one solve; a module level import of either would
    # slow the start of every command
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, ldpvol.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_toy_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "toy-bounds", "--T", "1", "--k", "0.1")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["lower"] == pytest.approx(0.005000, abs=1e-6)
    assert obj["upper"] == pytest.approx(0.0158198, abs=1e-6)
    assert obj["lower"] <= obj["rate"] <= obj["upper"]
    assert obj["resolved_config"]["n_steps"] == 200


def test_rate_terminal_bundled_model(capsys):
    code, out, _ = run_cli(
        capsys, "rate-terminal", "--preset", "bs_const", "--x", "0.1", "--n-steps", "100"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.125, rel=1e-4)
    assert obj["resolved_config"]["preset"] == "bs_const"
    assert 0 < obj["diagnostics"]["evaluation_rounds"] < obj["diagnostics"]["gradient_evaluations"]


def test_missing_model_file_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "rate-terminal", "--model", "/no/such/file.json", "--x", "0.1"
    )
    assert code == EXIT_CONFIG
    assert "error" in json.loads(err)


def test_bad_parameter_exit_2(capsys):
    code, _, err = run_cli(capsys, "toy-bounds", "--T", "1", "--k", "-0.5")
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [
        ["rate-terminal", "--preset", "bs_const", "--x", "0.1", "--restarts", "-1"],
        ["exit-rate", "--preset", "bs_const", "--domain",
         '{"kind":"half_space","normal":[1.0],"offset":0.17}', "--restarts", "-3"],
    ],
    ids=["rate-terminal", "exit-rate"],
)
def test_negative_restarts_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_model_file_and_outputs(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({"preset": "bs_const", "params": {"sigma0": 0.3}}))
    out_prefix = tmp_path / "result"
    code, _, _ = run_cli(
        capsys,
        "iv-limit",
        "--model",
        str(model_file),
        "--k",
        "0.1",
        "--n-steps",
        "100",
        "--output",
        str(out_prefix),
    )
    assert code == EXIT_OK
    obj = json.loads((tmp_path / "result.json").read_text())
    assert obj["limit_value"] == pytest.approx(0.3, rel=1e-5)


def test_iv_limit_nonconverged_exit_3(capsys, monkeypatch):
    from ldpvol.pricing import AsymptoteReport

    def stalled(model, k, horizon, **kw):
        return AsymptoteReport(
            "implied_vol_limit", rate=0.125, limit_value=0.2,
            diagnostics={"degenerate": False, "converged": False},
        )

    monkeypatch.setattr(cli, "implied_vol_limit", stalled)
    code, out, _ = run_cli(capsys, "iv-limit", "--preset", "bs_const", "--k", "0.1")
    assert code == EXIT_NONCONVERGED
    assert json.loads(out)["diagnostics"]["converged"] is False


def test_call_ladder_csv(tmp_path, capsys):
    out_prefix = tmp_path / "call"
    code, _, _ = run_cli(
        capsys,
        "call-asymptote",
        "--preset",
        "bs_const",
        "--strike",
        "1.1",
        "--ladder",
        "1.2,1.3",
        "--n-steps",
        "60",
        "--format",
        "csv",
        "--output",
        str(out_prefix),
    )
    assert code == EXIT_OK
    lines = (tmp_path / "call.csv").read_text().strip().splitlines()
    assert lines[0].startswith("strike")
    assert len(lines) == 4
    obj = json.loads((tmp_path / "call.json").read_text())
    rates = [row["rate"] for row in obj["ladder"]]
    assert rates == sorted(rates)


def test_exit_rate_inline_domain(capsys):
    dom = json.dumps({"kind": "half_space", "normal": [1.0], "offset": 0.2})
    code, out, _ = run_cli(
        capsys,
        "exit-rate",
        "--preset",
        "bs_const",
        "--domain",
        dom,
        "--n-steps",
        "60",
        "--restarts",
        "2",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["rate"] == pytest.approx(0.2**2 / 0.08, rel=2e-2)


def test_barrier_rate(capsys):
    dom = json.dumps({"kind": "box", "lower": [0.0], "upper": [1.25]})
    code, out, _ = run_cli(
        capsys,
        "barrier-rate",
        "--preset",
        "bs_const",
        "--domain",
        dom,
        "--n-steps",
        "60",
        "--restarts",
        "2",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["rate"] == pytest.approx(math.log(1.25) ** 2 / 0.08, rel=2e-2)
    assert obj["diagnostics"]["discount_prefactor"] == 1.0


def test_kernel_info(capsys):
    code, out, _ = run_cli(
        capsys,
        "kernel-info",
        "--kernel",
        json.dumps({"kind": "riemann_liouville", "hurst": 0.5}),
        "--n-steps",
        "16",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["kind"] == "riemann_liouville"
    # H = 1/2 slice variance equals t
    for t_str, v in obj["slice_variance"].items():
        assert v == pytest.approx(float(t_str), rel=1e-12)


def test_mc_verify_round_trip(tmp_path, capsys):
    cfg = {
        "model": {"preset": "bs_const"},
        "quantity": "tail",
        "epsilon_ladder": [0.4, 0.2],
        "n_paths": 20000,
        "horizon": 1.0,
        "n_steps": 50,
        "seed": 7,
        "k": 0.1,
        "reference_rate": 0.125,
    }
    cfg_file = tmp_path / "sim.json"
    cfg_file.write_text(json.dumps(cfg))
    out_prefix = tmp_path / "mc"
    code, _, _ = run_cli(
        capsys,
        "mc-verify",
        "--config",
        str(cfg_file),
        "--format",
        "csv",
        "--output",
        str(out_prefix),
    )
    assert code == EXIT_OK
    obj = json.loads((tmp_path / "mc.json").read_text())
    assert obj["reference_rate"] == 0.125
    assert len(obj["rows"]) == 2
    # re-running the echoed config reproduces the estimates exactly
    (tmp_path / "sim2.json").write_text(json.dumps(obj["resolved_config"]))
    code2, _, _ = run_cli(
        capsys, "mc-verify", "--config", str(tmp_path / "sim2.json"),
        "--output", str(tmp_path / "mc2"),
    )
    assert code2 == EXIT_OK
    obj2 = json.loads((tmp_path / "mc2.json").read_text())
    assert obj2["rows"] == obj["rows"]
    lines = (tmp_path / "mc.csv").read_text().strip().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("workers", ["-2", "0"])
def test_mc_verify_rejects_nonpositive_workers(tmp_path, capsys, monkeypatch, workers):
    # a nonpositive --workers is rejected, not replaced by the config's or
    # the environment's worker count
    monkeypatch.setenv("LDPVOL_WORKERS", "2")
    cfg = {
        "model": {"preset": "bs_const"}, "quantity": "tail", "epsilon_ladder": [0.4],
        "n_paths": 2000, "n_steps": 10, "seed": 7, "k": 0.1, "reference_rate": 0.125,
        "max_workers": 2,
    }
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    code, out, err = run_cli(
        capsys, "mc-verify", "--config", str(tmp_path / "sim.json"), "--workers", workers
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def _tail_config(tmp_path, **extra):
    cfg = {
        "model": {"preset": "bs_const"}, "quantity": "tail", "epsilon_ladder": [0.4],
        "n_paths": 2000, "n_steps": 10, "seed": 7, "k": 0.1, "reference_rate": 0.125,
        **extra,
    }
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    return str(tmp_path / "sim.json")


@pytest.mark.parametrize("env", ["0", "-1", "abc", "1.5"])
def test_mc_verify_rejects_bad_worker_environment(tmp_path, capsys, monkeypatch, env):
    # LDPVOL_WORKERS is read when neither --workers nor max_workers is given;
    # a count below 1 or a non-integer is a configuration error, not 1 worker
    monkeypatch.setenv("LDPVOL_WORKERS", env)
    code, out, err = run_cli(capsys, "mc-verify", "--config", _tail_config(tmp_path))
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"
    assert "LDPVOL_WORKERS" in json.loads(err)["message"]


@pytest.mark.parametrize("flag", [False, True, "false", "true", 0, 1, None])
def test_mc_verify_antithetic_takes_only_a_json_boolean(tmp_path, capsys, flag):
    # "false" once read as bool("false"), True: the run went antithetic while
    # resolved_config echoed "false"
    code, out, err = run_cli(
        capsys, "mc-verify", "--config", _tail_config(tmp_path, antithetic=flag)
    )
    if isinstance(flag, bool):
        assert code == EXIT_OK
        assert json.loads(out)["resolved_config"]["antithetic"] is flag
    else:
        assert code == EXIT_CONFIG
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize(
    "model, cfg_extra, error",
    [
        ({"preset": "bs_const", "params": {"nope": 1}}, {}, "UnsupportedFormError"),
        ({"preset": "bs_const", "params": {"sigma0": None}}, {}, "DomainError"),
        ({"preset": "bs_const", "params": [0.2]}, {}, "UnsupportedFormError"),
        (5, {}, "UnsupportedFormError"),
        (None, {"epsilon_ladder": 0.1}, "DomainError"),
        (None, {"epsilon_ladder": [0.4, "0.2"]}, "DomainError"),
        (None, {"n_paths": None}, "DomainError"),
        (None, {"n_paths": 2000.5}, "DomainError"),
        (None, {"n_steps": None}, "DomainError"),
        (None, {"horizon": None}, "DomainError"),
        (None, {"k": None}, "DomainError"),
    ],
)
def test_wrongly_typed_input_is_a_config_error(tmp_path, capsys, model, cfg_extra, error):
    # each of these once raised a TypeError that escaped main with a traceback
    if model is not None:
        (tmp_path / "model.json").write_text(json.dumps(model))
        argv = ["iv-limit", "--model", str(tmp_path / "model.json"), "--k", "0.1"]
    else:
        argv = ["mc-verify", "--config", _tail_config(tmp_path, **cfg_extra)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["rate-terminal", "--preset", "bs_const", "--x", "nan"],
        ["rate-terminal", "--preset", "bs_const", "--x", "inf"],
        ["iv-limit", "--preset", "bs_const", "--k", "nan"],
        ["iv-limit", "--preset", "bs_const", "--k", "inf"],
        ["call-asymptote", "--preset", "bs_const", "--strike", "nan"],
        ["call-asymptote", "--preset", "bs_const", "--strike", "inf"],
        ["asian-asymptote", "--preset", "bs_const", "--strike", "nan"],
        ["call-asymptote", "--preset", "bs_const", "--strike", "1.1", "--horizon", "inf"],
        ["rate-terminal", "--preset", "bs_const", "--x", "0.1", "--horizon", "nan"],
        ["kernel-info", "--kernel", '{"kind": "brownian"}', "--horizon", "inf"],
        ["exit-rate", "--preset", "bs_const", "--domain",
         '{"kind": "half_space", "normal": [1.0], "offset": NaN}'],
        ["exit-rate", "--preset", "bs_const", "--domain",
         '{"kind": "half_space", "normal": [Infinity], "offset": 0.2}'],
        ["exit-rate", "--preset", "bs_const", "--domain",
         '{"kind": "box", "lower": [NaN], "upper": [0.2]}'],
        ["barrier-rate", "--preset", "bs_const", "--domain",
         '{"kind": "box", "lower": [0.0], "upper": [NaN]}'],
    ],
)
def test_non_finite_input_is_a_config_error(capsys, argv):
    # these once printed NaN or Infinity, which is not JSON, and exited 3
    code, out, err = run_cli(capsys, *argv, "--n-steps", "20")
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["kernel-info", "--kernel", '{"kind": "riemann_liouville", "hurst": "0.3"}'], "DomainError"),
        (["kernel-info", "--kernel", '{"kind": "riemann_liouville", "hurst": [0.3]}'], "DomainError"),
        (["kernel-info", "--kernel", '{"kind": "logarithmic", "beta": "2"}'], "DomainError"),
        (["kernel-info", "--kernel", '{"kind": "tabulated", "table": "x"}'], "InvalidKernelError"),
        (["exit-rate", "--preset", "bs_const", "--domain",
          '{"kind": "box", "lower": {"a": 1}, "upper": [1]}'], "DomainError"),
        (["exit-rate", "--preset", "bs_const", "--domain",
          '{"kind": "box", "lower": [[0.0]], "upper": [[1.0]]}'], "DomainError"),
        (["exit-rate", "--preset", "bs_const", "--domain",
          '{"kind": "half_space", "normal": {"a": 1}, "offset": 0.17}'], "DomainError"),
        (["exit-rate", "--preset", "bs_const", "--domain",
          '{"kind": "box", "lower": [0.0], "upper": "abc"}'], "DomainError"),
        (["kernel-info", "--kernel",
          '{"kind": "tabulated", "table": {"t": {"a": 1}, "s": [0.0], "values": [[1.0]]}}'],
         "InvalidKernelError"),
        (["kernel-info", "--kernel",
          '{"kind": "tabulated", "table": {"t": [0.0], "s": [{"b": 2}], "values": [[1.0]]}}'],
         "InvalidKernelError"),
        (["kernel-info", "--kernel",
          '{"kind": "tabulated", "table": {"t": [0.0], "s": [0.0], "values": [[1.0]]}}'],
         "InvalidKernelError"),
        (["kernel-info", "--kernel", '{"kind": "tabulated", "table": {"t": [0.0, 1.0], '
          '"s": [0.0, 1.0], "values": [[1.0, null], [1.0, 1.0]]}}'], "InvalidKernelError"),
    ],
)
def test_wrongly_typed_kernel_or_domain_is_a_config_error(capsys, argv, error):
    # the first seven once raised a TypeError that escaped main with a
    # traceback (exit 1) and the eighth exited 2 as a bare ValueError; of the
    # four tabulated tables after them, the first two also escaped as a
    # TypeError, and the one-node axis and the null value warned of a
    # division by zero and blamed admissibility
    code, out, err = run_cli(capsys, *argv, "--n-steps", "20")
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("preset, x", [("bs_const", "0.1,0.5"), ("mixed_demo", "0.05")])
def test_rate_terminal_needs_m_targets(capsys, preset, x):
    # bs_const once solved at 0.1 and dropped 0.5 without a word
    code, out, err = run_cli(capsys, "rate-terminal", "--preset", preset, "--x", x)
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "DimensionError"


def test_rate_terminal_two_targets_on_mixed_demo(capsys):
    code, out, _ = run_cli(
        capsys, "rate-terminal", "--preset", "mixed_demo", "--x", "0.05,0.05",
        "--n-steps", "20", "--restarts", "0",
    )
    assert code == EXIT_OK
    assert json.loads(out)["value"] > 0.0


def test_format_only_on_commands_that_write_csv():
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    takes_format = {
        name for name, p in sub.choices.items() if "--format" in p._option_string_actions
    }
    assert takes_format == {"call-asymptote", "asian-asymptote", "mc-verify"}


def test_rate_path_command(tmp_path, capsys):
    from ldpvol import TimeGrid, PathFn
    from ldpvol.paths import path_to_csv

    grid = TimeGrid(1.0, 60)
    target = tmp_path / "target.csv"
    path_to_csv(PathFn(grid, 0.1 * grid.nodes), target)
    code, out, _ = run_cli(
        capsys,
        "rate-path",
        "--preset",
        "bs_const",
        "--target",
        str(target),
        "--restarts",
        "2",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.125, rel=1e-6)
    assert obj["minimizer_l"] is not None


def test_rate_path_with_a_nan_target_is_a_config_error(tmp_path, capsys):
    # this once exited 2 as a bare ValueError
    target = tmp_path / "target.csv"
    target.write_text("t,x0\n0.0,0.0\n0.5,nan\n1.0,0.1\n")
    code, out, err = run_cli(capsys, "rate-path", "--preset", "bs_const", "--target", str(target))
    assert code == EXIT_CONFIG
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_frac_heston_restart_seed_105_converges(capsys):
    # this restart seed once ended at the right value with a gradient norm
    # just above L-BFGS's gtol and exited 3
    rates = {}
    for seed in ("0", "105"):
        code, out, _ = run_cli(
            capsys, "rate-terminal", "--preset", "frac_heston", "--x", "0.1", "--seed", seed
        )
        assert code == EXIT_OK
        rates[seed] = json.loads(out)["value"]
    assert rates["105"] == pytest.approx(rates["0"], rel=1e-9)
