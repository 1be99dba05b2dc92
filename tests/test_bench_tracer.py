"""The traced benchmark wraps library functions and methods by name; a name it
looks up that the library no longer has must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from ldpvol import ratefn

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_on_the_current_library():
    run, tracer = _load("run"), _load("tracer").Tracer()
    original = ratefn.TerminalObjective.__dict__["value_batch"]
    try:
        run.install_tracer(tracer)
        assert ratefn.TerminalObjective.__dict__["value_batch"] is not original
    finally:
        tracer.uninstall()
    assert ratefn.TerminalObjective.__dict__["value_batch"] is original


def test_bench_objective_probes_build_and_run(monkeypatch):
    # the per-layer ratefn probes construct each objective class by name
    monkeypatch.syspath_prepend(str(BENCH))
    probes = _load("probes")  # which imports the bench's jobs by name
    for name, (obj, grid, m) in probes._objective_cases(probes.jobs.TINY).items():
        x = np.full(grid.n_steps * m, 0.1)
        assert np.isfinite(obj.value(x)), name
        assert np.all(np.isfinite(obj.gradient(x))), name
