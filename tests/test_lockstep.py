"""Lock-step multistart: batched objectives and the waves of L-BFGS solves.

Every start of ``minimize_multistart`` runs scipy's L-BFGS-B on a thread of
its own while the calling thread evaluates all posted points in one batched
``value_and_grad`` call.  The sequential reference runs the same starts
through ``lbfgs`` one by one on 1-D calls.
"""

import io
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from ldpvol import TimeGrid, ratefn
from ldpvol.paths import PathFn
from ldpvol.presets import bs_const, frac_heston, mixed_demo, reflected_ou, rough_gauss, toy_sabr
from ldpvol.pricing import PENALTY_MAXITER, _AsianProblem, _ExitFaceProblem
from ldpvol.ratefn import (
    PathRateObjective,
    TerminalObjective,
    _restart_points,
    lbfgs,
    minimize_multistart,
)
from ldpvol.volmap import FD_STEP
from test_ratefn import _volterra_model

GRID = TimeGrid(1.0, 40)
# A batched row may round differently from a 1-D call only where a kernel
# weight table goes through BLAS (a batched GEMM against a GEMV).  The
# central-difference state derivatives turn such an ulp of state into about
# eps / FD_STEP of a derivative, so that bounds the gradient rows.
GRAD_ROW_TOL = np.finfo(float).eps / FD_STEP
VALUE_ROW_TOL = 1e-13


# name -> (objective factory, dim, control_dim, maxiter, reads a kernel table);
# the penalty problems stay at mu = PENALTY_START, their multistart's stage
CASES = {
    "bs_const": (lambda: TerminalObjective(bs_const(), GRID, 0.1), 40, 1, 500, False),
    "toy_sabr": (lambda: TerminalObjective(toy_sabr(), GRID, 0.1), 40, 1, 500, False),
    "rough_gauss": (lambda: TerminalObjective(rough_gauss(), GRID, 0.1), 40, 1, 500, True),
    "frac_heston": (lambda: TerminalObjective(frac_heston(), GRID, 0.1), 40, 1, 500, True),
    "reflected_ou": (lambda: TerminalObjective(reflected_ou(), GRID, 0.2), 40, 1, 500, False),
    "volterra_sde": (lambda: TerminalObjective(_volterra_model(), GRID, 0.1), 40, 1, 500, False),
    "mixed_demo": (
        lambda: TerminalObjective(mixed_demo(), GRID, np.array([0.05, 0.05])),
        80, 2, 500, True,
    ),
    "path_bs_const": (
        lambda: PathRateObjective(bs_const(), PathFn(GRID, 0.1 * GRID.nodes)), 40, 1, 500, False
    ),
    "path_rough_gauss": (
        lambda: PathRateObjective(rough_gauss(), PathFn(GRID, 0.1 * GRID.nodes)), 40, 1, 500, True
    ),
    "asian_bs_const": (
        lambda: _AsianProblem(bs_const(), GRID, 1.05), 80, 2, PENALTY_MAXITER, False
    ),
    "exit_toy_sabr": (
        lambda: _ExitFaceProblem(toy_sabr(), GRID, (np.array([1.0]), 0.1), 1.0),
        80, 2, PENALTY_MAXITER, False,
    ),
    "exit_frac_heston": (
        lambda: _ExitFaceProblem(frac_heston(), GRID, (np.array([1.0]), 0.1), 1.0),
        80, 2, PENALTY_MAXITER, True,
    ),
}


class _Recorder:
    """Wraps an objective: counts its calls and records the calling threads."""

    def __init__(self, objective, fail_at=None, error=KeyError):
        self.objective = objective
        self.calls = 0
        self.threads = set()
        self.fail_at = fail_at
        self.error = error
        self.peak_threads = threading.active_count()

    def value_and_grad(self, x):
        self.calls += 1
        self.threads.add(threading.get_ident())
        self.peak_threads = max(self.peak_threads, threading.active_count())
        if self.calls == self.fail_at:
            raise self.error("objective failed mid-run")
        return self.objective.value_and_grad(x)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lockstep_matches_the_sequential_reference(name):
    factory, dim, control_dim, maxiter, table = CASES[name]
    obj = factory()
    starts = _restart_points(dim, GRID, control_dim, 4, 7)
    seq = [lbfgs(obj, x0, maxiter) for x0 in starts]
    _, info = minimize_multistart(obj, dim, GRID, control_dim, restarts=4, seed=7, maxiter=maxiter)
    assert info["restart_iterations"] == [int(r.nit) for r in seq]
    want = [float(r.fun) for r in seq]
    if table:
        # rounding of batched kernel products: a line search may take
        # another step, the iterates and values agree
        np.testing.assert_allclose(info["restart_values"], want, rtol=1e-12, atol=0)
    else:
        assert info["restart_values"] == want
        assert info["gradient_evaluations"] == sum(int(r.njev) for r in seq)


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_rows_equal_single_calls(name):
    factory, dim, control_dim, _, table = CASES[name]
    obj = factory()
    rng = np.random.default_rng(11)
    scale = math.sqrt(2.0 / (control_dim * GRID.horizon))
    points = rng.normal(scale=scale, size=(5, dim))
    points[0] = 0.0
    values, grads = obj.value_and_grad(points)
    assert values.shape == (5,) and grads.shape == (5, dim)
    for row, x in enumerate(points):
        value, grad = obj.value_and_grad(x)
        assert isinstance(value, float) and grad.shape == (dim,)
        if table:
            assert abs(values[row] - value) <= VALUE_ROW_TOL * abs(value)
            assert np.max(np.abs(grads[row] - grad)) <= GRAD_ROW_TOL * np.max(np.abs(grad))
        else:
            assert values[row] == value
            np.testing.assert_array_equal(grads[row], grad)


def test_rounds_are_batched_calls_on_the_calling_thread():
    rec = _Recorder(TerminalObjective(toy_sabr(), GRID, 0.1))
    _, info = minimize_multistart(rec, 40, GRID, 1, restarts=3, seed=1)
    assert info["evaluation_rounds"] == rec.calls
    assert rec.threads == {threading.get_ident()}
    # every round evaluates all unfinished starts: the longest solve's count
    assert rec.calls < info["gradient_evaluations"]


def test_single_start_runs_on_the_calling_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a single start must not start a thread")

    monkeypatch.setattr(ratefn.threading, "Thread", no_thread)
    rec = _Recorder(TerminalObjective(toy_sabr(), GRID, 0.1))
    _, info = minimize_multistart(rec, 40, GRID, 1, restarts=0)
    assert info["evaluation_rounds"] == rec.calls > 0
    assert rec.threads == {threading.get_ident()}


@pytest.mark.parametrize("error, fail_at", [(KeyError, 1), (KeyError, 3), (KeyboardInterrupt, 3)])
def test_objective_error_propagates_and_no_thread_outlives_the_call(error, fail_at):
    before = threading.active_count()
    rec = _Recorder(TerminalObjective(toy_sabr(), GRID, 0.1), fail_at=fail_at, error=error)
    with pytest.raises(error, match="mid-run"):
        minimize_multistart(rec, 40, GRID, 1, restarts=4, seed=3)
    assert threading.active_count() == before


def test_a_thread_that_cannot_start_ends_the_wave(monkeypatch):
    class ThirdFails(threading.Thread):
        made = 0

        def start(self):
            ThirdFails.made += 1
            if ThirdFails.made == 3:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(ratefn.threading, "Thread", ThirdFails)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="start new thread"):
        minimize_multistart(TerminalObjective(toy_sabr(), GRID, 0.1), 40, GRID, 1, restarts=4)
    assert threading.active_count() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
def test_interrupts_leave_no_thread_or_pipe_behind():
    # SIGINT at random moments of 30 multistarts: while threads start, while
    # one runs, while the batch is evaluated; each ends or raises cleanly
    obj = TerminalObjective(frac_heston(), GRID, 0.1)
    minimize_multistart(obj, 40, GRID, 1, restarts=1)
    threads, fds = threading.active_count(), len(os.listdir("/proc/self/fd"))
    rng = np.random.default_rng(5)
    for seed in range(30):
        timer = threading.Timer(rng.uniform(0.0, 0.02), signal.raise_signal, (signal.SIGINT,))
        try:
            timer.start()
            minimize_multistart(obj, 40, GRID, 1, restarts=8, seed=seed)
            timer.join()
            time.sleep(0.01)  # a signal sent after the solve is raised here
        except KeyboardInterrupt:
            timer.join()
        assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == fds


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
@pytest.mark.parametrize("k", [1, 3, 6])
def test_an_interrupt_after_the_kth_pipe_leaves_no_pipe_behind(monkeypatch, k):
    # SIGINT to the main thread right after the k-th of the wave's 6 pipes
    # is opened: every pipe opened has an owner that closes it
    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    threads, fds = threading.active_count(), _open_fds()
    real_pipe, opened = os.pipe, []

    def pipe():
        opened.append(real_pipe())
        if len(opened) == k:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return opened[-1]

    monkeypatch.setattr(ratefn.os, "pipe", pipe)
    with pytest.raises(KeyboardInterrupt):
        minimize_multistart(obj, 40, GRID, 1, restarts=4)
    monkeypatch.undo()
    assert len(opened) >= k
    assert threading.active_count() == threads
    assert _open_fds() == fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
@pytest.mark.parametrize("fail_at", [None, 2], ids=["finished", "abandoned"])
@pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
@pytest.mark.parametrize("k", [1, 6, 12])
def test_an_interrupt_in_the_cleanup_closes_every_pipe(monkeypatch, k, after, fail_at):
    # the cleanup's k-th close of the 12 pipe ends is interrupted, before or
    # after the end closes, on a wave that finished or that an error abandoned
    closes = []

    class File(io.FileIO):
        def close(self):
            if after:
                super().close()
            closes.append(self)
            if len(closes) == k:
                raise KeyboardInterrupt
            super().close()

    monkeypatch.setattr(ratefn, "open", lambda fd, mode, buffering: File(fd, mode), raising=False)
    threads, fds = threading.active_count(), _open_fds()
    rec = _Recorder(TerminalObjective(toy_sabr(), GRID, 0.1), fail_at=fail_at)
    with pytest.raises(KeyboardInterrupt):
        minimize_multistart(rec, 40, GRID, 1, restarts=4, seed=3)
    assert threading.active_count() == threads
    assert _open_fds() == fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
def test_an_interrupt_while_joining_leaves_no_thread_or_pipe_behind(monkeypatch):
    class Thread(threading.Thread):
        joins = 0

        def join(self, timeout=None):
            Thread.joins += 1
            if Thread.joins == 2:
                raise KeyboardInterrupt
            super().join(timeout)

    monkeypatch.setattr(ratefn.threading, "Thread", Thread)
    threads, fds = threading.active_count(), _open_fds()
    with pytest.raises(KeyboardInterrupt):
        minimize_multistart(TerminalObjective(toy_sabr(), GRID, 0.1), 40, GRID, 1, restarts=4)
    assert threading.active_count() == threads
    assert _open_fds() == fds


def test_solve_error_propagates_and_no_thread_outlives_the_call():
    # in the third round one start gets a gradient scipy cannot read as
    # numbers, so its own solve raises on its thread
    class BadRow(_Recorder):
        def value_and_grad(self, x):
            values, grads = super().value_and_grad(x)
            if self.calls == 3:
                grads = grads.astype(object)
                grads[1] = "not a number"
            return values, grads

    before = threading.active_count()
    with pytest.raises(ValueError, match="not a number"):
        minimize_multistart(BadRow(TerminalObjective(toy_sabr(), GRID, 0.1)), 40, GRID, 1,
                            restarts=4, seed=3)
    assert threading.active_count() == before


def test_later_starts_run_in_later_waves(monkeypatch):
    wave = 5  # a handful of threads; 9 starts make a full wave and a short one
    monkeypatch.setattr(ratefn, "LOCKSTEP_WAVE", wave)
    before = threading.active_count()
    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    rec = _Recorder(obj)
    restarts = wave + 3
    _, info = minimize_multistart(rec, 40, GRID, 1, restarts=restarts, seed=5)
    seq = [lbfgs(obj, x0, 500) for x0 in _restart_points(40, GRID, 1, restarts, 5)]
    assert info["restart_iterations"] == [int(r.nit) for r in seq]
    assert info["restart_values"] == [float(r.fun) for r in seq]
    assert info["gradient_evaluations"] == sum(int(r.njev) for r in seq)
    assert rec.peak_threads <= before + wave
    assert threading.active_count() == before
