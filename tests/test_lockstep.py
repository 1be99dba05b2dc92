"""Lock-step multistart: batched objectives and one batched L-BFGS.

``minimize_multistart`` advances every start together: each round evaluates
the trial points of all running starts in one batched ``value_and_grad``
call on the calling thread.  The sequential reference runs each start alone
through the same optimizer, ``lbfgs_batch`` on a batch of one.
"""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from ldpvol import TimeGrid
from ldpvol.paths import PathFn
from ldpvol.presets import bs_const, frac_heston, mixed_demo, reflected_ou, rough_gauss, toy_sabr
from ldpvol.pricing import PENALTY_MAXITER, _AsianProblem
from ldpvol.ratefn import (
    ExitFaceObjective,
    PathRateObjective,
    TerminalObjective,
    _restart_points,
    lbfgs_batch,
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
# the Asian penalty problem stays at mu = PENALTY_START, its multistart's stage
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
        lambda: ExitFaceObjective(toy_sabr(), GRID, (np.array([1.0]), 0.1), 1.0), 40, 1, 500, False
    ),
    "exit_frac_heston": (
        lambda: ExitFaceObjective(frac_heston(), GRID, (np.array([1.0]), 0.1), 1.0), 40, 1, 500, True
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
    alone = [lbfgs_batch(obj, [x0], maxiter)[0][0] for x0 in starts]
    _, info = minimize_multistart(obj, dim, GRID, control_dim, restarts=4, seed=7, maxiter=maxiter)
    want = [r.value for r in alone]
    if table:
        # rounding of batched kernel products: a line search may take
        # another trial or a start another iteration, the values agree
        np.testing.assert_allclose(info["restart_values"], want, rtol=1e-12, atol=0)
        assert all(abs(a - r.iterations) <= 1 for a, r in zip(info["restart_iterations"], alone))
    else:
        assert info["restart_values"] == want
        assert info["restart_iterations"] == [r.iterations for r in alone]
        assert info["restart_stops"] == [r.stop for r in alone]
        assert info["gradient_evaluations"] == sum(r.evaluations for r in alone)
    assert all(stop in ("gtol", "ftol") for stop in info["restart_stops"])


@pytest.mark.parametrize("name, most", [("frac_heston", 12), ("exit_frac_heston", 30)])
def test_rounds_stay_few_where_rounding_hides_the_decrease(name, most):
    # near the minimum the value changes at the level of rounding and of the
    # central-difference state derivatives; a line search that chases such
    # differences spends rounds without progress
    factory, dim, control_dim, maxiter, _ = CASES[name]
    _, info = minimize_multistart(factory(), dim, GRID, control_dim, restarts=4, seed=7,
                                  maxiter=maxiter)
    assert info["converged"]
    assert info["evaluation_rounds"] <= most


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


def test_single_start_runs_on_the_calling_thread():
    before = threading.active_count()
    rec = _Recorder(TerminalObjective(toy_sabr(), GRID, 0.1))
    _, info = minimize_multistart(rec, 40, GRID, 1, restarts=0)
    assert info["evaluation_rounds"] == rec.calls > 0
    assert rec.threads == {threading.get_ident()}
    assert rec.peak_threads == before


@pytest.mark.parametrize("error, fail_at", [(KeyError, 1), (KeyError, 3), (KeyboardInterrupt, 3)])
def test_objective_error_propagates_and_no_thread_outlives_the_call(error, fail_at):
    before = threading.active_count()
    rec = _Recorder(TerminalObjective(toy_sabr(), GRID, 0.1), fail_at=fail_at, error=error)
    with pytest.raises(error, match="mid-run"):
        minimize_multistart(rec, 40, GRID, 1, restarts=4, seed=3)
    assert threading.active_count() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
def test_interrupts_leave_no_thread_or_pipe_behind():
    # SIGINT at random moments of 30 multistarts: while a batch is evaluated,
    # while the starts are updated; each ends or raises cleanly
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
def test_an_interrupt_after_the_kth_pipe_leaves_no_pipe_behind(k):
    # SIGINT to the main thread once the k-th round's batch is evaluated: the
    # interrupt propagates, and the solve has opened no pipe or other
    # descriptor and started no thread
    class Interrupting(_Recorder):
        def value_and_grad(self, x):
            out = super().value_and_grad(x)
            if self.calls == k:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            return out

    rec = Interrupting(TerminalObjective(toy_sabr(), GRID, 0.1))
    threads, fds = threading.active_count(), _open_fds()
    with pytest.raises(KeyboardInterrupt):
        minimize_multistart(rec, 40, GRID, 1, restarts=4)
    assert rec.calls == k
    assert threading.active_count() == threads
    assert _open_fds() == fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
def test_an_interrupt_while_joining_leaves_no_thread_or_pipe_behind():
    # the interrupt comes in the last round, where the starts' results are
    # gathered into the best point
    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    _, info = minimize_multistart(obj, 40, GRID, 1, restarts=4)
    last = info["evaluation_rounds"]
    rec = _Recorder(obj, fail_at=last, error=KeyboardInterrupt)
    threads, fds = threading.active_count(), _open_fds()
    with pytest.raises(KeyboardInterrupt, match="mid-run"):
        minimize_multistart(rec, 40, GRID, 1, restarts=4)
    assert rec.calls == last
    assert threading.active_count() == threads
    assert _open_fds() == fds


def test_a_thread_that_cannot_start_ends_the_wave(monkeypatch):
    # the optimizer starts no thread: where none can start, the whole batch
    # of starts still runs to the result it has where threads can start
    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    want_x, want = minimize_multistart(obj, 40, GRID, 1, restarts=4)

    def start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    x, info = minimize_multistart(obj, 40, GRID, 1, restarts=4)
    monkeypatch.undo()
    np.testing.assert_array_equal(x, want_x)
    assert info == want


def test_later_starts_run_in_later_waves():
    # 9 starts stop at different rounds: the batch shrinks as starts stop,
    # the slowest go on alone in the later rounds, and each ends as it does
    # when it runs alone
    class Rows(_Recorder):
        sizes = []

        def value_and_grad(self, x):
            self.sizes.append(len(x))
            return super().value_and_grad(x)

    obj = TerminalObjective(toy_sabr(), GRID, 0.1)
    rec = Rows(obj)
    restarts = 8
    _, info = minimize_multistart(rec, 40, GRID, 1, restarts=restarts, seed=5)
    alone = [lbfgs_batch(obj, [x0], 500)[0][0] for x0 in _restart_points(40, GRID, 1, restarts, 5)]
    assert info["restart_iterations"] == [r.iterations for r in alone]
    assert info["restart_values"] == [r.value for r in alone]
    assert info["gradient_evaluations"] == sum(r.evaluations for r in alone)
    assert info["evaluation_rounds"] == rec.calls == max(r.evaluations for r in alone)
    assert rec.sizes[0] == restarts + 1 > rec.sizes[-1]
    assert all(a >= b for a, b in zip(rec.sizes, rec.sizes[1:]))
    assert rec.threads == {threading.get_ident()}


def test_solve_error_propagates_and_no_thread_outlives_the_call():
    # in the third round one start gets a gradient that is not numbers: the
    # optimizer's own conversion raises
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


def test_a_failed_line_search_ends_the_start_unconverged():
    # an objective that reports the gradient with the wrong sign: every
    # direction climbs, no step gives a decrease, and the search fails
    class Climbing:
        def __init__(self, objective):
            self.objective = objective

        def value_and_grad(self, x):
            values, grads = self.objective.value_and_grad(x)
            return values, -grads

    obj = Climbing(TerminalObjective(toy_sabr(), GRID, 0.1))
    (alone,), _ = lbfgs_batch(obj, [np.full(40, 0.1)], 500)
    assert alone.stop == "line_search" and alone.iterations == 0
    _, info = minimize_multistart(obj, 40, GRID, 1, restarts=2, seed=3)
    assert info["restart_stops"] == ["line_search"] * 3
    assert not info["converged"]
