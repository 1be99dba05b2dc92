"""Sample-path and terminal rate functions, minimized over discretized controls.

All time integrals of model coefficients use the left-endpoint rule on the
grid.  One log-price step (``_phi_increment``) serves the drift/volatility
functional, its cumulative sum at eps = 0 driven by the controls; the
terminal objective, whose numerator x - m(f) sums it at l = 0 for every m;
and the Monte Carlo simulator, driven by sqrt(eps) times the noise over dt.
The functional is exact on piecewise-linear controls, so constant-coefficient
oracles are reproduced without discretization error.

Model coefficient closures must be numpy-vectorized:

    drift(t, u)   t: (...,) broadcastable, u: (..., d)  -> (..., m)
    sigma(t, u)   for m == 1:                           -> (...,)  (scalar vol)
    sigma(t, u)   for m > 1:                            -> (..., m, m)

For m > 1 the terminal rate is available only for models declared in
rotation-times-scalar form: sigma = xi(t, u) * O(t, u) @ inv(cbar), with
``xi`` scalar-valued and ``o_map`` orthogonal; supply ``xi`` and ``o_map``
instead of ``sigma``.  ``ModelSpec.sigma_values`` evaluates either form.

Gradients are exact for the discretized objective and come from one
mechanism: reverse mode through the explicit stages of the forward map, one
adjoint per stage.  ``_step_vjp`` pulls a step's cotangent back onto the
coefficients and the controls, ``_coefficients_vjp`` pulls the
coefficients' cotangents back through the skeleton
(``volmap.hat_map_vjp``), and every objective composes the two:
``phi_vjp`` after a reverse cumulative sum, the terminal objective with its
node-constant cotangent, the exit objective with that cotangent on the steps
before its best node, the sample-path objective with the adjoint of its
residual solve.  Each objective's ``value_and_grad`` runs one forward pass
and one backward pass, and L-BFGS takes both from it.  The only finite
differences are the state derivatives of the coefficient closures, central
differences over the d state columns evaluated in the same closure calls as
the forward pass, and ``check_gradient``, the oracle every objective is
tested against.

``value_and_grad`` takes leading batch axes: points (..., dim) give values
(...,) and gradients (..., dim), while one point (dim,) gives (float, grad).
``minimize_multistart`` uses the batch: ``lbfgs_batch`` advances all its
starts together, and each round evaluates the trial points of every
unfinished start in one call, so the per-node loops of the skeleton run once
per round rather than once per start.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    SingularVolatilityError,
    UnsupportedFormError,
)
from .paths import Control, PathFn, TimeGrid, energy
from .volmap import (
    FD_STEP,
    VolProcessSpec,
    central_jac,
    hat_map_batch,
    hat_map_vjp,
    perturbed,
    reverse_cumsum,
)

_INFEASIBLE = 1e15
_COND_LIMIT = 1e12
_VALUE_TIE_TOL = 1e-9

DEFAULT_RESTARTS = 8
DEFAULT_TERMINAL_STEPS = 200


@dataclass
class ModelSpec:
    """Multivariate stochastic volatility model for the log-price process."""

    m: int
    vol: VolProcessSpec
    drift: object = None  # None means b == r
    sigma: object = None
    xi: object = None
    o_map: object = None
    C: np.ndarray = None
    rho: float | None = None
    s0: np.ndarray = None
    r: float = 0.0
    sigma_positive: bool = True
    assumption_b: bool = False
    name: str | None = None

    def __post_init__(self):
        self.m = int(self.m)
        if self.vol.m != self.m:
            raise DimensionError(f"vol has {self.vol.m} drivers, the model has m = {self.m}")
        if self.rho is not None and self.C is not None:
            raise UnsupportedFormError("give either rho (m=1) or the matrix C")
        if self.C is None:
            rho = 0.0 if self.rho is None else float(self.rho)
            if self.m != 1 and self.rho is not None:
                raise DimensionError("rho shorthand is for m = 1")
            self.C = np.array([[rho]]) if self.m == 1 else np.zeros((self.m, self.m))
        self.C = np.asarray(self.C, float)
        if self.C.shape != (self.m, self.m):
            raise DimensionError(f"C must be {self.m} x {self.m}")
        fro = float(np.linalg.norm(self.C))
        if not fro < 1.0:
            raise UnsupportedFormError("correlation matrix must have Frobenius norm < 1")
        self.rho = float(self.C[0, 0]) if self.m == 1 else None
        gram = np.eye(self.m) - self.C.T @ self.C
        w, V = np.linalg.eigh(gram)
        self.cbar = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        if np.max(np.abs(self.cbar @ self.cbar - gram)) > 1e-10:
            raise SingularVolatilityError("square root of Id - C'C failed the check")
        self.cbar_inv = np.linalg.inv(self.cbar)
        self.s0 = (
            np.ones(self.m) if self.s0 is None else np.atleast_1d(np.asarray(self.s0, float))
        )
        if self.s0.shape != (self.m,) or np.any(self.s0 <= 0):
            raise DimensionError("s0 must be a positive vector of length m")
        self.x0 = np.log(self.s0)
        self.r = float(self.r)
        if self.r < 0:
            raise UnsupportedFormError("interest rate must be nonnegative")
        self.orthogonal_scalar = self.xi is not None
        if self.orthogonal_scalar and self.o_map is None:
            self.o_map = _identity_rotation(self.m)
        if self.sigma is None and not self.orthogonal_scalar:
            raise UnsupportedFormError("model needs sigma, or xi (+ o_map)")

    @property
    def rho_bar(self) -> float:
        return float(self.cbar[0, 0]) if self.m == 1 else None

    def drift_values(self, t, u):
        """(..., m) drift values; defaults to the constant interest rate, as a
        read-only broadcast of r."""
        if self.drift is None:
            return np.broadcast_to(self.r, np.shape(u)[:-1] + (self.m,))
        return np.asarray(self.drift(t, u), float)

    def sigma_values(self, t, u):
        """(...,) scalar vol for m = 1, (..., m, m) matrices for m > 1; given
        both forms, m = 1 uses ``sigma`` and m > 1 the rotation-times-scalar."""
        if self.orthogonal_scalar and (self.m > 1 or self.sigma is None):
            xi = np.asarray(self.xi(t, u), float)
            if self.m == 1:
                return xi * self.cbar_inv[0, 0]
            O = np.asarray(self.o_map(t, u), float)
            return xi[..., None, None] * (O @ self.cbar_inv)
        return np.asarray(self.sigma(t, u), float)


def _identity_rotation(m):
    def o_map(t, u):
        return np.broadcast_to(np.eye(m), np.shape(u)[:-1] + (m, m))

    return o_map


@dataclass
class RateResult:
    value: float
    minimizer_f: Control
    minimizer_l: Control | None = None
    iterations: int = 0
    restarts: int = 0
    gradient_norm: float = float("nan")
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        from .paths import control_to_json_obj

        return {
            "value": self.value,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "gradient_norm": self.gradient_norm,
            "converged": self.converged,
            "minimizer_f": control_to_json_obj(self.minimizer_f),
            "minimizer_l": (
                control_to_json_obj(self.minimizer_l) if self.minimizer_l else None
            ),
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# drift/volatility path functional
# ---------------------------------------------------------------------------


def _single_or_batch(x, value, grad):
    """A value-and-gradient result: (float, (dim,)) for one point x of shape
    (dim,), arrays of values (...,) and gradients (..., dim) for a batch."""
    return (float(value), grad) if np.ndim(x) == 1 else (value, grad)


def phi_functional(model: ModelSpec, l: Control, f: Control) -> PathFn:
    """Nodal path of the discretized drift/volatility functional.

    Left-endpoint coefficients times control increments; exact on the
    piecewise-linear control class.
    """
    if l.grid != f.grid or l.dim != model.m or f.dim != model.m:
        raise DimensionError("l and f must share the grid and have dimension m")
    vals = phi_batch(model, l.grid, l.dot_values, f.dot_values)
    return PathFn(l.grid, vals)


def _phi_drive(model: ModelSpec, l_dots, f_dots):
    """The noise driving the price: rho_bar l + rho f (m = 1), else
    cbar l + C f, per interval."""
    if model.m == 1:
        return model.rho_bar * l_dots[..., 0] + model.rho * f_dots[..., 0]
    return np.einsum("ab,...nb->...na", model.cbar, l_dots) + np.einsum(
        "ab,...nb->...na", model.C, f_dots
    )


def _sigma_drive(model: ModelSpec, sig, drive):
    """The noise term sigma drive: elementwise for m = 1, sigma @ drive per
    node for m > 1 (sig (..., m, m), drive (..., m))."""
    if model.m == 1:
        return sig * drive
    return np.einsum("...ab,...b->...a", sig, drive)


def _phi_increment(model: ModelSpec, b, sig, drive, dt, epsilon=0.0):
    """One log-price step, (b - eps/2 diag(sigma sigma') + sigma drive) dt.

    b is (..., m); sig and drive are (...,) for m = 1, else (..., m, m) and
    (..., m).  Returns (..., m)."""
    if model.m > 1:
        ito = np.einsum("...ab,...ab->...a", sig, sig) if epsilon else 0.0
        return (b - (0.5 * epsilon) * ito + _sigma_drive(model, sig, drive)) * dt
    if epsilon:  # sigma (drive - eps sigma / 2) is sigma drive - eps sigma^2 / 2
        drive = drive - (0.5 * epsilon) * sig
    return ((_sigma_drive(model, sig, drive) + b[..., 0]) * dt)[..., None]


def _step_vjp(model: ModelSpec, sig, drive, step_bar):
    """Adjoint of the eps = 0 step, carried through ``_phi_drive``.

    step_bar (..., n, m) is the cotangent of the step's rate b + sigma drive
    (the increment over dt), or (..., 1, m) when it is the same at every
    node.  Returns its pullback (b_bar, sig_bar, l_bar, f_bar) onto the
    coefficients and the two controls' dots."""
    if model.m == 1:
        sb = step_bar[..., 0]
        drive_bar = (sb * sig)[..., None]
        return step_bar, sb * drive, model.rho_bar * drive_bar, model.rho * drive_bar
    sig_bar = step_bar[..., :, None] * drive[..., None, :]
    drive_bar = np.einsum("...nab,...na->...nb", sig, step_bar)
    return step_bar, sig_bar, drive_bar @ model.cbar, drive_bar @ model.C


def _sigma_cbar(model: ModelSpec, sig):
    """sigma cbar, the loading of the step on the auxiliary control:
    rho_bar sigma (...,) for m = 1, sigma @ cbar (..., m, m) otherwise."""
    return model.rho_bar * sig if model.m == 1 else sig @ model.cbar


def _sigma_cbar_vjp(model: ModelSpec, weight, sc_bar):
    """weight (per node) times the pullback of ``_sigma_cbar`` of sc_bar."""
    if model.m == 1:
        return weight * model.rho_bar * sc_bar
    return weight[..., None, None] * (sc_bar @ model.cbar.T)


def _phi_from(model: ModelSpec, grid: TimeGrid, b, sig, drive) -> np.ndarray:
    """Nodal path of the functional: the cumulative sum of its eps = 0 steps."""
    incr = _phi_increment(model, b, sig, drive, grid.dt)
    out = np.zeros(incr.shape[:-2] + (grid.n_steps + 1, model.m))
    np.cumsum(incr, axis=-2, out=out[..., 1:, :])
    return out


def _coefficients(model: ModelSpec, grid: TimeGrid, f_dots):
    """Drift b (..., n, m) and volatility sigma at the left nodes of the
    skeleton that the volatility control drives."""
    u = hat_map_batch(model.vol, f_dots, grid)[..., :-1, :]
    tk = grid.nodes[:-1]
    return model.drift_values(tk, u), model.sigma_values(tk, u)


def _coefficients_vjp(model: ModelSpec, grid: TimeGrid, f_dots):
    """``_coefficients`` and its pullback (b_bar, sig_bar) -> f_bar.

    The closures run once, on the skeleton's states stacked with their
    central-difference perturbations; the pullback contracts the cotangents
    with those state derivatives and hands the result to the skeleton's
    adjoint (``volmap.hat_map_vjp``)."""
    hat, hat_pullback = hat_map_vjp(model.vol, f_dots, grid)
    tk = grid.nodes[:-1]
    stack, h = perturbed(hat[..., :-1, :])
    b, b_u = central_jac(model.drift_values(tk, stack), h)
    sig, sig_u = central_jac(model.sigma_values(tk, stack), h)

    def pullback(b_bar, sig_bar):
        hat_bar = np.zeros(hat.shape)
        u_bar = hat_bar[..., :-1, :]
        np.einsum("...na,...nad->...nd", b_bar, b_u, out=u_bar)
        if model.m == 1:
            u_bar += sig_bar[..., None] * sig_u
        else:
            u_bar += np.einsum("...nab,...nabd->...nd", sig_bar, sig_u)
        return hat_pullback(hat_bar)

    return (b, sig), pullback


def phi_batch(model: ModelSpec, grid: TimeGrid, l_dots, f_dots) -> np.ndarray:
    """Batched functional; dots have shape (..., n, m), output (..., n+1, m)."""
    l_dots = np.asarray(l_dots, float)
    f_dots = np.asarray(f_dots, float)
    b, sig = _coefficients(model, grid, f_dots)
    return _phi_from(model, grid, b, sig, _phi_drive(model, l_dots, f_dots))


def phi_vjp(model: ModelSpec, grid: TimeGrid, l_dots, f_dots):
    """``phi_batch`` and its vector-jacobian product in one forward pass.

    Returns (phi, pullback) with pullback(phi_bar) = (l_bar, f_bar), the
    gradients of <phi_bar, phi> in the two controls: a reverse cumulative
    sum over the increments, the step's adjoint (``_step_vjp``), then the
    coefficients' (``_coefficients_vjp``).
    """
    l_dots = np.asarray(l_dots, float)
    f_dots = np.asarray(f_dots, float)
    (b, sig), coefficients_pullback = _coefficients_vjp(model, grid, f_dots)
    drive = _phi_drive(model, l_dots, f_dots)
    phi = _phi_from(model, grid, b, sig, drive)

    def pullback(phi_bar):
        step_bar = grid.dt * reverse_cumsum(phi_bar[..., 1:, :], -2)
        b_bar, sig_bar, l_bar, f_bar = _step_vjp(model, sig, drive, step_bar)
        return l_bar, f_bar + coefficients_pullback(b_bar, sig_bar)

    return phi, pullback


# ---------------------------------------------------------------------------
# objectives: a batched value and a batched fused value-and-gradient
# ---------------------------------------------------------------------------
#
# Every objective computes its exact discrete gradient by reverse mode
# through the stages of its forward map (``value_and_grad``, one forward
# pass per call, over any leading batch axes): each hands the cotangent of
# its steps to ``_step_vjp`` and the coefficients' cotangents to the pullback
# of ``_coefficients_vjp``, whose closures contribute their state
# derivatives by central differences over the d state columns only.
# ``check_gradient`` is the finite-difference oracle for all of them.


class TerminalObjective:
    """Explicit-ratio objective for the terminal rate at a target x.

    x is a scalar for m = 1 and an m-vector for m > 1, where the model must
    be in rotation-times-scalar form.  For a volatility control f, the
    cheapest auxiliary control l that reaches x costs
    1/2 (x - m(f))' A^-1 (x - m(f)), where m(f) is the functional's terminal
    value at l = 0 and A = int sigma cbar cbar' sigma' dt.  Both forms make
    A a multiple of the identity (rho_bar^2 int sigma^2 for m = 1, int xi^2
    for the rotation form), so A^-1 is m / tr(A).
    """

    def __init__(self, model: ModelSpec, grid: TimeGrid, x):
        if model.m > 1 and not model.orthogonal_scalar:
            raise UnsupportedFormError(
                "terminal rate for m > 1 needs the rotation-times-scalar "
                "volatility declaration (xi and o_map)"
            )
        self.model = model
        self.grid = grid
        self.x = np.asarray(x, float).reshape(-1)
        if self.x.shape != (model.m,):
            raise DimensionError(f"target x has {self.x.size} entries; the model has m = {model.m}")
        if not np.all(np.isfinite(self.x)):
            raise DomainError(f"target x must be finite, got {self.x.tolist()}")
        self.miss_tol = 1e-9 * max(1.0, float(np.linalg.norm(self.x)))

    def _forward(self, flat, b, sig):
        """(value, x - m(f), the drive at l = 0, sigma cbar, tr(A)/m)."""
        model, dt = self.model, self.grid.dt
        drive = _phi_drive(model, np.zeros_like(flat), flat)
        numer = self.x - np.sum(_phi_increment(model, b, sig, drive, dt), axis=-2)
        sc = _sigma_cbar(model, sig)
        if model.m == 1:
            var = dt * np.sum(sc**2, axis=-1)
        else:
            var = dt / model.m * np.sum(sc**2, axis=(-3, -2, -1))
        nn = np.sum(numer**2, axis=-1)
        en = 0.5 * dt * np.sum(flat**2, axis=(-2, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(var > 0.0, 0.5 * nn / np.maximum(var, 1e-300), 0.0)
        # vanishing volatility along the skeleton: feasible only if the drift
        # alone reaches the target
        miss = np.sqrt(nn) > self.miss_tol
        value = np.where((var <= 0.0) & miss, _INFEASIBLE, ratio + en)
        return value, numer, drive, sc, var

    def _flat(self, dots):
        return dots.reshape(dots.shape[:-1] + (self.grid.n_steps, self.model.m))

    def value_batch(self, dots):
        flat = self._flat(np.asarray(dots, float))
        return self._forward(flat, *_coefficients(self.model, self.grid, flat))[0]

    def value(self, dots):
        return float(self.value_batch(np.asarray(dots, float)))

    def value_and_grad(self, dots):
        dots = np.asarray(dots, float)
        model, dt = self.model, self.grid.dt
        flat = self._flat(dots)
        (b, sig), coefficients_pullback = _coefficients_vjp(model, self.grid, flat)
        value, numer, drive, sc, var = self._forward(flat, b, sig)
        # rows with tr(A) = 0 take their gradient from the last line
        live = var > 0.0
        var = np.where(live, var, 1.0)[..., None]
        # d value / d (b + sigma drive), the same at every node
        step_bar = (-dt * numer / var)[..., None, :]
        b_bar, sig_bar, _, f_bar = _step_vjp(model, sig, drive, step_bar)
        # d value / d sigma through tr(A) is this factor times sigma cbar cbar'
        var_bar = -(dt / model.m) * np.sum(numer**2, axis=-1, keepdims=True) / var**2
        sig_bar = sig_bar + _sigma_cbar_vjp(model, var_bar, sc)
        grad = (dt * flat + f_bar + coefficients_pullback(b_bar, sig_bar)).reshape(dots.shape)
        flat_grad = np.where(value[..., None] < _INFEASIBLE, dt * dots, 0.0)
        return _single_or_batch(dots, value, np.where(live[..., None], grad, flat_grad))

    def gradient(self, dots):
        return self.value_and_grad(dots)[1]


def exit_window(grid: TimeGrid, deadline: float) -> np.ndarray:
    """Mask of the grid nodes in (0, deadline], the nodes where an exit counts."""
    window = (grid.nodes > 0.0) & (grid.nodes <= deadline + 1e-12)
    if not np.any(window):
        raise DomainError("deadline excludes every positive grid node")
    return window


class ExitFaceObjective(TerminalObjective):
    """Exit objective of one face {a.x >= c} by a deadline, over the
    volatility control f: a terminal objective on a half-space, per node.

    The face is reached by the deadline iff a.phi_j >= c at some window node
    t_j, and the infimum over a union is the minimum of the infima.  Given f,
    phi_j is affine in l, so the cheapest l that reaches the face at t_j costs
    (c - a.m_j(f))_+^2 / (2 a'A_j a), with m_j(f) = phi_j(0, f) and
    A_j = dt sum_{k<j} sigma_k cbar cbar' sigma_k'.  The value is the minimum
    over the window nodes of that cost, plus the energy of f, exact on the
    grid for any drift, any m and any face; the gradient is the argmin
    node's.  Only a'A_j a enters, so m > 1 needs no rotation form.  The
    energy of f after t_j, which the minimizer sets to 0, keeps a gradient
    on it, so no start stalls at an early node.
    """

    def __init__(self, model: ModelSpec, grid: TimeGrid, face, deadline: float):
        self.model = model
        self.grid = grid
        self.a = np.asarray(face[0], float)  # (normal, offset), see ExitDomain.shifted_faces
        self.c = float(face[1])
        self.nodes = int(np.flatnonzero(exit_window(grid, deadline))[-1])
        self.miss_tol = 1e-9 * max(1.0, abs(self.c))

    def _forward(self, flat, b, sig):
        """(value, the cost at each window node, its shortfall (c - a.m_j)_+
        and a'A_j a (inf where 0), the drive at l = 0, the load a' sigma cbar)."""
        model, dt, nodes = self.model, self.grid.dt, self.nodes
        drive = _phi_drive(model, np.zeros_like(flat), flat)
        steps = _phi_increment(model, b, sig, drive, dt)
        s = np.maximum(self.c - np.cumsum(steps @ self.a, axis=-1)[..., :nodes], 0.0)
        sc = _sigma_cbar(model, sig)
        load = (self.a[0] * sc)[..., None] if model.m == 1 else self.a @ sc  # (..., n, m)
        var = dt * np.cumsum(np.sum(load**2, axis=-1), axis=-1)[..., :nodes]
        # vanishing volatility: the node counts only if the drift alone reaches it
        var = np.where(var > 0.0, var, np.inf)
        costs = np.where(np.isinf(var) & (s > self.miss_tol), _INFEASIBLE, 0.5 * s**2 / var)
        value = np.min(costs, axis=-1) + 0.5 * dt * np.sum(flat**2, axis=(-2, -1))
        return np.minimum(value, _INFEASIBLE), costs, s, var, drive, load

    def exit_pair(self, dots):
        """(j, l) at one point f: the best window node j >= 1, and on the
        steps k < j the cheapest l that reaches the face at t_j, the
        minimum-norm solution of a.phi_j(l, f) = c."""
        flat = self._flat(np.asarray(dots, float))
        _, costs, s, _, _, load = self._forward(flat, *_coefficients(self.model, self.grid, flat))
        j = int(np.argmin(costs)) + 1
        slope = self.grid.dt * load[:j]  # d a.phi_j / d l_dots
        norm = float(np.sum(slope**2))
        return j, (s[j - 1] / norm if norm > 0.0 else 0.0) * slope

    def value_and_grad(self, dots):
        dots = np.asarray(dots, float)
        model, dt = self.model, self.grid.dt
        flat = self._flat(dots)
        (b, sig), coefficients_pullback = _coefficients_vjp(model, self.grid, flat)
        value, costs, s, var, drive, load = self._forward(flat, b, sig)
        # a row whose best node has a'A a = 0 (var = inf) takes the energy's gradient alone
        top = np.argmin(costs, axis=-1)[..., None]
        s, var = np.take_along_axis(s, top, -1), np.take_along_axis(var, top, -1)
        before = np.arange(self.grid.n_steps) <= top  # the steps k < j
        # d value / d (b + sigma drive) and / d sigma cbar through a'A a
        step_bar = (before * (-dt * s / var))[..., None] * self.a
        b_bar, sig_bar, _, f_bar = _step_vjp(model, sig, drive, step_bar)
        load_bar = load[..., 0] * self.a[0] if model.m == 1 else self.a[:, None] * load[..., None, :]
        sig_bar = sig_bar + _sigma_cbar_vjp(model, before * (-dt * s**2 / var**2), load_bar)
        grad = dt * flat + f_bar + coefficients_pullback(b_bar, sig_bar)
        grad = np.where(value[..., None, None] < _INFEASIBLE, grad, 0.0)
        return _single_or_batch(dots, value, grad.reshape(dots.shape))


# The benchmark's probes and tracer still build and wrap the objective by this name.
TerminalObjectiveOrthogonal = TerminalObjective


# ---------------------------------------------------------------------------
# sample-path rate objective
# ---------------------------------------------------------------------------


class PathRateObjective:
    """Inner objective of the sample-path rate at a fixed target path."""

    def __init__(self, model: ModelSpec, g: PathFn):
        self.model = model
        self.grid = g.grid
        if g.dim != model.m:
            raise DimensionError("target path dimension must equal m")
        if float(np.max(np.abs(g.values[0]))) > 1e-12:
            raise DimensionError("target path must start at zero")
        self.g_dots = np.diff(g.values, axis=0) / g.grid.dt

    def residual_l_dots(self, f_dots):
        """Eliminated auxiliary control along the target path, (n, m)."""
        f_dots = np.asarray(f_dots, float)
        return self._residual(f_dots, *_coefficients(self.model, self.grid, f_dots))

    def _residual(self, f_dots, b, sig):
        if self.model.m == 1:
            self._check_scalar_vol(sig)
            resid = self.g_dots[..., 0] - b[..., 0] - sig * self.model.rho * f_dots[..., 0]
            return (resid / (sig * self.model.rho_bar))[..., None]
        rhs = self.g_dots - b - np.einsum(
            "...nab,bc,...nc->...na", sig, self.model.C, f_dots
        )
        conds = np.linalg.cond(sig)
        if np.any(~np.isfinite(conds)) or np.max(conds) > _COND_LIMIT:
            raise SingularVolatilityError(
                "volatility matrix numerically singular along the skeleton"
            )
        sol = np.linalg.solve(sig, rhs[..., None])[..., 0]
        return np.einsum("ab,...nb->...na", self.model.cbar_inv, sol)

    def _check_scalar_vol(self, sv):
        """Each skeleton's vol, (..., n), must stay away from zero."""
        smax = np.max(np.abs(sv), axis=-1)
        smin = np.min(np.abs(sv), axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vanishing = (smin == 0.0) | (smax / smin > _COND_LIMIT)
        if np.any(vanishing):
            raise SingularVolatilityError(
                "scalar volatility vanishes along the skeleton"
            )

    def _value(self, flat, l_dots):
        return 0.5 * self.grid.dt * (
            np.sum(l_dots**2, axis=(-1, -2)) + np.sum(flat**2, axis=(-1, -2))
        )

    def value_batch(self, dots):
        dots = np.asarray(dots, float)
        flat = dots.reshape(dots.shape[:-1] + (self.grid.n_steps, self.model.m))
        return self._value(flat, self.residual_l_dots(flat))

    def value(self, dots):
        return float(self.value_batch(np.asarray(dots, float)))

    def value_and_grad(self, dots):
        dots = np.asarray(dots, float)
        model, dt = self.model, self.grid.dt
        flat = dots.reshape(dots.shape[:-1] + (self.grid.n_steps, model.m))
        (b, sig), coefficients_pullback = _coefficients_vjp(model, self.grid, flat)
        l_dots = self._residual(flat, b, sig)
        value = self._value(flat, l_dots)
        # l is pinned by the step reaching the target's, b + sigma drive =
        # g dot, so its cotangent dt l reaches the step as -(sigma cbar)^-T dt l
        if model.m == 1:
            step_bar = -dt * l_dots / (sig * model.rho_bar)[..., None]
        else:
            step_bar = -np.linalg.solve(
                np.swapaxes(sig, -1, -2), (dt * l_dots @ model.cbar_inv)[..., None]
            )[..., 0]
        b_bar, sig_bar, _, f_bar = _step_vjp(model, sig, _phi_drive(model, l_dots, flat), step_bar)
        grad = dt * flat + f_bar + coefficients_pullback(b_bar, sig_bar)
        return _single_or_batch(dots, value, grad.reshape(dots.shape))

    def gradient(self, dots):
        return self.value_and_grad(dots)[1]


# ---------------------------------------------------------------------------
# the finite-difference oracle and the multi-start driver
# ---------------------------------------------------------------------------


def check_gradient(objective, x):
    """Max relative error between the objective's fused gradient, the one
    L-BFGS uses, and plain central differences; used by the verification
    suite."""
    g = np.asarray(objective.value_and_grad(x)[1], float)
    ref = np.empty_like(g)
    for j in range(x.size):
        h = FD_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        ref[j] = (objective.value(xp) - objective.value(xm)) / (2 * h)
    scale = max(float(np.max(np.abs(ref))), 1e-8)
    return float(np.max(np.abs(g - ref))) / scale


# The stopping rule: max |gradient| <= GTOL, a relative decrease of the value
# in one iteration <= FTOL, or maxiter iterations.
GTOL = 1e-10
FTOL = 1e-14
LBFGS_MEMORY = 10
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9  # sufficient decrease and curvature constants
_SEARCH_TRIALS = 20  # evaluations one line search may take
_PAIR_TOL = 1e-12  # a pair with s'y <= _PAIR_TOL y'y is not stored


@dataclass
class StartResult:
    """One start's L-BFGS solve: the last iterate, its value and gradient,
    its iteration and evaluation counts, and why it stopped: "gtol",
    "ftol", "maxiter" or "line_search"."""

    x: np.ndarray
    value: float
    grad: np.ndarray
    iterations: int
    evaluations: int
    stop: str


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through the values and slopes (fa, da) at a
    and (fb, db) at b (Nocedal & Wright, eq. 3.59); nan when it has none."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:
        return math.nan
    d2 = math.copysign(math.sqrt(disc), b - a)
    den = db - da + 2.0 * d2
    return b - (b - a) * (db + d2 - d1) / den if den != 0.0 else math.nan


def _line_search(search, a, fa, da):
    """Advance one start's line search on phi(s) = f(x + s p) by its trial
    step a, where phi(a) = fa and phi'(a) = da.

    ``search`` is [phi(0), phi'(0), lo, hi, trials], with lo and hi
    (step, value, slope) triples: lo the best step so far with sufficient
    decrease, hi the other end of the bracket, None before the first trial.
    The first trial is accepted on sufficient decrease unless it overshoots
    (phi'(a) > c2 |phi'(0)|).  Otherwise the bracket is zoomed (Nocedal &
    Wright, Alg. 3.6, with the safeguarded cubic step of eq. 3.59) until a
    trial meets the strong-Wolfe conditions.  Returns "accept", else the
    next trial step.  When the first step's first-order change a |phi'(0)|
    is below FTOL relative, rounding hides both conditions: a decrease is
    accepted and anything else stops the start with "ftol".  The search
    fails with "line_search" after ``_SEARCH_TRIALS`` trials or on a
    bracket narrower than rounding.
    """
    f0, d0, lo, hi, trials = search
    if hi is None and -a * d0 <= FTOL * max(abs(f0), 1.0):
        return "accept" if fa < f0 else "ftol"
    if not (fa <= f0 + _WOLFE_C1 * a * d0 and fa < lo[1]):  # a nan value too
        hi = (a, fa, da)
    elif (da if hi is None else abs(da)) <= -_WOLFE_C2 * d0:
        return "accept"
    else:
        if hi is None or da * (hi[0] - lo[0]) >= 0.0:
            hi = lo
        lo = (a, fa, da)
    left, right = sorted((lo[0], hi[0]))
    if right - left <= 1e-14 * right or trials + 1 >= _SEARCH_TRIALS:
        return "line_search"
    search[2:] = [lo, hi, trials + 1]
    step, margin = _cubic_min(*lo, *hi), 0.1 * (right - left)
    return min(max(step, left + margin), right - margin) if step == step else 0.5 * (left + right)


def _directions(g, S, Y, rho):
    """-H g for each row by the two-loop recursion (Nocedal 1980), with H0
    the newest pair's s'y / y'y, or the identity without pairs.  Memories
    are aligned by age, newest last; an empty slot holds rho = 0, which
    leaves a row's result as it would be alone."""
    q = g.copy()
    slots = range(rho.shape[1] - int(np.max(np.count_nonzero(rho, axis=1))), rho.shape[1])
    alpha = np.zeros(rho.shape)
    for i in reversed(slots):
        alpha[:, i] = rho[:, i] * np.vecdot(S[:, i], q)
        q -= alpha[:, i, None] * Y[:, i]
    with np.errstate(divide="ignore"):
        gamma = 1.0 / (rho[:, -1] * np.vecdot(Y[:, -1], Y[:, -1]))
    q *= np.where(rho[:, -1] > 0.0, gamma, 1.0)[:, None]
    for i in slots:
        beta = rho[:, i] * np.vecdot(Y[:, i], q)
        q += (alpha[:, i] - beta)[:, None] * S[:, i]
    return -q


def lbfgs_batch(objective, starts, maxiter: int):
    """L-BFGS from each start (Liu & Nocedal 1989), all starts advancing together.

    Each start keeps ``LBFGS_MEMORY`` curvature pairs and runs its own line
    search (``_line_search``) from step 1, or from 1 / |g| while its memory
    is empty.  Every round evaluates the trial points of all running starts
    in one ``objective.value_and_grad`` call on the stacked (k, dim) array.
    A start stops at max |g| <= GTOL ("gtol"), at a relative decrease
    <= FTOL in one iteration ("ftol"), after ``maxiter`` iterations
    ("maxiter"), or when its line search fails ("line_search").  Returns
    (a ``StartResult`` per start, the number of rounds).
    """
    x = np.array(starts, dtype=float)
    k, dim = x.shape
    value, grad = objective.value_and_grad(x)
    f, g = np.array(value, dtype=float), np.array(grad, dtype=float)
    rounds, nit, nfev, stop, searches = 1, [0] * k, [1] * k, [None] * k, [None] * k
    S, Y = np.zeros((2, k, LBFGS_MEMORY, dim))
    rho, p, step = np.zeros((k, LBFGS_MEMORY)), np.zeros((k, dim)), np.zeros(k)

    def begin(rows, before=None):
        """Stop each row that meets the stopping rule (``before`` holds the
        rows' values before their last iteration), and start a line search
        on every other one."""
        small = (np.max(np.abs(g[rows]), axis=-1) <= GTOL).tolist()
        for r, j in enumerate(rows):
            if small[r]:
                stop[j] = "gtol"
            elif before is not None and before[r] - f[j] <= FTOL * max(abs(before[r]), abs(f[j]), 1.0):
                stop[j] = "ftol"
            elif nit[j] >= maxiter:
                stop[j] = "maxiter"
        rows = [j for j in rows if stop[j] is None]
        if rows:
            p[rows] = _directions(g[rows], S[rows], Y[rows], rho[rows])
        for j, d0 in zip(rows, np.vecdot(p[rows], g[rows]).tolist()):
            if not d0 < 0.0:  # not a descent direction
                stop[j] = "line_search"
                continue
            step[j] = 1.0 if rho[j, -1] else 1.0 / math.sqrt(-d0)
            searches[j] = [float(f[j]), d0, (0.0, float(f[j]), d0), None, 0]

    begin(list(range(k)))
    while rows := [j for j in range(k) if stop[j] is None]:
        value, grad = objective.value_and_grad(x[rows] + step[rows, None] * p[rows])
        ft, gt = np.array(value, dtype=float), np.array(grad, dtype=float)
        rounds += 1
        accepted = []
        for r, (j, slope) in enumerate(zip(rows, np.vecdot(gt, p[rows]).tolist())):
            nfev[j] += 1
            out = _line_search(searches[j], float(step[j]), float(ft[r]), slope)
            if out == "accept":
                accepted.append(r)
                nit[j] += 1
            elif isinstance(out, str):
                stop[j] = out
            else:
                step[j] = out
        if not accepted:
            continue
        acc = [rows[r] for r in accepted]
        s, y = step[acc, None] * p[acc], gt[accepted] - g[acc]
        before = f[acc].tolist()
        x[acc] += s
        f[acc], g[acc] = ft[accepted], gt[accepted]
        sy = np.vecdot(s, y)
        good = sy > _PAIR_TOL * np.vecdot(y, y)
        keep = [j for j, ok in zip(acc, good.tolist()) if ok]
        if keep:  # the oldest pair makes room for the newest
            for a, new in ((S, s[good]), (Y, y[good]), (rho, 1.0 / sy[good])):
                a[keep, :-1] = a[keep, 1:]
                a[keep, -1] = new
        begin(acc, before)
    return [StartResult(x[j], float(f[j]), g[j], nit[j], nfev[j], stop[j]) for j in range(k)], rounds


def restart_count(restarts) -> int:
    """The number of random restarts: an integer >= 0, else DomainError."""
    if isinstance(restarts, bool) or not isinstance(restarts, numbers.Integral) or restarts < 0:
        raise DomainError(f"restarts must be an integer >= 0, got {restarts!r}")
    return int(restarts)


def _restart_points(dim: int, grid: TimeGrid, control_dim: int, restarts: int, seed: int):
    """The starts of a multistart: zero, then Gaussian controls of unit trial
    energy drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    scale = math.sqrt(2.0 / (control_dim * grid.horizon))
    return [np.zeros(dim)] + [
        rng.normal(scale=scale, size=dim) for _ in range(restart_count(restarts))
    ]


def minimize_multistart(
    objective,
    dim: int,
    grid: TimeGrid,
    control_dim: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    maxiter: int = 500,
):
    """L-BFGS from a zero start plus Gaussian restarts of unit trial energy.

    The starts run together (``lbfgs_batch``): each round evaluates the
    point of every unfinished start in one batched ``value_and_grad`` call.

    Returns (best_x, info).  Ties in value are broken toward the smaller
    control energy, which makes the reported minimizer deterministic.
    ``info`` carries the final value, iteration count and stop reason of
    every start, in start order, the number of gradient evaluations and the
    number of batched evaluation rounds.
    """
    starts = _restart_points(dim, grid, control_dim, restarts, seed)
    results, rounds = lbfgs_batch(objective, starts, maxiter)
    best = None
    for res in results:
        cand_energy = 0.5 * grid.dt * float(np.sum(res.x**2))
        cand = (res.value, cand_energy, res)
        if best is None:
            best = cand
            continue
        better = cand[0] < best[0] - _VALUE_TIE_TOL * (1.0 + abs(best[0]))
        tied = abs(cand[0] - best[0]) <= _VALUE_TIE_TOL * (1.0 + abs(best[0]))
        if better or (tied and cand[1] < best[1]):
            best = cand
    res = best[2]
    iterations = [r.iterations for r in results]
    info = {
        "iterations": sum(iterations),
        "restarts": len(starts) - 1,
        "gradient_norm": float(np.max(np.abs(res.grad))),
        "converged": res.stop in ("gtol", "ftol") and best[0] < _INFEASIBLE / 2,
        "restart_values": [r.value for r in results],
        "restart_iterations": iterations,
        "restart_stops": [r.stop for r in results],
        "gradient_evaluations": sum(r.evaluations for r in results),
        "evaluation_rounds": rounds,
    }
    return res.x, info


RESTART_KEYS = (
    "restart_values", "restart_iterations", "restart_stops", "gradient_evaluations",
    "evaluation_rounds",
)


def _solve(objective, restarts, seed) -> RateResult:
    """``minimize_multistart`` over the objective's (n, m) controls."""
    grid, m = objective.grid, objective.model.m
    x, info = minimize_multistart(objective, grid.n_steps * m, grid, m, restarts=restarts, seed=seed)
    return RateResult(
        value=objective.value(x),
        minimizer_f=Control(grid, x.reshape(grid.n_steps, m)),
        iterations=info["iterations"],
        restarts=info["restarts"],
        gradient_norm=info["gradient_norm"],
        converged=info["converged"],
        diagnostics={k: info[k] for k in RESTART_KEYS},
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def qtilde_path(
    model: ModelSpec,
    g: PathFn,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> RateResult:
    """Sample-path rate of a target path, minimized over the volatility control."""
    obj = PathRateObjective(model, g)
    result = _solve(obj, restarts, seed)
    result.minimizer_l = Control(g.grid, obj.residual_l_dots(result.minimizer_f.dot_values))
    result.diagnostics["energy_f"] = energy(result.minimizer_f)
    result.diagnostics["energy_l"] = energy(result.minimizer_l)
    return result


def itilde_terminal(
    model: ModelSpec,
    x,
    grid: TimeGrid | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> RateResult:
    """Terminal rate at target x (scalar for m = 1, vector otherwise)."""
    if grid is None:
        grid = TimeGrid(1.0, DEFAULT_TERMINAL_STEPS)
    return _solve(TerminalObjective(model, grid, x), restarts, seed)


def inf_tail(
    model: ModelSpec,
    k: float,
    grid: TimeGrid | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> float:
    """inf over x >= k of the terminal rate (m = 1)."""
    return inf_tail_result(model, k, grid=grid, restarts=restarts, seed=seed)[0]


def inf_tail_result(
    model: ModelSpec,
    k: float,
    grid: TimeGrid | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
):
    """inf over x >= k of the terminal rate (m = 1), and the solve at its argmin.

    The terminal drift m(f) = int b + rho int sigma fdot is continuous in the
    control f because the coefficient closures are (the locally Lipschitz
    obligation of the README), and m(0) is the zero-cost point.  So for
    y > x >= m(0), a control f with m(f) <= x costs no more at x than at y, and
    one with m(f) > x has a scaled copy t f, t in (0, 1), that reaches x
    exactly at t^2 of its energy: the rate is nondecreasing right of m(0).
    The tail infimum is therefore the terminal rate at max(k, m(0)), and 0
    when the drift alone reaches k.
    """
    if model.m != 1:
        raise UnsupportedFormError("tail infimum is defined for m = 1")
    if grid is None:
        grid = TimeGrid(1.0, DEFAULT_TERMINAL_STEPS)
    k = float(k)
    if not math.isfinite(k):
        raise DomainError(f"tail threshold k must be finite, got {k}")
    zero = np.zeros((grid.n_steps, 1))
    attained = float(phi_batch(model, grid, zero, zero)[-1, 0])  # m(0)
    if attained >= k:
        # the zero-cost terminal value already lies in the tail set
        res = itilde_terminal(model, attained, grid=grid, restarts=0, seed=seed)
        res.diagnostics["argmin_x"] = attained
        return 0.0, res
    res = itilde_terminal(model, k, grid=grid, restarts=restarts, seed=seed)
    res.diagnostics["argmin_x"] = k
    return res.value, res
