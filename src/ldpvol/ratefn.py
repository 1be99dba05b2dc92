"""Sample-path and terminal rate functions, minimized over discretized controls.

All time integrals of model coefficients use the left-endpoint rule on the
grid.  One log-price step (``_phi_increment``) serves the drift/volatility
functional, its cumulative sum at eps = 0 driven by the controls, and the
Monte Carlo simulator, driven by sqrt(eps) times the noise over dt.  The
functional is exact on piecewise-linear controls, so constant-coefficient
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
mechanism: reverse mode through the explicit stages of the forward map
(``phi_vjp`` and ``volmap.hat_map_vjp``).  Each objective's
``value_and_grad`` runs one forward pass and one backward pass, and L-BFGS
takes both from it.  The only finite differences are the state derivatives
of the coefficient closures, central differences over the d state columns
evaluated in the same closure calls as the forward pass, and
``check_gradient``, the oracle every objective is tested against.

``value_and_grad`` takes leading batch axes: points (..., dim) give values
(...,) and gradients (..., dim), while one point (dim,) gives (float, grad).
``minimize_multistart`` uses the batch: its starts run scipy's L-BFGS-B in
lock-step, one solve per thread, and each round evaluates the points of
every unfinished start in one call on the calling thread, so the per-node
loops of the skeleton run once per round rather than once per start.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
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
        """(..., m) drift values; defaults to the constant interest rate."""
        if self.drift is None:
            return np.full(np.shape(u)[:-1] + (self.m,), self.r)
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


def _left_nodes(grid: TimeGrid) -> np.ndarray:
    return grid.nodes[:-1]


def _coeff_jacs(t, u, *funcs):
    """Each coefficient closure's values at the states u and its state
    derivatives (state axis last), from one call on a perturbed stack."""
    stack, h = perturbed(u)
    return [central_jac(func(t, stack), h) for func in funcs]


def _pad_last_node(u_bar):
    """Adjoint of the left-node values u = hat[..., :-1, :] as a hat adjoint."""
    pad = np.zeros(u_bar.shape[:-2] + (1, u_bar.shape[-1]))
    return np.concatenate([u_bar, pad], axis=-2)


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


def _phi_increment(model: ModelSpec, b, sig, drive, dt, epsilon=0.0):
    """One log-price step, (b - eps/2 diag(sigma sigma') + sigma drive) dt.

    b is (..., m); sig and drive are (...,) for m = 1, else (..., m, m) and
    (..., m).  Returns (..., m)."""
    if model.m > 1:
        ito = np.einsum("...ab,...ab->...a", sig, sig) if epsilon else 0.0
        return (b - (0.5 * epsilon) * ito + np.einsum("...ab,...b->...a", sig, drive)) * dt
    if epsilon:  # sigma (drive - eps sigma / 2) is sigma drive - eps sigma^2 / 2
        drive = drive - (0.5 * epsilon) * sig
    return ((drive * sig + b[..., 0]) * dt)[..., None]


def _phi_from(model: ModelSpec, grid: TimeGrid, b, sig, drive) -> np.ndarray:
    """Nodal path of the functional: the cumulative sum of its eps = 0 steps."""
    incr = _phi_increment(model, b, sig, drive, grid.dt)
    out = np.zeros(incr.shape[:-2] + (grid.n_steps + 1, model.m))
    np.cumsum(incr, axis=-2, out=out[..., 1:, :])
    return out


def phi_batch(model: ModelSpec, grid: TimeGrid, l_dots, f_dots) -> np.ndarray:
    """Batched functional; dots have shape (..., n, m), output (..., n+1, m)."""
    l_dots = np.asarray(l_dots, float)
    f_dots = np.asarray(f_dots, float)
    hat = hat_map_batch(model.vol, f_dots, grid)
    tk = _left_nodes(grid)
    u = hat[..., :-1, :]
    return _phi_from(
        model, grid, model.drift_values(tk, u), model.sigma_values(tk, u),
        _phi_drive(model, l_dots, f_dots),
    )


def phi_vjp(model: ModelSpec, grid: TimeGrid, l_dots, f_dots):
    """``phi_batch`` and its vector-jacobian product in one forward pass.

    Returns (phi, pullback) with pullback(phi_bar) = (l_bar, f_bar), the
    gradients of <phi_bar, phi> in the two controls: a reverse cumulative
    sum over the increments, their coefficient terms, then the skeleton's
    adjoint for the coefficients' dependence on the volatility control.
    """
    l_dots = np.asarray(l_dots, float)
    f_dots = np.asarray(f_dots, float)
    hat, hat_pullback = hat_map_vjp(model.vol, f_dots, grid)
    tk = _left_nodes(grid)
    u = hat[..., :-1, :]
    (b, b_u), (sig, sig_u) = _coeff_jacs(tk, u, model.drift_values, model.sigma_values)
    drive = _phi_drive(model, l_dots, f_dots)
    phi = _phi_from(model, grid, b, sig, drive)

    def pullback(phi_bar):
        incr_bar = grid.dt * reverse_cumsum(phi_bar[..., 1:, :], -2)
        u_bar = np.einsum("...na,...nad->...nd", incr_bar, b_u)
        if model.m == 1:
            ib = incr_bar[..., 0]
            u_bar += (ib * drive)[..., None] * sig_u
            drive_bar = (ib * sig)[..., None]
            l_bar = model.rho_bar * drive_bar
            f_bar = model.rho * drive_bar
        else:
            u_bar += np.einsum("...na,...nb,...nabd->...nd", incr_bar, drive, sig_u)
            drive_bar = np.einsum("...nab,...na->...nb", sig, incr_bar)
            l_bar = np.einsum("ab,...na->...nb", model.cbar, drive_bar)
            f_bar = np.einsum("ab,...na->...nb", model.C, drive_bar)
        return l_bar, f_bar + hat_pullback(_pad_last_node(u_bar))

    return phi, pullback


# ---------------------------------------------------------------------------
# objectives: a batched value and a batched fused value-and-gradient
# ---------------------------------------------------------------------------
#
# Every objective computes its exact discrete gradient by reverse mode
# through the stages of its forward map (``value_and_grad``, one forward
# pass per call, over any leading batch axes); coefficient closures
# contribute their state derivatives by central differences over the d
# state columns only (``_coeff_jacs``).  ``check_gradient`` is the
# finite-difference oracle for all of them.


class TerminalObjective:
    """Explicit-ratio objective for the terminal rate at a scalar target."""

    def __init__(self, model: ModelSpec, grid: TimeGrid, x: float):
        if model.m != 1:
            raise UnsupportedFormError("TerminalObjective is the m = 1 path")
        self.model = model
        self.grid = grid
        self.x = float(x)
        self.tk = _left_nodes(grid)

    # -- pieces -------------------------------------------------------
    def _coefficients(self, dots):
        """Drift and scalar vol at the left nodes of the skeleton, (..., n)."""
        hat = hat_map_batch(self.model.vol, dots[..., None], self.grid)
        u = hat[..., :-1, :]
        return self.model.drift_values(self.tk, u)[..., 0], self.model.sigma_values(self.tk, u)

    def _integrals(self, dots, b, sv):
        """(x - int b - rho int sigma fdot, int sigma^2) on the grid."""
        dt = self.grid.dt
        i_b = dt * np.sum(b, axis=-1)
        i_sf = dt * np.sum(sv * dots, axis=-1)
        i_s2 = dt * np.sum(sv**2, axis=-1)
        return self.x - i_b - self.model.rho * i_sf, i_s2

    def _value(self, dots, numer, i_s2):
        dt = self.grid.dt
        en = 0.5 * dt * np.sum(dots**2, axis=-1)
        rb2 = self.model.rho_bar**2
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(i_s2 > 0.0, 0.5 * numer**2 / (rb2 * np.maximum(i_s2, 1e-300)), 0.0)
        # vanishing volatility along the skeleton: feasible only if the drift
        # alone reaches the target
        degenerate = i_s2 <= 0.0
        miss = np.abs(numer) > 1e-9 * max(1.0, abs(self.x))
        return np.where(degenerate & miss, _INFEASIBLE, ratio + en)

    def value_batch(self, dots):
        dots = np.asarray(dots, float)
        return self._value(dots, *self._integrals(dots, *self._coefficients(dots)))

    def value(self, dots):
        return float(self.value_batch(np.asarray(dots, float)))

    def value_and_grad(self, dots):
        dots = np.asarray(dots, float)
        hat, pullback = hat_map_vjp(self.model.vol, dots[..., None], self.grid)
        u = hat[..., :-1, :]
        (b, b_u), (sv, s_u) = _coeff_jacs(
            self.tk, u, self.model.drift_values, self.model.sigma_values
        )
        numer, i_s2 = self._integrals(dots, b[..., 0], sv)
        value = self._value(dots, numer, i_s2)
        dt = self.grid.dt
        # where int sigma^2 = 0 the value is constant or the energy alone:
        # those rows take their gradient from the last line
        live = i_s2 > 0.0
        i_s2 = np.where(live, i_s2, 1.0)[..., None]
        numer = numer[..., None]
        rho = self.model.rho
        rb2 = self.model.rho_bar**2
        g_b = -numer / (rb2 * i_s2)  # d value / d int b
        g_s2 = -0.5 * numer**2 / (rb2 * i_s2**2)  # d value / d int sigma^2
        u_bar = dt * (
            g_b[..., None] * b_u[..., 0, :] + (g_b * rho * dots + 2.0 * g_s2 * sv)[..., None] * s_u
        )
        grad = dt * dots + g_b * rho * dt * sv + pullback(_pad_last_node(u_bar))[..., 0]
        flat = np.where(value[..., None] < _INFEASIBLE, dt * dots, 0.0)
        return _single_or_batch(dots, value, np.where(live[..., None], grad, flat))

    def gradient(self, dots):
        return self.value_and_grad(dots)[1]


class TerminalObjectiveOrthogonal:
    """Terminal rate objective for m > 1 rotation-times-scalar models."""

    def __init__(self, model: ModelSpec, grid: TimeGrid, x):
        if model.m <= 1:
            raise UnsupportedFormError("use TerminalObjective for m = 1")
        if not model.orthogonal_scalar:
            raise UnsupportedFormError(
                "terminal rate for m > 1 needs the rotation-times-scalar "
                "volatility declaration (xi and o_map)"
            )
        self.model = model
        self.grid = grid
        self.x = np.asarray(x, float)
        if self.x.shape != (model.m,):
            raise DimensionError(f"x must have shape ({model.m},)")
        self.tk = _left_nodes(grid)
        self.mix = model.cbar_inv @ model.C  # applied inside the rotation

    def _value(self, flat, b, xi, O):
        """(value, numer, int xi^2, rot) from the coefficients at the nodes."""
        dt = self.grid.dt
        rot = np.einsum("...nab,bc,...nc->...na", O, self.mix, flat)
        i_b = dt * np.sum(b, axis=-2)
        i_v = dt * np.sum(xi[..., None] * rot, axis=-2)
        i_x2 = dt * np.sum(xi**2, axis=-1)
        numer = self.x - i_b - i_v
        en = 0.5 * dt * np.sum(flat**2, axis=(-1, -2))
        nn = np.sum(numer**2, axis=-1)
        miss = np.sqrt(nn) > 1e-9 * max(1.0, float(np.linalg.norm(self.x)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(i_x2 > 0.0, 0.5 * nn / np.maximum(i_x2, 1e-300), 0.0)
        return np.where((i_x2 <= 0.0) & miss, _INFEASIBLE, ratio + en), numer, i_x2, rot

    def value_batch(self, dots):
        dots = np.asarray(dots, float)
        flat = dots.reshape(dots.shape[:-1] + (self.grid.n_steps, self.model.m))
        u = hat_map_batch(self.model.vol, flat, self.grid)[..., :-1, :]
        xi = np.asarray(self.model.xi(self.tk, u), float)
        O = np.asarray(self.model.o_map(self.tk, u), float)
        return self._value(flat, self.model.drift_values(self.tk, u), xi, O)[0]

    def value(self, dots):
        return float(self.value_batch(np.asarray(dots, float)))

    def value_and_grad(self, dots):
        dots = np.asarray(dots, float)
        flat = dots.reshape(dots.shape[:-1] + (self.grid.n_steps, self.model.m))
        hat, pullback = hat_map_vjp(self.model.vol, flat, self.grid)
        u = hat[..., :-1, :]
        (b, b_u), (xi, xi_u), (O, O_u) = _coeff_jacs(
            self.tk, u, self.model.drift_values, self.model.xi, self.model.o_map
        )
        value, numer, i_x2, rot = self._value(flat, b, xi, O)
        dt = self.grid.dt
        # rows with int xi^2 = 0 take their gradient from the last line
        live = i_x2 > 0.0
        i_x2 = np.where(live, i_x2, 1.0)[..., None]
        g_n = -dt * numer / i_x2  # d value / d (b + xi rot) at each node, (..., m)
        nn = np.sum(numer * numer, axis=-1, keepdims=True)
        xi_bar = np.einsum("...na,...a->...n", rot, g_n) - dt * nn / i_x2**2 * xi
        rot_bar = xi[..., None] * g_n[..., None, :]
        mixed = flat @ self.mix.T
        u_bar = (
            np.einsum("...nad,...a->...nd", b_u, g_n)
            + xi_bar[..., None] * xi_u
            + np.einsum("...na,...nb,...nabd->...nd", rot_bar, mixed, O_u)
        )
        f_bar = np.einsum("...nab,...na->...nb", O, rot_bar) @ self.mix
        grad = (dt * flat + f_bar + pullback(_pad_last_node(u_bar))).reshape(dots.shape)
        flat_grad = np.where(value[..., None] < _INFEASIBLE, dt * dots, 0.0)
        return _single_or_batch(dots, value, np.where(live[..., None], grad, flat_grad))

    def gradient(self, dots):
        return self.value_and_grad(dots)[1]


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
        self.tk = _left_nodes(g.grid)

    def residual_l_dots(self, f_dots):
        """Eliminated auxiliary control along the target path, (n, m)."""
        f_dots = np.asarray(f_dots, float)
        u = hat_map_batch(self.model.vol, f_dots, self.grid)[..., :-1, :]
        return self._residual(
            f_dots, self.model.drift_values(self.tk, u), self.model.sigma_values(self.tk, u)
        )

    def _residual(self, f_dots, b, sig):
        if self.model.m == 1:
            self._check_scalar_vol(sig)
            resid = self.g_dots[..., 0] - b[..., 0] - sig * self.model.rho * f_dots[..., 0]
            return (resid / (sig * self.model.rho_bar))[..., None]
        rhs = self.g_dots - b - np.einsum(
            "...nab,bc,...nc->...na", sig, self.model.C, f_dots
        )
        sol = np.linalg.solve(sig, rhs[..., None])[..., 0]
        conds = np.linalg.cond(sig)
        if np.any(~np.isfinite(conds)) or np.max(conds) > _COND_LIMIT:
            raise SingularVolatilityError(
                "volatility matrix numerically singular along the skeleton"
            )
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
        m = self.model.m
        flat = dots.reshape(dots.shape[:-1] + (self.grid.n_steps, m))
        hat, pullback = hat_map_vjp(self.model.vol, flat, self.grid)
        u = hat[..., :-1, :]
        (b, b_u), (sig, sig_u) = _coeff_jacs(
            self.tk, u, self.model.drift_values, self.model.sigma_values
        )
        l_dots = self._residual(flat, b, sig)
        value = self._value(flat, l_dots)
        l_bar = self.grid.dt * l_dots
        if m == 1:
            rb = self.model.rho_bar
            rhs_bar = l_bar[..., 0] / (sig * rb)  # adjoint of the residual
            sig_bar = -rhs_bar * (l_dots[..., 0] * rb + self.model.rho * flat[..., 0])
            u_bar = -rhs_bar[..., None] * b_u[..., 0, :] + sig_bar[..., None] * sig_u
            f_bar = -(rhs_bar * sig * self.model.rho)[..., None]
        else:
            sol = l_dots @ self.model.cbar.T  # sigma^-1 of the residual
            c_f = flat @ self.model.C.T
            sol_bar = l_bar @ self.model.cbar_inv
            rhs_bar = np.linalg.solve(np.swapaxes(sig, -1, -2), sol_bar[..., None])[..., 0]
            sig_bar = -rhs_bar[..., :, None] * (sol + c_f)[..., None, :]
            u_bar = -np.einsum("...na,...nad->...nd", rhs_bar, b_u) + np.einsum(
                "...nab,...nabd->...nd", sig_bar, sig_u
            )
            f_bar = -np.einsum("...nab,...na->...nb", sig, rhs_bar) @ self.model.C
        grad = self.grid.dt * flat + f_bar + pullback(_pad_last_node(u_bar))
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


def lbfgs(objective, x0, maxiter: int):
    """One L-BFGS solve on the objective's fused value and gradient."""
    from scipy import optimize as _sopt  # loaded on first use: slow to import

    return _sopt.minimize(
        objective.value_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10},
    )


# At most this many starts are in flight at once: a multistart runs its
# starts in waves of this size, one thread per start of a wave.
LOCKSTEP_WAVE = 16


class _Abort(Exception):
    """Ends a start's L-BFGS solve when its wave is abandoned."""


class _LockstepStart:
    """One start of a lock-step wave, solved by ``lbfgs`` on its own thread.

    Its objective posts the point, wakes the calling thread and sleeps
    until ``resume`` hands it the point's row of a batched evaluation;
    ``None`` in place of the row abandons the solve.  ``finished`` is set
    before the last wake-up.
    """

    def __init__(self, to_caller):
        self.to_caller = to_caller
        self.wait_fd, self.wake_fd = os.pipe()
        self.point = self.row = self.outcome = None
        self.finished = False

    def value_and_grad(self, x):
        self.point = x
        os.write(self.to_caller, b"p")
        os.read(self.wait_fd, 1)
        if self.row is None:
            raise _Abort
        return self.row

    def solve(self, x0, maxiter):
        """Leaves the result, or its error, in ``outcome``."""
        try:
            self.outcome = lbfgs(self, x0, maxiter)
        except _Abort:
            pass
        except BaseException as exc:  # handed to the calling thread, which raises it
            self.outcome = exc
        finally:
            self.finished = True
            os.write(self.to_caller, b"d")

    def resume(self, row):
        self.row = row
        os.write(self.wake_fd, b"r")

    def close(self):
        os.close(self.wait_fd)
        os.close(self.wake_fd)


def _lockstep_lbfgs(objective, starts, maxiter: int):
    """One ``lbfgs`` solve per start, every start advancing in lock-step.

    Each start's solve runs on a thread of its own, but only one thread
    runs at a time: the calling thread lets each start in turn run until it
    posts the point it needs next (or ends), then evaluates all posted
    points in one batched ``objective.value_and_grad`` call on the stacked
    (k, dim) array and hands each start its row.  So the batch is evaluated
    on the calling thread, and no two threads contend for the interpreter
    lock.  The hand-offs are pipe writes: Linux wakes a pipe's reader on the
    writer's CPU, while a lock's wake-up may move the thread to an idle CPU,
    which a virtual machine can take milliseconds to wake.  A lone start
    runs on the calling thread.

    Returns (results in start order, number of batched calls).  The first
    error, of the objective or of a solve, is raised after every thread of
    the wave has ended.
    """
    if len(starts) == 1:
        res = lbfgs(objective, starts[0], maxiter)
        return [res], int(res.nfev)  # one value_and_grad call per function evaluation
    wait_fd, wake_fd = os.pipe()
    members, threads, waiting, rounds = [], [], {}, 0

    def run_until_post(j):
        """Wait for start j, the one running, to post its next point or end."""
        os.read(wait_fd, 1)
        if not members[j].finished:
            waiting[j] = members[j].point
        elif isinstance(members[j].outcome, BaseException):
            raise members[j].outcome

    try:
        for j, x0 in enumerate(starts):
            members.append(_LockstepStart(wake_fd))
            threads.append(threading.Thread(target=members[j].solve, args=(x0, maxiter), daemon=True))
            threads[j].start()
            run_until_post(j)
        while waiting:
            rows = sorted(waiting)
            values, grads = objective.value_and_grad(np.stack([waiting.pop(j) for j in rows]))
            rounds += 1
            for r, j in enumerate(rows):
                members[j].resume((float(values[r]), grads[r]))
                run_until_post(j)
    finally:
        # abandon the wave: every unfinished solve ends at its next wait.  A
        # thread is listed by threading.enumerate() from start() until it
        # ends, so this also finds one whose start() was interrupted.
        alive = threading.enumerate()
        pending = [m for m, t in zip(members, threads) if t in alive and not m.finished]
        for member in pending:
            member.resume(None)
        while not all(member.finished for member in pending):
            os.read(wait_fd, 1)
        for thread in threads:
            if thread.ident is not None:  # it ran
                thread.join()
        for member in members:
            member.close()
        os.close(wait_fd)
        os.close(wake_fd)
    return [member.outcome for member in members], rounds


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

    The starts run in lock-step waves of at most ``LOCKSTEP_WAVE`` (see
    ``_lockstep_lbfgs``): each round evaluates the point of every unfinished
    start in one batched ``value_and_grad`` call on the calling thread.

    Returns (best_x, info).  Ties in value are broken toward the smaller
    control energy, which makes the reported minimizer deterministic.
    ``info`` carries the final value and iteration count of every start, in
    start order, the number of gradient evaluations and the number of
    batched evaluation rounds.
    """
    starts = _restart_points(dim, grid, control_dim, restarts, seed)
    results, rounds = [], 0
    for first in range(0, len(starts), LOCKSTEP_WAVE):
        wave, wave_rounds = _lockstep_lbfgs(objective, starts[first:first + LOCKSTEP_WAVE], maxiter)
        results += wave
        rounds += wave_rounds
    best = None
    for res in results:
        cand_energy = 0.5 * grid.dt * float(np.sum(res.x**2))
        cand = (float(res.fun), cand_energy, res)
        if best is None:
            best = cand
            continue
        better = cand[0] < best[0] - _VALUE_TIE_TOL * (1.0 + abs(best[0]))
        tied = abs(cand[0] - best[0]) <= _VALUE_TIE_TOL * (1.0 + abs(best[0]))
        if better or (tied and cand[1] < best[1]):
            best = cand
    res = best[2]
    iterations = [int(r.nit) for r in results]
    info = {
        "iterations": sum(iterations),
        "restarts": len(starts) - 1,
        "gradient_norm": float(np.max(np.abs(res.jac))),
        "converged": bool(res.success) and best[0] < _INFEASIBLE / 2,
        "restart_values": [float(r.fun) for r in results],
        "restart_iterations": iterations,
        "gradient_evaluations": sum(int(r.njev) for r in results),
        "evaluation_rounds": rounds,
    }
    return res.x, info


RESTART_KEYS = (
    "restart_values", "restart_iterations", "gradient_evaluations", "evaluation_rounds"
)


def _result_from(objective, x, info, grid, m):
    dots = x.reshape(grid.n_steps, m)
    ctrl = Control(grid, dots)
    value = objective.value(x)
    return RateResult(
        value=value,
        minimizer_f=ctrl,
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
    grid = g.grid
    x, info = minimize_multistart(
        obj, grid.n_steps * model.m, grid, model.m, restarts=restarts, seed=seed
    )
    result = _result_from(obj, x, info, grid, model.m)
    l_dots = obj.residual_l_dots(x.reshape(grid.n_steps, model.m))
    result.minimizer_l = Control(grid, l_dots)
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
    x = np.asarray(x, float)
    if x.size != model.m:
        raise DimensionError(f"target x has {x.size} entries; the model has m = {model.m}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"target x must be finite, got {x.tolist()}")
    if model.m == 1:
        obj = TerminalObjective(model, grid, float(x.reshape(())))
        dim = grid.n_steps
    else:
        obj = TerminalObjectiveOrthogonal(model, grid, x)
        dim = grid.n_steps * model.m
    xbest, info = minimize_multistart(
        obj, dim, grid, model.m, restarts=restarts, seed=seed
    )
    return _result_from(obj, xbest, info, grid, model.m)


def drift_only_terminal(model: ModelSpec, grid: TimeGrid) -> float:
    """Terminal value reached by the zero control (zero-cost target)."""
    obj_zero = hat_map_batch(model.vol, np.zeros((grid.n_steps, model.m)), grid)
    tk = _left_nodes(grid)
    b = model.drift_values(tk, obj_zero[..., :-1, :])
    return float(grid.dt * np.sum(b[..., 0]))


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
    attained = drift_only_terminal(model, grid)
    if attained >= k:
        # the zero-cost terminal value already lies in the tail set
        res = itilde_terminal(model, attained, grid=grid, restarts=0, seed=seed)
        res.diagnostics["argmin_x"] = attained
        return 0.0, res
    res = itilde_terminal(model, k, grid=grid, restarts=restarts, seed=seed)
    res.diagnostics["argmin_x"] = k
    return res.value, res
