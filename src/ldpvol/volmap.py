"""The volatility scheme, shared by the skeleton and the simulator.

``vol_state`` is driven by increments of the noise: the controlled skeleton
passes ``dots * dt``, the Monte Carlo simulator ``sqrt(eps) * dB``, so the
skeleton is exactly the zero-noise limit of the simulated scheme.  Three
schemes cover the five families: one kernel recursion y + K * dB + K~ * u(psi)
for the gaussian (the uncorrelated toy model being its Brownian-kernel
case), fractional and mixed families, the auxiliary process psi by explicit
Euler; the reflected Euler recursion; one causal forward sweep for ``volterra_sde``.
The output map reflects at zero when requested (``paths.reflect_values``).
The skeleton entry points (``solve_psi_batch``, ``gamma_y_batch``,
``hat_map_batch``) add the blow-up checks; the simulator excludes such paths
instead.

``hat_map_vjp`` returns the skeleton together with its vector-jacobian
product, which runs each stage backwards (``vol_state_vjp``): a reverse
cumulative sum for Brownian kernels, the transposed weight table for the
other kernels, a backward Euler recursion (the reflection's adjoint follows
the argmin of the running minimum) and a backward causal sweep for
``volterra_sde``.  Coefficient closures enter through their state
derivatives, central differences over the state columns only: the forward
pass calls each closure once per step on the state stacked with its
perturbations (``perturbed``, ``central_jac``).

Coefficient closures must be numpy-vectorized: they receive arrays with
arbitrary leading batch axes and broadcast over them.  Signatures:

    aux_drift(t, v)            v: (..., k)        -> (..., k)
    aux_disp(t, v)             v: (..., k)        -> (..., k, m)
    u_map(v)                   v: (..., k)        -> (..., d)
    volterra_a(t, s, x)        s: (J,), x: (..., J, d) -> (..., J, d)
    volterra_c(t, s, x)        s: (J,), x: (..., J, d) -> (..., J, d, m)

Coefficients see nodal values only, not the whole past of the path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _k
from .errors import (
    ConvergenceError,
    DimensionError,
    DivergenceError,
    UnsupportedDomainError,
    UnsupportedFormError,
)
from .paths import Control, PathFn, TimeGrid, reflect_values

BLOWUP_LIMIT = 1e9
FD_STEP = 1e-6  # relative step of the coefficient closures' state derivatives

GAUSSIAN = "gaussian"
MIXED = "mixed"
FRACTIONAL = "fractional_nongaussian"
VOLTERRA_SDE = "volterra_sde"
REFLECTED = "reflected_diffusion"

FAMILIES = (GAUSSIAN, MIXED, FRACTIONAL, VOLTERRA_SDE, REFLECTED)


def _zero_drift(t, v):
    return np.zeros_like(v)


def _zero_disp_factory(m):
    def disp(t, v):
        return np.zeros(v.shape + (m,))

    return disp


@dataclass
class VolProcessSpec:
    """Multivariate volatility-process description.

    ``noise_kernels`` is the d x m matrix of kernels applied to the Brownian
    driver, ``drift_kernels`` the length-d list applied to the transformed
    auxiliary process ``u_map(psi)``.  Entries may be None (treated as zero
    kernels).
    """

    family: str
    d: int = 1
    m: int = 1
    k_dim: int = 1
    noise_kernels: list | None = None
    drift_kernels: list | None = None
    u_map: object | None = None  # callable
    aux_drift: object | None = None
    aux_disp: object | None = None
    volterra_a: object | None = None
    volterra_c: object | None = None
    y: np.ndarray = field(default=None)
    v0: np.ndarray = field(default=None)
    reflect: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFormError(f"unknown volatility family {self.family!r}")
        self.d = int(self.d)
        self.m = int(self.m)
        self.k_dim = int(self.k_dim)
        self.y = (
            np.zeros(self.d) if self.y is None else np.atleast_1d(np.asarray(self.y, float))
        )
        self.v0 = (
            np.zeros(self.k_dim)
            if self.v0 is None
            else np.atleast_1d(np.asarray(self.v0, float))
        )
        if self.y.shape != (self.d,):
            raise DimensionError(f"y must have shape ({self.d},)")
        if self.v0.shape != (self.k_dim,):
            raise DimensionError(f"v0 must have shape ({self.k_dim},)")
        if self.u_map is not None and not callable(self.u_map):
            raise UnsupportedFormError(f"u_map must be a callable, got {self.u_map!r}")
        if self.reflect and self.d != 1:
            raise UnsupportedDomainError("reflection is supported for d = 1 only")
        if self.family in (GAUSSIAN, MIXED):
            if self.noise_kernels is None:
                raise DimensionError(f"{self.family} family needs noise_kernels")
            if len(self.noise_kernels) != self.d or any(
                len(row) != self.m for row in self.noise_kernels
            ):
                raise DimensionError("noise_kernels must be a d x m matrix")
        if self.family == GAUSSIAN and self.drift_kernels is not None:
            raise UnsupportedFormError("gaussian family must not carry drift kernels")
        if self.family in (FRACTIONAL, MIXED):
            if self.drift_kernels is None or len(self.drift_kernels) != self.d:
                raise DimensionError(f"{self.family} family needs d drift_kernels")
            if self.u_map is None:
                raise UnsupportedFormError(f"{self.family} family needs a u_map")
        if self.family == FRACTIONAL and self.noise_kernels is not None:
            raise UnsupportedFormError("fractional family must not carry noise kernels")
        if self.family == VOLTERRA_SDE and (
            self.volterra_a is None and self.volterra_c is None
        ):
            raise UnsupportedFormError("volterra_sde family needs a and/or c maps")
        if self.family == REFLECTED:
            if not self.reflect:
                self.reflect = True
            if self.k_dim != self.d:
                raise DimensionError("reflected family uses k_dim = d state")
            if self.aux_drift is None or self.aux_disp is None:
                raise UnsupportedFormError("reflected family needs aux coefficients")
        if self.aux_drift is None:
            self.aux_drift = _zero_drift
        if self.aux_disp is None:
            self.aux_disp = _zero_disp_factory(self.m)


# ---------------------------------------------------------------------------
# the volatility scheme, written once and driven by increments
# ---------------------------------------------------------------------------
#
# Every recursion below reads increments ``incr`` of the noise, shape
# (..., n, m): the skeleton passes ``dots * dt``, the simulator
# ``sqrt(eps) * dB``.  The only other input the two callers choose is the
# Gaussian noise table ``noise_table(kernel, grid)``, weights per unit
# increment: ``cell_means`` (cell-averaged kernel) for the skeleton and the
# root-mean-square ``kernels.rms_weights`` for simulation, which reproduce
# the slice variance exactly for closed-form kernels and approximately
# (trapezoid on K^2 inside) for Molchan-Golosov and tabulated ones.


@functools.lru_cache(maxsize=128)
def cell_means(kernel, grid: TimeGrid) -> np.ndarray:
    """pc_weights per unit increment: the skeleton's Gaussian noise table."""
    return _k.pc_weights(kernel, grid) / grid.dt


def _check_blowup(arr, what):
    if not np.all(np.isfinite(arr)) or np.max(np.abs(arr)) > BLOWUP_LIMIT:
        raise DivergenceError(f"{what} exceeded the blow-up threshold {BLOWUP_LIMIT:g}")


@functools.lru_cache(maxsize=None)
def _offsets(d, ndim):
    """Rows 0, e_1..e_d, -e_1..-e_d, shaped to broadcast against (..., d)."""
    rows = np.concatenate([np.zeros((1, d)), np.eye(d), -np.eye(d)])
    return rows.reshape((2 * d + 1,) + (1,) * (ndim - 1) + (d,))


def perturbed(x):
    """``x`` stacked with its 2 d central-difference perturbations.

    Returns (stack, h): stack[0] = x, stack[a + 1] and stack[d + a + 1] move
    column a by +h and -h, h = FD_STEP * max(1, |x|).  A coefficient closure
    called once on the stack yields its values and its state derivatives
    (``central_jac``): loops keep one closure call per step.
    """
    h = np.abs(x)
    np.maximum(h, 1.0, out=h)
    h *= FD_STEP
    return x + _offsets(x.shape[-1], x.ndim) * h, h


def central_jac(vals, h):
    """(val, jac) from closure values on a ``perturbed`` stack, with
    jac[..., a] = d val / d x[..., a] by central differences."""
    vals = np.asarray(vals, float)
    d = h.shape[-1]
    shape = h.shape[:-1] + (1,) * (vals.ndim - h.ndim)  # h per column, against val
    if d == 1:
        return vals[0], ((vals[1] - vals[2]) / (2.0 * h.reshape(shape)))[..., None]
    cols = [
        (vals[1 + a] - vals[1 + d + a]) / (2.0 * h[..., a].reshape(shape)) for a in range(d)
    ]
    return vals[0], np.stack(cols, axis=-1)


def reverse_cumsum(a, axis):
    """Reverse cumulative sum: the adjoint of np.cumsum along ``axis`` < 0."""
    rev = (Ellipsis, slice(None, None, -1)) + (slice(None),) * (-1 - axis)
    return a[rev].cumsum(axis=axis)[rev]


def _new_minima(vals):
    """Nodes (axis -2) where the running minimum of min(vals, 0) is set."""
    run = np.minimum.accumulate(np.minimum(vals, 0.0), axis=-2)
    prev = np.concatenate([np.zeros_like(run[..., :1, :]), run[..., :-1, :]], axis=-2)
    return vals < prev


def _euler(spec, incr, grid, start, reflected=False, tape=None):
    """Explicit Euler for dV = b(t, V) dt + s(t, V) dZ; (..., n+1, len(start)).

    With ``reflected`` the coefficients read the state reflected at zero
    (the running-minimum compensator subtracted), as the reflected family's
    state equation does.  Coefficients see the state itself: square-root
    dispersions take the positive part in their own closure.  With a
    ``tape`` list, each closure call also sees the perturbed states and the
    step records what ``_euler_vjp`` reads.
    """
    n = grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    lead = incr.shape[:-2]
    out = np.empty(lead + (n + 1, start.shape[0]))
    cur = np.broadcast_to(start, lead + start.shape).copy()
    out[..., 0, :] = cur
    run_min = np.minimum(cur, 0.0)
    for j in range(n):
        arg = cur - run_min if reflected else cur
        if tape is None:
            drift = spec.aux_drift(nodes[j], arg)
            disp = spec.aux_disp(nodes[j], arg)
        else:
            stack, h = perturbed(arg)
            drift_s = np.asarray(spec.aux_drift(nodes[j], stack), float)
            disp_s = np.asarray(spec.aux_disp(nodes[j], stack), float)
            tape.append((h, drift_s, disp_s))
            drift, disp = drift_s[0], disp_s[0]
        cur = cur + drift * dt + np.einsum("...km,...m->...k", disp, incr[..., j, :])
        if reflected:
            run_min = np.minimum(run_min, cur)
        out[..., j + 1, :] = cur
    return out


def _euler_vjp(incr, grid, out, tape, out_bar, reflected=False):
    """Adjoint of ``_euler``: out_bar (..., n+1, k) -> incr_bar (..., n, m).

    One backward pass over the steps; with ``reflected``, the adjoint of
    the running-minimum compensator is carried back to the node that set
    the minimum (the argmin of the running minimum).
    """
    n = grid.n_steps
    h = np.stack([rec[0] for rec in tape])
    _, drift_v = central_jac(np.stack([rec[1] for rec in tape], axis=1), h)
    disp, disp_v = central_jac(np.stack([rec[2] for rec in tape], axis=1), h)
    # step axis first: d (cur_{j+1} - cur_j) / d arg_j is step_v[j]
    incr_n = np.moveaxis(incr, -2, 0)
    step_v = grid.dt * drift_v + np.einsum("j...kma,j...m->j...ka", disp_v, incr_n)
    ext = np.moveaxis(out_bar, -2, 0)
    new = np.moveaxis(_new_minima(out), -2, 0) if reflected else None
    lams = np.empty(ext[1:].shape)  # adjoint of cur_{j+1}
    lam = ext[n]
    carry = 0.0
    for j in reversed(range(n)):
        lams[j] = lam
        arg_bar = (lam[..., None, :] @ step_v[j])[..., 0, :]
        lam = lam + ext[j] + arg_bar
        if reflected:
            carry = carry - arg_bar
            lam = lam + np.where(new[j], carry, 0.0)
            carry = np.where(new[j], 0.0, carry)
    return np.moveaxis(np.einsum("j...km,j...k->j...m", disp, lams), 0, -2)


def _gaussian_part(spec, incr, grid, noise_table):
    # operands are made contiguous: matmul leaves BLAS for strided columns
    # (m > 1); a row's first term, when Brownian, is summed straight into the
    # zero row, as a chunk-sized temporary costs the simulator page faults
    out = np.zeros(incr.shape[:-2] + (grid.n_steps + 1, spec.d))
    for i, row in enumerate(spec.noise_kernels or ()):
        for j, kern in enumerate(row):
            if kern is None:
                continue
            if kern.kind != _k.BROWNIAN:
                out[..., i] += np.ascontiguousarray(incr[..., j]) @ noise_table(kern, grid).T
            elif any(k is not None for k in row[:j]):  # an earlier term in the row
                out[..., 1:, i] += np.cumsum(incr[..., j], axis=-1)
            else:
                np.cumsum(incr[..., j], axis=-1, out=out[..., 1:, i])
    return out


def _gaussian_vjp(spec, out_bar, grid, noise_table, incr_shape):
    incr_bar = np.zeros(incr_shape)
    for i, row in enumerate(spec.noise_kernels or ()):
        for j, kern in enumerate(row):
            if kern is None:
                continue
            if kern.kind == _k.BROWNIAN:
                incr_bar[..., j] += reverse_cumsum(out_bar[..., 1:, i], -1)
            else:
                incr_bar[..., j] += np.ascontiguousarray(out_bar[..., i]) @ noise_table(kern, grid)
    return incr_bar


def _fractional_part(spec, incr, grid, tape=None):
    aux = None if tape is None else tape.setdefault("aux", [])
    psi = _euler(spec, incr, grid, spec.v0, tape=aux)
    if tape is None:
        u = spec.u_map(psi[..., :-1, :])  # left node values, (..., n, d)
    else:
        stack, h = perturbed(psi[..., :-1, :])
        u, tape["u_psi"] = central_jac(spec.u_map(stack), h)
        tape["psi"] = psi
    out = np.zeros(incr.shape[:-2] + (grid.n_steps + 1, spec.d))
    for i in range(spec.d):
        kern = spec.drift_kernels[i]
        if kern is not None:
            out[..., i] = np.ascontiguousarray(u[..., i]) @ _k.pc_weights(kern, grid).T
    return out


def _fractional_vjp(spec, incr, grid, tape, out_bar):
    u_bar = np.zeros(out_bar.shape[:-2] + (grid.n_steps, spec.d))
    for i in range(spec.d):
        kern = spec.drift_kernels[i]
        if kern is not None:
            u_bar[..., i] = np.ascontiguousarray(out_bar[..., i]) @ _k.pc_weights(kern, grid)
    psi = tape["psi"]
    psi_bar = np.zeros(psi.shape)
    psi_bar[..., :-1, :] = np.einsum("...nd,...ndk->...nk", u_bar, tape["u_psi"])
    return _euler_vjp(incr, grid, psi, tape["aux"], psi_bar)


def _volterra_sweep(spec, incr, grid, tape=None):
    """Forward sweep of the discretized Volterra equation.

    Node i reads only nodes j < i, so one causal pass solves the system
    exactly; no fixed-point iteration is needed.  With a ``tape`` dict the
    coefficient calls also see the perturbed states, and their values fill
    the lower triangle of (node i, node j) tables for ``_volterra_vjp``.
    """
    n = grid.n_steps
    dt = grid.dt
    d = spec.d
    nodes = grid.nodes
    lead = incr.shape[:-2]
    eta = np.empty(lead + (n + 1, d))
    eta[..., 0, :] = spec.y
    if tape is not None:
        width = (2 * d + 1,) + lead + (n, n, d)
        tape["h"] = np.ones(lead + (n, n, d))
        tape["a"] = None if spec.volterra_a is None else np.zeros(width)
        tape["c"] = None if spec.volterra_c is None else np.zeros(width + (spec.m,))
    for i in range(1, n + 1):
        s = nodes[:i]
        x = eta[..., :i, :]
        if tape is not None:
            x, tape["h"][..., i - 1, :i, :] = perturbed(x)
        acc = np.broadcast_to(spec.y, lead + (d,)).copy()
        if spec.volterra_a is not None:
            av = spec.volterra_a(nodes[i], s, x)
            if tape is not None:
                tape["a"][..., i - 1, :i, :] = av
                av = tape["a"][0, ..., i - 1, :i, :]
            acc = acc + dt * np.sum(av, axis=-2)
        if spec.volterra_c is not None:
            cv = spec.volterra_c(nodes[i], s, x)
            if tape is not None:
                tape["c"][..., i - 1, :i, :, :] = cv
                cv = tape["c"][0, ..., i - 1, :i, :, :]
            acc = acc + np.einsum("...jkm,...jm->...k", cv, incr[..., :i, :])
        eta[..., i, :] = acc
    return eta


def _volterra_vjp(spec, incr, grid, tape, eta_bar):
    """Backward causal sweep: node i hands its adjoint to every node j < i
    it read, through the coefficients' state derivatives."""
    jac = 0.0  # jac[..., i-1, j] = d eta_i / d eta_j
    if tape["a"] is not None:
        jac = grid.dt * central_jac(tape["a"], tape["h"])[1]
    if tape["c"] is not None:
        cv, c_x = central_jac(tape["c"], tape["h"])
        jac = jac + np.einsum("...ijkma,...jm->...ijka", c_x, incr)
    lam = np.array(eta_bar, float)
    for i in reversed(range(1, grid.n_steps + 1)):
        row = jac[..., i - 1, :i, :, :]
        lam[..., :i, :] += np.einsum("...k,...jka->...ja", lam[..., i, :], row)
    if tape["c"] is None:
        return np.zeros(incr.shape)
    return np.einsum("...ik,...ijkm->...jm", lam[..., 1:, :], cv)


def vol_state(
    spec: VolProcessSpec, incr: np.ndarray, grid: TimeGrid, noise_table, tape=None
) -> np.ndarray:
    """The volatility equation on the grid, before the output map.

    incr has shape (..., n, m); returns (..., n+1, d).  No blow-up checks:
    the skeleton raises on them, the simulator excludes the paths.  A
    ``tape`` dict receives what ``vol_state_vjp`` reads.
    """
    if spec.family == VOLTERRA_SDE:
        return _volterra_sweep(spec, incr, grid, tape)
    if spec.family == REFLECTED:
        aux = None if tape is None else tape.setdefault("aux", [])
        out = _euler(spec, incr, grid, spec.y, reflected=True, tape=aux)
        if tape is not None:
            tape["state"] = out
        return out
    out = _gaussian_part(spec, incr, grid, noise_table)
    out += spec.y
    if spec.drift_kernels is not None:
        out += _fractional_part(spec, incr, grid, tape)
    return out


def is_affine(spec: VolProcessSpec) -> bool:
    """Whether the output-mapped ``vol_state`` is affine in the increments:
    y plus a convolution, unreflected (the gaussian family)."""
    return spec.family == GAUSSIAN and not spec.reflect


def is_constant(spec: VolProcessSpec) -> bool:
    """Whether the vol is the constant y: affine with every noise kernel None."""
    return is_affine(spec) and all(k is None for row in spec.noise_kernels for k in row)


def vol_state_vjp(spec: VolProcessSpec, incr, grid, noise_table, tape, vals_bar) -> np.ndarray:
    """Vector-jacobian product of ``vol_state``: d <vals_bar, vals> / d incr.

    ``tape`` is the dict a ``vol_state`` call on the same arguments filled.
    Each scheme runs its stages backwards: reverse cumulative sums (Brownian
    kernels), transposed weight tables (other kernels), a backward Euler
    recursion (auxiliary and reflected states) or a backward causal sweep
    (volterra_sde).  Shapes (..., n+1, d) -> (..., n, m).
    """
    if spec.family == VOLTERRA_SDE:
        return _volterra_vjp(spec, incr, grid, tape, vals_bar)
    if spec.family == REFLECTED:
        return _euler_vjp(incr, grid, tape["state"], tape["aux"], vals_bar, reflected=True)
    out = _gaussian_vjp(spec, vals_bar, grid, noise_table, incr.shape)
    if spec.drift_kernels is not None:
        out += _fractional_vjp(spec, incr, grid, tape, vals_bar)
    return out


def output_map(spec: VolProcessSpec, vals: np.ndarray) -> np.ndarray:
    """Reflection at zero along the time axis when requested, else identity."""
    return reflect_values(vals) if spec.reflect else vals


def _reflect_vjp(vals, out_bar):
    """Adjoint of the reflection in ``output_map``: the compensator at node i
    is the state at the node that set the running minimum, so its adjoint
    goes back to that node."""
    new = _new_minima(vals)
    vals_bar = np.array(out_bar, float)
    carry = 0.0
    for i in reversed(range(vals.shape[-2])):
        carry = carry - out_bar[..., i, :]
        vals_bar[..., i, :] += np.where(new[..., i, :], carry, 0.0)
        carry = np.where(new[..., i, :], 0.0, carry)
    return vals_bar


# ---------------------------------------------------------------------------
# controlled skeleton
# ---------------------------------------------------------------------------


def solve_psi_batch(spec: VolProcessSpec, dots: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Explicit Euler solution of the controlled auxiliary ODE.

    dots has shape (..., n, m); returns (..., n+1, k).
    """
    psi = _euler(spec, np.asarray(dots, float) * grid.dt, grid, spec.v0)
    _check_blowup(psi, "auxiliary skeleton")
    return psi


def solve_psi(spec: VolProcessSpec, control: Control) -> PathFn:
    vals = solve_psi_batch(spec, control.dot_values, control.grid)
    return PathFn(control.grid, vals)


def _checked_dots(spec, dots, grid):
    dots = np.asarray(dots, float)
    if dots.shape[-2:] != (grid.n_steps, spec.m):
        raise DimensionError(
            f"control must have shape (..., {grid.n_steps}, {spec.m}), got {dots.shape}"
        )
    return dots


def _checked_state(spec, vals):
    if spec.family == GAUSSIAN:
        return vals
    if spec.family == VOLTERRA_SDE and not np.all(np.isfinite(vals)):
        raise ConvergenceError(
            "forward sweep of the Volterra equation reached non-finite values",
            residual=math.inf,
        )
    _check_blowup(vals, f"{spec.family} skeleton")
    return vals


def gamma_y_batch(spec: VolProcessSpec, dots: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Solution of the controlled Volterra equation, before the output map."""
    dots = _checked_dots(spec, dots, grid)
    return _checked_state(spec, vol_state(spec, dots * grid.dt, grid, cell_means))


def gamma_y(spec: VolProcessSpec, control: Control) -> PathFn:
    return PathFn(control.grid, gamma_y_batch(spec, control.dot_values, control.grid))


def hat_map_batch(spec: VolProcessSpec, dots: np.ndarray, grid: TimeGrid) -> np.ndarray:
    return output_map(spec, gamma_y_batch(spec, dots, grid))


def hat_map_vjp(spec: VolProcessSpec, dots: np.ndarray, grid: TimeGrid):
    """``hat_map_batch`` and its vector-jacobian product in one forward pass.

    Returns (hat, pullback) with pullback(hat_bar) = d <hat_bar, hat> / d dots,
    shapes (..., n+1, d) -> (..., n, m).
    """
    dots = _checked_dots(spec, dots, grid)
    incr = dots * grid.dt
    tape = {}
    vals = _checked_state(spec, vol_state(spec, incr, grid, cell_means, tape))

    def pullback(hat_bar):
        if spec.reflect:
            hat_bar = _reflect_vjp(vals, hat_bar)
        return grid.dt * vol_state_vjp(spec, incr, grid, cell_means, tape, hat_bar)

    return output_map(spec, vals), pullback


def hat_map(spec: VolProcessSpec, control: Control) -> PathFn:
    """Skeleton of the volatility process driven by the control."""
    return PathFn(control.grid, hat_map_batch(spec, control.dot_values, control.grid))


# ---------------------------------------------------------------------------
# named aux coefficient forms
# ---------------------------------------------------------------------------


def cir_coefficients(kappa: float, theta: float, eta: float):
    """Square-root mean reversion; the dispersion reads the positive part."""

    def drift(t, v):
        return kappa * (theta - v)

    def disp(t, v):
        return eta * np.sqrt(np.maximum(v, 0.0))[..., None]

    return drift, disp


def ou_coefficients(kappa: float, mu: float, eta: float):
    def drift(t, v):
        return kappa * (mu - v)

    def disp(t, v):
        return np.full(v.shape + (1,), eta)

    return drift, disp
