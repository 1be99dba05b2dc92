"""Admissible Volterra kernels and their induced integral operators.

Supported kinds
---------------
brownian
    Indicator kernel 1_{s<t}; the induced operator is plain integration.
riemann_liouville
    (t-s)^(H-1/2) / Gamma(H+1/2), Hurst H in (0,1).  Rough for H < 1/2.
fbm_molchan_golosov
    The kernel representing fractional Brownian motion as a causal integral
    against standard Brownian motion; evaluated in closed form, its explicit
    integral form with the inner integral written as a regularized incomplete
    beta function (``_mg_values``, arrays in and out), with the
    Gauss-hypergeometric representation kept as a cross-check.  Singular at
    s = 0 for every H != 1/2, where K ~ s^(-|H-1/2|) (s^(H-1/2) for H < 1/2),
    and on the diagonal for H < 1/2.
logarithmic
    Convolution kernel tau(x) with tau(x)^2 = beta * x^(-1) * log(1/x)^(-beta-1),
    beta > 1, defined for lags x < 1.  Slices are square integrable only for
    t < 1, so grids must have horizon < 1.
tabulated
    Values sampled on a rectangular (t, s) grid; bilinear interpolation below
    the diagonal, zero above it.  The grid tables take the interpolated value
    on the diagonal, the kernel's left limit there.

Every evaluator enforces the Volterra property K(t, s) = 0 for s >= t.
Quadrature rules integrate the kernel factor exactly on cells touching a
singular endpoint (power-law diagonals, the s = 0 edge of the
Molchan-Golosov kernel) and fall back to the trapezoid rule on the smooth
interior: in closed form for the power and logarithmic kernels, and for
Molchan-Golosov by one batched cell rule (``_mg_cell_moments``), fixed
Gauss-Legendre nodes after a power map that sends the singular end away.
Every table is built from array evaluations; the Molchan-Golosov and
tabulated tables take milliseconds at n = 200.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import AdmissibilityError, DimensionError, DomainError, InvalidKernelError, require_number
from .paths import TimeGrid

_FINITE_SLICE_LIMIT = 1e12

BROWNIAN = "brownian"
RIEMANN_LIOUVILLE = "riemann_liouville"
MOLCHAN_GOLOSOV = "fbm_molchan_golosov"
LOGARITHMIC = "logarithmic"
TABULATED = "tabulated"

KERNEL_KINDS = (BROWNIAN, RIEMANN_LIOUVILLE, MOLCHAN_GOLOSOV, LOGARITHMIC, TABULATED)
_FRACTIONAL_KINDS = (RIEMANN_LIOUVILLE, MOLCHAN_GOLOSOV)


def _table_array(value, what: str, ndim: int) -> np.ndarray:
    """A finite ``ndim``-D array of numbers as floats; InvalidKernelError for
    anything else (a ragged list, strings, objects, null or non-finite
    entries)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf":
        raise InvalidKernelError(f"table {what} must be a {ndim}-D array of numbers, got {value!r}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise InvalidKernelError(f"table {what} must be finite")
    return arr


@dataclass(frozen=True)
class TabulatedTable:
    """Sampled kernel values on a rectangular grid, stored hashably."""

    t: tuple
    s: tuple
    values: tuple

    @functools.cached_property
    def arrays(self):
        return np.asarray(self.t), np.asarray(self.s), np.asarray(self.values)

    @staticmethod
    def from_arrays(t, s, values) -> "TabulatedTable":
        t, s = _table_array(t, "axis t", 1), _table_array(s, "axis s", 1)
        v = _table_array(values, "values", 2)
        if t.size < 2 or s.size < 2:
            raise InvalidKernelError("table axes need at least two nodes")
        if v.shape != (t.size, s.size):
            raise DimensionError("table values must have shape (len(t), len(s))")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(s) <= 0):
            raise InvalidKernelError("table axes must be strictly increasing")
        return TabulatedTable(tuple(t), tuple(s), tuple(map(tuple, v)))


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    hurst: float | None = None
    beta: float | None = None
    table: TabulatedTable | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidKernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind in _FRACTIONAL_KINDS:
            if self.hurst is None or not 0.0 < require_number(self.hurst, "hurst") < 1.0:
                raise InvalidKernelError("fractional kernels need hurst in (0, 1)")
        if self.kind == LOGARITHMIC:
            if self.beta is None or not require_number(self.beta, "beta") > 1.0:
                raise InvalidKernelError("logarithmic kernel needs beta > 1")
        if self.kind == TABULATED and self.table is None:
            raise InvalidKernelError("tabulated kernel needs a table")

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind}
        if self.hurst is not None:
            obj["hurst"] = self.hurst
        if self.beta is not None:
            obj["beta"] = self.beta
        if self.table is not None:
            obj["table"] = {
                "t": list(self.table.t),
                "s": list(self.table.s),
                "values": [list(r) for r in self.table.values],
            }
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "KernelSpec":
        table = None
        if "table" in obj and obj["table"] is not None:
            tb = obj["table"]
            if not isinstance(tb, dict):
                raise InvalidKernelError(f"kernel table must be an object, got {tb!r}")
            table = TabulatedTable.from_arrays(tb["t"], tb["s"], tb["values"])
        return KernelSpec(obj["kind"], obj.get("hurst"), obj.get("beta"), table)


def brownian() -> KernelSpec:
    return KernelSpec(BROWNIAN)


def riemann_liouville(hurst: float) -> KernelSpec:
    return KernelSpec(RIEMANN_LIOUVILLE, hurst=hurst)


def molchan_golosov(hurst: float) -> KernelSpec:
    return KernelSpec(MOLCHAN_GOLOSOV, hurst=hurst)


def logarithmic(beta: float) -> KernelSpec:
    return KernelSpec(LOGARITHMIC, beta=beta)


def tabulated(t, s, values) -> KernelSpec:
    return KernelSpec(TABULATED, table=TabulatedTable.from_arrays(t, s, values))


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------


def _rl_value(h: float, t: float, s: float) -> float:
    return (t - s) ** (h - 0.5) / _sp.gamma(h + 0.5)


@functools.lru_cache(maxsize=None)
def _mg_prefactor(h: float) -> float:
    if h > 0.5:
        return math.sqrt(h * (2 * h - 1) / _sp.beta(h - 0.5, 2 - 2 * h))
    return math.sqrt(2 * h / ((1 - 2 * h) * _sp.beta(h + 0.5, 1 - 2 * h)))


def _mg_values(h: float, s, lag):
    """K(s + lag, s) for s, lag > 0 (arrays), H != 1/2, in closed form.

    With x = s/t, the inner integral of the explicit form is an incomplete
    beta function: for H < 1/2, int_s^t u^(H-3/2) (u-s)^(H-1/2) du =
    s^(2H-1) B(1-2H, H+1/2) I_{1-x}(H+1/2, 1-2H); for H > 1/2 the exponent
    1-2H of u is negative and one step of a -> a+1 by parts gives
    int_x^1 w^(a-1) (1-w)^(b-1) dw = ((a+b) B(a+1, b) I_{1-x}(b, a+1)
    - x^a (1-x)^b) / a with a = 1-2H, b = H-1/2.  The lag enters directly,
    so values next to the diagonal keep full relative precision.
    """
    t = s + lag
    x, y = s / t, lag / t
    if h < 0.5:
        inner = (0.5 - h) * _sp.beta(1 - 2 * h, h + 0.5) * _sp.betainc(h + 0.5, 1 - 2 * h, y)
        return _mg_prefactor(h) * (x ** (0.5 - h) * lag ** (h - 0.5) + s ** (h - 0.5) * inner)
    a, b = 1 - 2 * h, h - 0.5
    inner = ((a + b) * _sp.beta(a + 1, b) * _sp.betainc(b, a + 1, y) - x**a * y**b) / a
    return _mg_prefactor(h) * s ** (h - 0.5) * inner


def _mg_value(h: float, t: float, s: float) -> float:
    if s <= 0.0:
        return math.inf if h > 0.5 else 0.0
    if h == 0.5:
        return 1.0
    return float(_mg_values(h, s, t - s))


def _log_value(beta: float, x: float) -> float:
    """Convolution kernel tau(x) at lag x in (0, 1)."""
    if x >= 1.0:
        raise InvalidKernelError("logarithmic kernel is defined for lags < 1")
    if x <= 0.0:
        return math.inf
    return math.sqrt(beta / x * math.log(1.0 / x) ** (-beta - 1.0))


def _table_value(table: TabulatedTable, t, s):
    """Bilinear interpolation at (t, s); arrays broadcast elementwise."""
    tt, ss, vv = table.arrays
    ti = np.clip(np.searchsorted(tt, t) - 1, 0, tt.size - 2)
    si = np.clip(np.searchsorted(ss, s) - 1, 0, ss.size - 2)
    wt = np.clip((t - tt[ti]) / (tt[ti + 1] - tt[ti]), 0.0, 1.0)
    ws = np.clip((s - ss[si]) / (ss[si + 1] - ss[si]), 0.0, 1.0)
    return (
        (1 - wt) * (1 - ws) * vv[ti, si]
        + (1 - wt) * ws * vv[ti, si + 1]
        + wt * (1 - ws) * vv[ti + 1, si]
        + wt * ws * vv[ti + 1, si + 1]
    )


def eval_kernel(kernel: KernelSpec, t: float, s: float) -> float:
    """K(t, s); zero whenever s >= t (Volterra convention, also at singular
    diagonal points where quadrature routines substitute cell-exact masses)."""
    t = float(t)
    s = float(s)
    if s >= t:
        return 0.0
    if kernel.kind == BROWNIAN:
        return 1.0
    if kernel.kind == RIEMANN_LIOUVILLE:
        return _rl_value(kernel.hurst, t, s)
    if kernel.kind == MOLCHAN_GOLOSOV:
        return _mg_value(kernel.hurst, t, s)
    if kernel.kind == LOGARITHMIC:
        return _log_value(kernel.beta, t - s)
    return float(_table_value(kernel.table, t, s))


def _kind(kernel: KernelSpec) -> str:
    """The kind that builds the kernel's tables; H = 1/2 is brownian."""
    if kernel.kind in _FRACTIONAL_KINDS and kernel.hurst == 0.5:
        return BROWNIAN
    return kernel.kind


# ---------------------------------------------------------------------------
# cached grid machinery
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _row_values(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """K(t_i, t_j) for j < i, zero elsewhere.  Left-limit value on the
    diagonal for the non-singular power kernels, so H = 1/2 matches brownian,
    and for tabulated kernels, whose left limit is the table's value there."""
    n = grid.n_steps
    nodes = grid.nodes
    kind = _kind(kernel)
    out = np.zeros((n + 1, n + 1))
    if kind == BROWNIAN:
        out[np.tril_indices(n + 1)] = 1.0
        out[0, 0] = 0.0
        return out
    if kind == RIEMANN_LIOUVILLE:
        h = kernel.hurst
        lag = np.arange(n + 1) * grid.dt
        with np.errstate(divide="ignore"):
            vals = np.where(lag > 0, lag, np.nan) ** (h - 0.5) / _sp.gamma(h + 0.5)
        vals[0] = 1.0 / _sp.gamma(h + 0.5) if h >= 0.5 else 0.0
        for i in range(1, n + 1):
            out[i, : i + 1] = vals[i::-1]
        out[0, 0] = 0.0
        return out
    if kind == LOGARITHMIC:
        if grid.horizon >= 1.0:
            raise AdmissibilityError(
                "logarithmic kernel slices are square integrable only for t < 1; "
                "use a grid with horizon < 1"
            )
        lag = np.arange(1, n + 1) * grid.dt
        vals = np.array([_log_value(kernel.beta, x) for x in lag])
        for i in range(1, n + 1):
            out[i, :i] = vals[i - 1 :: -1]
        return out
    if kind == TABULATED:
        i, j = np.tril_indices(n + 1)
        out[i, j] = _table_value(kernel.table, nodes[i], nodes[j])
        out[0, 0] = 0.0
        return out
    # Molchan-Golosov, H != 1/2: the s = 0 column keeps the scalar convention
    i, j = np.tril_indices(n + 1, -1)
    i, j = i[j > 0], j[j > 0]
    out[i, j] = _mg_values(kernel.hurst, nodes[j], nodes[i] - nodes[j])
    out[1:, 0] = 0.0 if kernel.hurst < 0.5 else np.inf
    return out


def _rl_cell_moments(h: float, dt: float, n: int):
    """Exact cell integrals of the power factor against 1 and (s - a).

    For lag index L >= 1 (cell ending L*dt before the evaluation time... the
    cell [t - L*dt, t - (L-1)*dt]):
      I0[L] = int (t-s)^(H-1/2) ds,   I1[L] = int (t-s)^(H-1/2) (s-a) ds.
    """
    g = _sp.gamma(h + 0.5)
    a1 = h + 0.5
    a2 = h + 1.5
    A = np.arange(1, n + 1) * dt  # t - a
    B = A - dt  # t - b
    i0 = (A**a1 - B**a1) / a1 / g
    i1 = (A * (A**a1 - B**a1) / a1 - (A**a2 - B**a2) / a2) / g
    return i0, i1


@functools.lru_cache(maxsize=32)
def _log_diag_cell_mass(beta: float, dt: float) -> float:
    from scipy import integrate as _sint  # loaded on first use: rare and slow to import

    val, _ = _sint.quad(lambda x: _log_value(beta, x), 0.0, dt, limit=200)
    return val


_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def _mg_cell_moments(h: float, grid: TimeGrid, i, j):
    """int K, int K (s - t_j) and int K^2 over the cells [t_j, t_{j+1}] of rows i.

    Fixed Gauss-Legendre nodes in v after s = a + (b-a) v^p, which maps the
    singular end a away (s = b - (b-a) v^p maps b): the end s = 0 on cells
    j = 0, the diagonal end otherwise.  The row-1 cell touches both and is
    split at its midpoint.  Lags are formed as t - b + (b-a) v^p, never as
    t - s, which rounds to 0 next to the diagonal.
    """
    nodes = grid.nodes
    t, a, b = nodes[i], nodes[j], nodes[j + 1]
    split = np.flatnonzero(i == 1)
    cell = np.concatenate([np.arange(i.size), split])
    right = np.concatenate([j > 0, np.ones(split.size, bool)])[:, None]
    a = np.concatenate([a, 0.5 * (a[split] + b[split])])
    b = np.concatenate([b, b[split]])
    b[split] = a[i.size :]
    t, a, b, tj = t[cell, None], a[:, None], b[:, None], nodes[j][cell, None]
    # K^2 ~ r^(-|2H-1|) at distance r from a singular end; on the cells that
    # touch one, p makes the integrand ~ v^3 or smoother at v = 0 (capped so
    # that v^p stays normal: below H = 0.03 or above 0.97 accuracy degrades)
    touch = np.concatenate([(j == 0) | (j == i - 1), np.ones(split.size, bool)])
    p = np.where(touch, min(math.ceil(4.0 / (1.0 - abs(2.0 * h - 1.0))), 64), 1)[:, None]
    v = 0.5 * (_GL_X + 1.0)
    d = (b - a) * v**p
    w = (b - a) * p * v ** (p - 1) * 0.5 * _GL_W
    s = np.where(right, b - d, a + d)
    k = _mg_values(h, s, np.where(right, (t - b) + d, (t - a) - d))
    off = np.where(right, (b - tj) - d, (a - tj) + d)
    return [
        np.bincount(cell, weights=np.sum(f * w, axis=1), minlength=i.size)
        for f in (k, k * off, k * k)
    ]


@functools.lru_cache(maxsize=128)
def quad_weights(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular W with (Kf)(t_i) ~= sum_j W[i, j] f(t_j).

    Cells touching a singular endpoint integrate the kernel factor exactly
    (closed form where available, quadrature otherwise) against a piecewise
    constant co-factor; smooth cells use the trapezoid rule.  For the
    Riemann-Liouville kind every cell is integrated in closed form against a
    piecewise linear co-factor, which is exact on that class.
    """
    n = grid.n_steps
    dt = grid.dt
    kind = _kind(kernel)
    W = np.zeros((n + 1, n + 1))
    # cell j of row i puts weight `left` on node j and `right` on node j + 1
    i, j = np.tril_indices(n + 1, -1)
    if kind == RIEMANN_LIOUVILLE:
        i0, i1 = _rl_cell_moments(kernel.hurst, dt, n)
        left, right = (i0 - i1 / dt)[i - j - 1], (i1 / dt)[i - j - 1]
    else:  # trapezoid rule
        rows = _row_values(kernel, grid)
        left, right = dt / 2 * rows[i, j], dt / 2 * rows[i, j + 1]
    if kind == LOGARITHMIC:  # diagonal cell: exact mass, left value
        diag = j == i - 1
        left[diag], right[diag] = _log_diag_cell_mass(kernel.beta, dt), 0.0
    elif kind == MOLCHAN_GOLOSOV:
        # the kernel has an unbounded s-derivative at both s = 0 and s = t:
        # cells within 4 of either end take its exact moments against a
        # piecewise linear co-factor
        band = (j < 4) | (i - 1 - j < 4)
        m0, m1, _ = _mg_cell_moments(kernel.hurst, grid, i[band], j[band])
        left[band], right[band] = m0 - m1 / dt, m1 / dt
    W[i, j] = left
    W[i, j + 1] += right
    return W


@functools.lru_cache(maxsize=128)
def pc_weights(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Cell masses M[i, j] = int_{t_j}^{t_{j+1}} K(t_i, s) ds for j < i.

    Used against piecewise-constant (left-value) co-factors, e.g. path-wise
    Euler quadrature of the volatility convolution.
    """
    n = grid.n_steps
    dt = grid.dt
    kind = _kind(kernel)
    diag = np.arange(1, n + 1)
    if kind == MOLCHAN_GOLOSOV:
        # redistribute the node weights onto cells (left-node convention)
        W = quad_weights(kernel, grid)
        M = np.tril(W[:, :n], -1)
        M[diag, diag - 1] += W[diag, diag]
        return M
    M = np.zeros((n + 1, n))
    i, j = np.tril_indices(n + 1, -1)
    if kind == RIEMANN_LIOUVILLE:
        M[i, j] = _rl_cell_moments(kernel.hurst, dt, n)[0][i - j - 1]
        return M
    rows = _row_values(kernel, grid)  # trapezoid rule
    M[i, j] = dt / 2 * (rows[i, j] + rows[i, j + 1])
    if kind == LOGARITHMIC:
        M[diag, diag - 1] = _log_diag_cell_mass(kernel.beta, dt)
    return M


@functools.lru_cache(maxsize=128)
def rms_weights(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """R[i, j] = sqrt(int_cell K(t_i, s)^2 ds / dt).

    Convolving R against independent increments of variance dt reproduces the
    slice variance of the kernel on every row: exactly where the cell
    integrals of K^2 are closed form (Brownian, Riemann-Liouville,
    logarithmic), up to the trapezoid rule on the interior cells for the
    Molchan-Golosov and tabulated kernels.  The diagonal cell j = i - 1 takes
    the left limit K(t_i, t_i-), not the Volterra zero: closed form for
    Molchan-Golosov with H < 1/2, the batched cell rule for H > 1/2 (as on
    the first cell), and the diagonal of ``_row_values`` for tabulated
    kernels.
    """
    n = grid.n_steps
    dt = grid.dt
    kind = _kind(kernel)
    R = np.zeros((n + 1, n))
    i, j = np.tril_indices(n + 1, -1)
    if kind == RIEMANN_LIOUVILLE:  # cell integrals by lag i - j - 1
        h = kernel.hurst
        A = np.arange(1, n + 1) * dt
        B = A - dt
        cell = ((A ** (2 * h) - B ** (2 * h)) / (2 * h) / _sp.gamma(h + 0.5) ** 2)[i - j - 1]
    elif kind == LOGARITHMIC:
        if grid.horizon >= 1.0:
            raise AdmissibilityError("logarithmic kernel needs horizon < 1")
        lb = lambda x: math.log(1.0 / x) ** (-kernel.beta) if x > 0 else 0.0
        cell = np.diff([lb(x) for x in np.arange(0, n + 1) * dt])[i - j - 1]
    else:  # trapezoid rule on K^2
        rows = _row_values(kernel, grid)
        cell = dt / 2 * (rows[i, j] ** 2 + rows[i, j + 1] ** 2)
    if kind == MOLCHAN_GOLOSOV:
        h = kernel.hurst
        diag = j == i - 1
        if h < 0.5:  # diagonal behaviour K ~ pref * (t-s)^(H-1/2)
            cell[diag] = _mg_prefactor(h) ** 2 * dt ** (2 * h) / (2 * h)
            exact = j == 0
        else:
            exact = (j == 0) | diag
        cell[exact] = _mg_cell_moments(h, grid, i[exact], j[exact])[2]
    R[i, j] = np.sqrt(np.maximum(cell, 0.0) / dt)
    return R


# ---------------------------------------------------------------------------
# operator application and diagnostics
# ---------------------------------------------------------------------------


def hs_apply(kernel: KernelSpec, f, grid: TimeGrid) -> np.ndarray:
    """Apply the induced operator: t -> int_0^t K(t, s) f(s) ds at grid nodes."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n_steps + 1,):
        raise DimensionError(
            f"f must be sampled on the grid nodes, expected shape "
            f"({grid.n_steps + 1},), got {f.shape}"
        )
    return quad_weights(kernel, grid) @ f


def slice_variance(kernel: KernelSpec, t: float) -> float:
    """int_0^t K(t, s)^2 ds; admissibility diagnostic for the slice at t."""
    t = float(t)
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    if kernel.kind == BROWNIAN:
        return t
    if kernel.kind == RIEMANN_LIOUVILLE:
        h = kernel.hurst
        val = t ** (2 * h) / (2 * h * _sp.gamma(h + 0.5) ** 2)
    elif kernel.kind == LOGARITHMIC:
        if t >= 1.0:
            raise AdmissibilityError(
                "logarithmic kernel slice is not square integrable for t >= 1"
            )
        val = math.log(1.0 / t) ** (-kernel.beta)
    elif kernel.kind == MOLCHAN_GOLOSOV:
        h = kernel.hurst
        if h == 0.5:
            return t
        from scipy import integrate as _sint  # loaded on first use, as above

        val, _ = _sint.quad(
            lambda s: _mg_value(h, t, s) ** 2, 0.0, t, limit=200,
            points=[0.0, t],
        )
    else:
        ss = np.asarray(kernel.table.s)
        mask = ss <= t
        s_pts = np.concatenate([ss[mask], [t]]) if ss[mask].size else np.array([0.0, t])
        if s_pts[0] > 0.0:
            s_pts = np.concatenate([[0.0], s_pts])
        vals = _table_value(kernel.table, t, s_pts) ** 2
        val = float(np.trapezoid(vals, s_pts))
    if not np.isfinite(val) or val > _FINITE_SLICE_LIMIT:
        raise AdmissibilityError(f"slice at t={t} is numerically non-square-integrable")
    return float(val)


def l2_modulus(kernel: KernelSpec, tau: float, grid: TimeGrid) -> float:
    """Discrete L2 modulus of continuity of the kernel over grid pairs.

    sup over node pairs |t_i - t_j| <= tau of int_0^T (K(t_i,u) - K(t_j,u))^2 du,
    computed through the decomposition V_i + V_j - 2 * cross(i, j).
    """
    tau = float(tau)
    if tau < 0 or tau > grid.horizon:
        raise DomainError("tau must lie in [0, horizon]")
    n = grid.n_steps
    width = int(math.floor(tau / grid.dt + 1e-9))
    if width == 0:
        return 0.0
    nodes = grid.nodes
    V = np.array([slice_variance(kernel, t) for t in nodes])
    rows = _row_values(kernel, grid)
    pc = pc_weights(kernel, grid)
    best = 0.0
    for i in range(1, n + 1):
        for j in range(max(0, i - width), i):
            if j == 0:
                cross = 0.0
            else:
                # trapezoid of the product on [0, t_{j-1}], diagonal cell of the
                # j-slice integrated exactly against the midpoint of the i-slice
                prod = rows[i, : j + 1] * rows[j, : j + 1]
                cross = float(np.trapezoid(prod[:j], nodes[:j])) if j >= 1 else 0.0
                mid = eval_kernel(kernel, nodes[i], 0.5 * (nodes[j - 1] + nodes[j]))
                cross += pc[j, j - 1] * mid
            best = max(best, V[i] + V[j] - 2.0 * cross)
    return float(max(best, 0.0))


def kernel_info(kernel: KernelSpec, grid: TimeGrid, taus=None) -> dict:
    """Diagnostics bundle used by the CLI."""
    taus = list(taus) if taus is not None else [grid.horizon / 8, grid.horizon / 4]
    nodes = grid.nodes
    return {
        "kind": kernel.kind,
        "hurst": kernel.hurst,
        "beta": kernel.beta,
        "slice_variance": {
            repr(float(t)): slice_variance(kernel, float(t))
            for t in nodes[:: max(1, grid.n_steps // 8)]
        },
        "l2_modulus": {repr(float(tau)): l2_modulus(kernel, float(tau), grid) for tau in taus},
    }
