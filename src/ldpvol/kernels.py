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

One evaluator, ``_kernel_values``, holds the per-kind formula of K(t, s):
``eval_kernel`` adds the Volterra zero for s >= t and the edge rules, and
the node table ``_row_values`` reads it on the grid.  One cell rule,
``_cells``, gives the node weights of ``quad_weights`` and the cell masses
of ``pc_weights``: exact on cells touching a singular endpoint (power-law
diagonals, the s = 0 edge of the Molchan-Golosov kernel), the trapezoid
rule on the smooth interior; in closed form for the power and logarithmic
kernels, and for Molchan-Golosov by fixed Gauss-Legendre nodes after a
power map that sends the singular end away (``_mg_cell_moments``).  The
cells of ``rms_weights`` for the convolution kernels (Riemann-Liouville,
logarithmic) are differences of ``slice_variance`` at consecutive lags.
Every table is built from array evaluations; the Molchan-Golosov and
tabulated tables take milliseconds at n = 200.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


def _beta(a: float, b: float) -> float:
    """The beta function B(a, b) for a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@functools.lru_cache(maxsize=None)
def _mg_prefactor(h: float) -> float:
    if h > 0.5:
        return math.sqrt(h * (2 * h - 1) / _beta(h - 0.5, 2 - 2 * h))
    return math.sqrt(2 * h / ((1 - 2 * h) * _beta(h + 0.5, 1 - 2 * h)))


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
    from scipy.special import betainc  # loaded on first use: slow to import

    t = s + lag
    x, y = s / t, lag / t
    if h < 0.5:
        inner = (0.5 - h) * _beta(1 - 2 * h, h + 0.5) * betainc(h + 0.5, 1 - 2 * h, y)
        return _mg_prefactor(h) * (x ** (0.5 - h) * lag ** (h - 0.5) + s ** (h - 0.5) * inner)
    a, b = 1 - 2 * h, h - 0.5
    inner = ((a + b) * _beta(a + 1, b) * betainc(b, a + 1, y) - x**a * y**b) / a
    return _mg_prefactor(h) * s ** (h - 0.5) * inner


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


def _kind(kernel: KernelSpec) -> str:
    """The kind that evaluates the kernel and builds its tables; H = 1/2 is
    brownian."""
    if kernel.kind in _FRACTIONAL_KINDS and kernel.hurst == 0.5:
        return BROWNIAN
    return kernel.kind


def _kernel_values(kernel: KernelSpec, t, s) -> np.ndarray:
    """K(t, s) at arrays of points with 0 < s < t (lags below 1 for the
    logarithmic kernel): the one per-kind formula of the kernel."""
    t, s = np.asarray(t, float), np.asarray(s, float)
    kind = _kind(kernel)
    if kind == BROWNIAN:
        return np.ones(np.broadcast_shapes(t.shape, s.shape))
    if kind == RIEMANN_LIOUVILLE:
        return (t - s) ** (kernel.hurst - 0.5) / math.gamma(kernel.hurst + 0.5)
    if kind == MOLCHAN_GOLOSOV:
        return _mg_values(kernel.hurst, s, t - s)
    if kind == LOGARITHMIC:
        lag = t - s
        return np.sqrt(kernel.beta / lag * np.log(1.0 / lag) ** (-kernel.beta - 1.0))
    return _table_value(kernel.table, t, s)


def eval_kernel(kernel: KernelSpec, t: float, s: float) -> float:
    """K(t, s); zero whenever s >= t (Volterra convention, also at singular
    diagonal points where quadrature routines substitute cell-exact masses).
    The Molchan-Golosov kernel reads 0 (H <= 1/2) or inf (H > 1/2) at s <= 0;
    the logarithmic kernel raises InvalidKernelError for lags >= 1."""
    t = float(t)
    s = float(s)
    if s >= t:
        return 0.0
    if kernel.kind == MOLCHAN_GOLOSOV and s <= 0.0:
        return math.inf if kernel.hurst > 0.5 else 0.0
    if kernel.kind == LOGARITHMIC and t - s >= 1.0:
        raise InvalidKernelError("logarithmic kernel is defined for lags < 1")
    return float(_kernel_values(kernel, t, s))


# ---------------------------------------------------------------------------
# cached grid machinery
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _row_values(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """K(t_i, t_j) for j < i, zero elsewhere.  The diagonal holds the left
    limit where it is finite: 1 for brownian (and so for H = 1/2), 0 for
    Riemann-Liouville with H > 1/2, the table's value for tabulated kernels;
    a singular diagonal holds 0.  The s = 0 column of Molchan-Golosov holds
    the ``eval_kernel`` value there, 0 for H < 1/2 and inf for H > 1/2."""
    n = grid.n_steps
    nodes = grid.nodes
    kind = _kind(kernel)
    if kind == LOGARITHMIC and grid.horizon >= 1.0:
        raise AdmissibilityError(
            "logarithmic kernel slices are square integrable only for t < 1; "
            "use a grid with horizon < 1"
        )
    i, j = np.tril_indices(n + 1, 0 if kind in (BROWNIAN, TABULATED) else -1)
    if kind == MOLCHAN_GOLOSOV:
        i, j = i[j > 0], j[j > 0]
    out = np.zeros((n + 1, n + 1))
    out[i, j] = _kernel_values(kernel, nodes[i], nodes[j])
    out[0, 0] = 0.0
    if kind == MOLCHAN_GOLOSOV:
        out[1:, 0] = 0.0 if kernel.hurst < 0.5 else np.inf
    return out


def _rl_cell_moments(h: float, dt: float, n: int):
    """Exact integrals of the Riemann-Liouville kernel against 1 and (s - a)
    over the cell [a, b] = [t - L dt, t - (L-1) dt] of lag index L >= 1:
      I0[L] = int K(t, s) ds,   I1[L] = int K(t, s) (s - a) ds."""
    g = math.gamma(h + 0.5)
    a1 = h + 0.5
    a2 = h + 1.5
    A = np.arange(1, n + 1) * dt  # t - a
    B = A - dt  # t - b
    i0 = (A**a1 - B**a1) / a1 / g
    i1 = (A * (A**a1 - B**a1) / a1 - (A**a2 - B**a2) / a2) / g
    return i0, i1


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


def _cells(kernel: KernelSpec, grid: TimeGrid):
    """The cell rule behind ``quad_weights`` and ``pc_weights``: (i, j, left,
    right, mass) over the cells [t_j, t_{j+1}] of the rows i > j.  Against a
    piecewise linear co-factor, cell j of row i puts ``left`` on node j and
    ``right`` on node j + 1; ``mass`` is its integral of K(t_i, .).  Closed
    form for Riemann-Liouville; the exact mass, on the left node, for the
    logarithmic diagonal cell; exact moments for Molchan-Golosov (unbounded
    s-derivative at s = 0 and s = t) on the cells within 4 of either end of
    a row; the trapezoid rule elsewhere."""
    n, dt = grid.n_steps, grid.dt
    kind = _kind(kernel)
    i, j = np.tril_indices(n + 1, -1)
    if kind == RIEMANN_LIOUVILLE:
        i0, i1 = _rl_cell_moments(kernel.hurst, dt, n)
        lag = i - j - 1
        return i, j, (i0 - i1 / dt)[lag], (i1 / dt)[lag], i0[lag]
    rows = _row_values(kernel, grid)
    left, right = dt / 2 * rows[i, j], dt / 2 * rows[i, j + 1]
    mass = dt / 2 * (rows[i, j] + rows[i, j + 1])
    if kind == LOGARITHMIC:
        from scipy import integrate  # loaded on first use: rare and slow to import

        tau = lambda x: eval_kernel(kernel, x, 0.0)  # the kernel at lag x
        diag = j == i - 1
        left[diag] = mass[diag] = integrate.quad(tau, 0.0, dt, limit=200)[0]
        right[diag] = 0.0
    elif kind == MOLCHAN_GOLOSOV:
        band = (j < 4) | (i - 1 - j < 4)
        m0, m1, _ = _mg_cell_moments(kernel.hurst, grid, i[band], j[band])
        left[band], right[band], mass[band] = m0 - m1 / dt, m1 / dt, m0
    return i, j, left, right, mass


@functools.lru_cache(maxsize=128)
def quad_weights(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular W with (Kf)(t_i) ~= sum_j W[i, j] f(t_j): the cells
    of ``_cells`` against a piecewise linear co-factor, exact on the
    Riemann-Liouville class."""
    n = grid.n_steps
    i, j, left, right, _ = _cells(kernel, grid)
    W = np.zeros((n + 1, n + 1))
    W[i, j] = left
    W[i, j + 1] += right
    return W


@functools.lru_cache(maxsize=128)
def pc_weights(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Cell masses M[i, j] = int_{t_j}^{t_{j+1}} K(t_i, s) ds for j < i, from
    ``_cells``, against piecewise-constant (left-value) co-factors such as
    the path-wise Euler quadrature of the volatility convolution.

    Except for Molchan-Golosov: there M[i, j] is the ``quad_weights`` weight
    of node j, the diagonal node's added to the last cell, so node weights
    shifted half a cell, not cell masses (near H = 1/2 a row reads
    [0.5, 1, ..., 1, 1.5] dt where every cell mass is dt).
    """
    n = grid.n_steps
    if _kind(kernel) == MOLCHAN_GOLOSOV:
        diag = np.arange(1, n + 1)
        W = quad_weights(kernel, grid)
        M = np.tril(W[:, :n], -1)
        M[diag, diag - 1] += W[diag, diag]
        return M
    i, j, _, _, mass = _cells(kernel, grid)
    M = np.zeros((n + 1, n))
    M[i, j] = mass
    return M


@functools.lru_cache(maxsize=128)
def rms_weights(kernel: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """R[i, j] = sqrt(int_cell K(t_i, s)^2 ds / dt).

    Convolving R against independent increments of variance dt reproduces the
    slice variance of the kernel on every row: exactly for the Brownian
    kernel and the convolution kernels (Riemann-Liouville, logarithmic), whose
    cells are differences of ``slice_variance`` at consecutive lags, up to
    the trapezoid rule on the interior cells for the Molchan-Golosov and
    tabulated kernels.  The diagonal cell j = i - 1 takes the left limit
    K(t_i, t_i-), not the Volterra zero: closed form for Molchan-Golosov with
    H < 1/2, the batched cell rule for H > 1/2 (as on the first cell), and
    the diagonal of ``_row_values`` for tabulated kernels.
    """
    n = grid.n_steps
    dt = grid.dt
    kind = _kind(kernel)
    R = np.zeros((n + 1, n))
    i, j = np.tril_indices(n + 1, -1)
    if kind in (RIEMANN_LIOUVILLE, LOGARITHMIC):  # cells by lag i - j - 1
        cell = np.diff([slice_variance(kernel, x) for x in np.arange(n + 1) * dt])[i - j - 1]
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
        val = t ** (2 * h) / (2 * h * math.gamma(h + 0.5) ** 2)
    elif kernel.kind == LOGARITHMIC:
        if t >= 1.0:
            raise AdmissibilityError(
                "logarithmic kernel slice is not square integrable for t >= 1"
            )
        val = math.log(1.0 / t) ** (-kernel.beta)
    elif kernel.kind == MOLCHAN_GOLOSOV:  # the kernel of fBM: its variance t^(2H)
        val = t ** (2 * kernel.hurst)
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
    computed through the decomposition V_i + V_j - 2 * cross(i, j).  The
    cross term of t_j > 0 is the trapezoid of the product on [0, t_{j-1}]
    plus the diagonal cell of the j-slice integrated exactly against the
    midpoint value of the i-slice; all pairs are formed at once.
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
    # trapezoid weights on the nodes of [0, t_{j-1}], one row per j
    half = 0.5 * np.diff(nodes)
    k, j = np.arange(n + 1), np.arange(n + 1)[:, None]
    weights = np.where(k <= j - 1, np.concatenate([[0.0], half]), 0.0) + np.where(
        k <= j - 2, np.concatenate([half, [0.0]]), 0.0
    )
    # a non-finite value inside a trapezoid (the s = 0 column of
    # Molchan-Golosov, H > 1/2) voids the pair
    bad = ~np.isfinite(rows)
    reads = weights > 0.0
    finite = np.where(bad, 0.0, rows)
    trap = finite @ (weights * finite).T
    void = (bad @ reads.T) | np.any(bad & reads, axis=1)
    i, j = np.tril_indices(n + 1, -1)
    near = i - j <= width
    i, j = i[near], j[near]
    cross = trap[i, j]
    cell = j > 0
    ic, jc = i[cell], j[cell]
    mid = _kernel_values(kernel, nodes[ic], 0.5 * (nodes[jc - 1] + nodes[jc]))
    cross[cell] += pc[jc, jc - 1] * mid
    vals = np.where(void[i, j], -np.inf, V[i] + V[j] - 2.0 * cross)
    return float(max(np.nanmax(vals), 0.0))


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
