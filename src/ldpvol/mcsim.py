"""Monte Carlo simulation of the scaled models and empirical verification
that -eps * log(probabilities / prices) approach the computed decay rates.

Volatility paths come from the skeleton's own scheme (``volmap.vol_state``)
driven by ``sqrt(eps) * dB``; the Gaussian convolution uses the per-cell
root-mean-square weights, which reproduce the slice variance of the kernel on
every grid row, exactly for the Brownian, Riemann-Liouville and logarithmic
kernels and up to the trapezoid rule on the interior cells of K^2 for
Molchan-Golosov and tabulated ones.  Log-prices run the functional's step
(``ratefn._phi_increment``) at every node, Ito term included, driven by
sqrt(eps) (rho_bar dW + rho dB) / dt.  Exit runs take their faces and window
from ``pricing``, as the exit rate does, and keep a running hit flag per
path, not whole paths.  One block scheduler (``_run_blocks``) serves every
entry point and opens at most one thread pool per call, which runs blocks in
parallel (a one-block run uses one thread).  Every block of ``BLOCK_SIZE``
= 2^13 paths (the last one shorter) owns an SFC64 substream keyed by
``SeedSequence([seed, 0, block index])``; its noise is drawn once and the
whole epsilon ladder runs on it, as
X^eps = Phi(sqrt(eps) W) is one family driven by one W (common random
numbers).  Rows of a ladder report are therefore correlated across epsilon,
while each row is unbiased and its standard error is honest on its own.
Estimates are bit-identical no matter how blocks are scheduled across
workers; SFC64's 256-bit state carries a 64-bit counter, and
SeedSequence-hashed starting states make overlap between substreams
negligible in practice.  Each worker thread reuses its buffers for every
block it runs.  The price noise dW follows the driver noise dB in the same
stream, drawn in chunks of ``MIX_ROWS`` paths; each chunk is mixed with its
paths of dB, node-major, as the functional's ``ratefn._phi_drive`` mixes
them (for m = 1 in place, in the chunk and over the parked dB, with no
temporary of a chunk's size; for m > 1 by ``_phi_drive`` itself), and
stored in the per-worker drive buffer, which every epsilon of the ladder
reads one contiguous row of per node.  The vol spec picks one of three
block kinds:

- A constant vol (unreflected Gaussian with every noise kernel None, as
  bs_const, ``volmap.is_constant``) is its offset y, so b and sigma are the
  same for every path; they are the skeleton's coefficients at the zero
  control (``ratefn._coefficients``), evaluated once on the n nodes, not per
  path, and no vol part is built or kept.  dB is drawn only if the price reads it
  (``model.C`` nonzero), in chunks parked in the drive buffer as below;
  otherwise the block draws dW alone and mixes it with zero driver noise.
  Right after mixing, the drive is turned in place into its running sum
  R_k = sum_{j <= k} sigma_j drive_j (``_running_noise``), and each
  epsilon's displacement is X_{k+1} - x0 = D_k(eps) + sqrt(eps) R_k, D(eps)
  being the cumulative sum of the functional's step at zero drive: a tail
  or call ladder reads one row, kept paths two array operations per node.
  For m = 1 an exit face is a threshold on R: a x >= c at node k + 1 holds
  where R_k >= theta_k (a > 0) or R_k <= theta_k (a < 0), tested on slices
  of R up to the deadline with no x formed.  The node loop's test
  fl(fl(fl(sqrt(eps) R) + D_k) a) >= c is monotone in R (every rounding is
  nondecreasing), so the float theta_k where it flips is found once per
  epsilon and face by bisection (``_face_thresholds``) and the hit flags
  are the per-node test's, bit for bit.  The block holds one block array,
  the drive.
- An affine vol (the other unreflected Gaussian families, the toy model's
  Brownian kernel included, ``volmap.is_affine``) has
  vol_state(sqrt(eps) dB) = y + sqrt(eps) L(dB), y being the spec's own
  ``y`` (the vol at zero noise).  dB is drawn in chunks of ``MIX_ROWS``
  paths: each chunk goes through ``vol_state`` once per block,
  L = vol_state(dB) - y at the left nodes is stored node-major in a second
  per-worker buffer, and the chunk itself is parked node-major in the
  drive buffer until its dW is mixed in.  The block holds two block
  arrays, the drive and L, each BLOCK_SIZE x n x 8 bytes for m = d = 1
  (26 MB at n = 400); each epsilon forms the row y + sqrt(eps) L[k] at
  node k.
- Every other vol (fractional, mixed, reflected, volterra_sde, and any
  reflected output) draws dB whole into a per-worker buffer, scaled in
  place, and builds its whole vol block from sqrt(eps) dB per epsilon,
  read through the same per-node accessor; the block holds dB and the
  drive.

The kinds agree to rounding: the constant kind's displacements lie within
rounding of the node loop, and toy_sabr and the Gaussian ones are only
statistically equal to the per-epsilon scheme.
Antithetic blocks draw the first half of the rows and write its negation
into the rest, of dB, of the (linear) drive or its running sum and of L
alike.  Block functions must neither write to these buffers nor return a
view of them.
Payoff moments are merged per block, in block order, from (count, mean, sum
of squared deviations) (Chan, Golub & LeVeque), each mean held as a pivot
(the block's first payoff) plus an offset so that merges lose no precision
to the payoffs' common level, and each report carries its hit counts.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels as _k
from .errors import ConvergenceError, DimensionError, DomainError, require_number
from .paths import TimeGrid
from .pricing import ExitDomain, call_asymptote, exit_asymptote, exit_window
from .ratefn import ModelSpec, _coefficients, _phi_drive, _phi_increment, _sigma_drive, inf_tail
from .volmap import (
    BLOWUP_LIMIT, VolProcessSpec, is_affine, is_constant, output_map, vol_state,
)

BLOCK_SIZE = 1 << 13
MIX_ROWS = 256  # paths of price noise drawn and mixed at a time
RNG_SCHEME = "SFC64(SeedSequence([seed, 0, block index])), one draw per block for the whole ladder"


@dataclass
class SimConfig:
    model: ModelSpec
    epsilon_ladder: list
    n_paths: int
    grid: TimeGrid
    seed: int
    antithetic: bool = False
    max_workers: int = 1

    def __post_init__(self):
        if not isinstance(self.epsilon_ladder, (list, tuple)):
            raise DomainError(f"epsilon ladder must be a list, got {self.epsilon_ladder!r}")
        lad = [float(require_number(e, "epsilon ladder entry")) for e in self.epsilon_ladder]
        if not lad or any(not 0.0 < e <= 1.0 for e in lad):
            raise DomainError("epsilon ladder entries must lie in (0, 1]")
        if any(b >= a for a, b in zip(lad, lad[1:])):
            raise DomainError("epsilon ladder must be strictly decreasing")
        self.epsilon_ladder = lad
        self.n_paths = int(require_number(self.n_paths, "n_paths", numbers.Integral))
        if self.n_paths < 1:
            raise DomainError("n_paths must be positive")
        if self.n_paths < 1000:
            import warnings

            warnings.warn("fewer than 1000 paths: estimator noise will dominate")
        self.seed = int(require_number(self.seed, "seed", numbers.Integral))
        self.max_workers = int(require_number(self.max_workers, "max_workers", numbers.Integral))
        if self.max_workers < 1:
            raise DomainError("max_workers must be positive")


@dataclass
class McRow:
    epsilon: float
    estimate: float
    eps_log_estimate: float
    std_error: float
    n_effective: int
    zero_hits: bool = False

    def to_json_obj(self):
        return {
            "epsilon": self.epsilon,
            "estimate": self.estimate,
            "eps_log_estimate": self.eps_log_estimate,
            "std_error": self.std_error,
            "n_effective": self.n_effective,
            "zero_hits": self.zero_hits,
        }


@dataclass
class McReport:
    quantity: str
    rows: list
    reference_rate: float
    diagnostics: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "quantity": self.quantity,
            "reference_rate": self.reference_rate,
            "rows": [r.to_json_obj() for r in self.rows],
            "diagnostics": self.diagnostics,
        }

    def to_csv(self, filename):
        import csv

        with open(filename, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["epsilon", "estimate", "eps_log_estimate", "std_error", "n_effective", "zero_hits"]
            )
            for r in self.rows:
                w.writerow(
                    [r.epsilon, r.estimate, r.eps_log_estimate, r.std_error, r.n_effective, int(r.zero_hits)]
                )


# ---------------------------------------------------------------------------
# counter-based substreams and block scheduling
# ---------------------------------------------------------------------------


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The substream of one block: SFC64 seeded by
    ``SeedSequence([seed mod 2^64, 0, block index])``.

    SeedSequence hashes the whole key into the 256-bit SFC64 state, whose
    64-bit counter alone guarantees a period of at least 2^64 draws, so the
    substreams of distinct keys do not overlap in practice.
    """
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0, block_index])
    return np.random.Generator(np.random.SFC64(ss))


def _draw_increments(rng, out, dt, antithetic):
    """Fill ``out`` (size, n, m) with Brownian increments of variance dt.

    Antithetic blocks draw the first ceil(size/2) rows and write their
    negation into the rest, as ``concatenate([z, -z])[:size]`` would.
    """
    s = math.sqrt(dt)
    size = out.shape[0]
    half = (size + 1) // 2 if antithetic else size
    rng.standard_normal(out=out[:half])
    out[:half] *= s
    np.negative(out[: size - half], out=out[half:])


def _draw_drive(rng, model, grid, db, drive, lin, antithetic):
    """Draw a block's price noise dW and write, node-major,
    ``_phi_drive(model, dW, dB)`` into ``drive`` (n, size, ...) and, for an
    affine vol, the eps-free vol part ``vol_state(dB) - model.vol.y`` at the
    left nodes into ``lin`` (n, size, d).

    ``db`` is the block's driver noise dB, drawn already, or None for an
    affine or constant vol: then the first chunk loop draws dB ``MIX_ROWS``
    paths at a time, runs each chunk through ``vol_state`` into ``lin``
    (affine vol only; ``lin`` is None for a constant one) and parks it
    node-major in ``drive``.  A constant vol with ``model.C`` zero reads no
    dB, so none is drawn and dW is mixed with zero driver noise.  The second
    loop draws dW in chunks and mixes each with its columns of dB, parked or
    whole-block, node-major: for m = 1 in place, rho_bar dW in the chunk
    and rho dB over the drive's columns, so no chunk-sized temporary is
    made; for m > 1 by ``ratefn._phi_drive``.  A constant vol's drive
    then becomes its running sum (``_running_noise``).  The chunks keep the stream order of
    whole-block fills (dB, then dW); antithetic blocks fill the first
    ceil(size/2) rows and write the negation into the rest (every part is
    linear in the noise, and negation is exact).
    """
    size, n = drive.shape[1], grid.n_steps
    half = (size + 1) // 2 if antithetic else size
    chunk = np.empty((min(MIX_ROWS, half), n, model.vol.m))
    if db is not None:
        park = np.swapaxes(db, 0, 1)
    elif is_constant(model.vol) and not model.C.any():  # nothing reads dB
        park = None
    else:
        park = drive[..., None] if model.m == 1 else drive
        for r0 in range(0, half, MIX_ROWS):
            rows = min(MIX_ROWS, half - r0)
            _draw_increments(rng, chunk[:rows], grid.dt, False)
            if lin is not None:
                vals = vol_state(model.vol, chunk[:rows], grid, _k.rms_weights)[:, :-1]
                lin[:, r0 : r0 + rows] = np.swapaxes(vals - model.vol.y, 0, 1)
            park[:, r0 : r0 + rows] = np.swapaxes(chunk[:rows, :, : park.shape[-1]], 0, 1)
        if lin is not None:
            np.negative(lin[:, : size - half], out=lin[:, half:])
    zero = np.zeros((1, model.m))
    for r0 in range(0, half, MIX_ROWS):
        rows = min(MIX_ROWS, half - r0)
        _draw_increments(rng, chunk[:rows], grid.dt, False)
        cols = drive[:, r0 : r0 + rows]
        if model.m > 1:
            f = zero if park is None else park[:, r0 : r0 + rows]
            cols[...] = _phi_drive(model, np.swapaxes(chunk[:rows], 0, 1), f)
        elif park is None:  # nothing reads dB: rho_bar dW, formed in the chunk
            cols[...] = np.multiply(chunk[:rows, :, 0], model.rho_bar, out=chunk[:rows, :, 0]).T
        else:  # rho dB written over the parked dB, plus rho_bar dW formed in the chunk
            np.multiply(park[:, r0 : r0 + rows, 0], model.rho, out=cols)
            cols += np.multiply(chunk[:rows, :, 0], model.rho_bar, out=chunk[:rows, :, 0]).T
    if is_constant(model.vol):
        _running_noise(model, grid, drive[:, :half])
    np.negative(drive[:, : size - half], out=drive[:, half:])


def _running_noise(model, grid, drive):
    """Turn a constant vol's node-major drive (n, size, ...), in place, into
    its running sigma-weighted sum R_k = sum_{j <= k} sigma_j drive_j, one
    row at a time (a cumulative sum along the node axis is several times
    slower on a block); an m = 1 row is scaled in place."""
    _, sig = _coefficients(model, grid, np.zeros((grid.n_steps, model.m)))
    for k, row in enumerate(drive):
        if model.m == 1:
            row *= sig[k]
        else:
            row[...] = _sigma_drive(model, sig[k], row)
        if k:
            row += drive[k - 1]


def _run_blocks(block_fn, epsilons, n_paths, grid, m, seed, antithetic, workers=1, model=None):
    """The block scheduler: draw each block's noise once, then run
    ``block_fn(epsilon, db, drive, lin)`` on it for every epsilon in order.

    Returns one sequence of block results per epsilon, in block order.
    Blocks hold ``BLOCK_SIZE`` paths, the last one the remainder.  All
    epsilons share each block's noise (common random numbers); each block
    draws from its own substream, so results do not depend on ``workers``,
    and the pool runs blocks, so a one-block run uses one thread.  The driver
    noise dB (size, n, m) is drawn first.  With a ``model`` given, the price
    noise dW follows from the same substream in chunks of ``MIX_ROWS``
    paths, in stream order, and ``drive`` is ``_phi_drive(model, dW, dB)``
    stored node-major, (n, size) for m = 1, else (n, size, m), so each node
    reads one contiguous row.  ``model.vol`` picks the block kind:

    - constant (``volmap.is_constant``): ``db`` and ``lin`` are None and the
      vol is y; dB is drawn in chunks and parked in ``drive`` until its dW
      is mixed in if ``model.C`` is nonzero, and not drawn at all otherwise
      (the drive is then ``_phi_drive(model, dW, 0)``); ``drive`` holds its
      running sigma-weighted sum (``_running_noise``).  A worker holds one
      block array, ``drive``.
    - affine (``volmap.is_affine``): vol_state(sqrt(eps) dB) is
      y + sqrt(eps) L(dB), and ``lin`` is L(dB) at the left nodes, stored
      node-major, (n, size, d); dB is drawn in chunks, each chunk run
      through ``vol_state`` into ``lin`` and parked in ``drive``, so a
      worker holds two block arrays, ``drive`` and ``lin``,
      2 x BLOCK_SIZE x n x 8 bytes for m = d = 1, and ``db`` is None.
    - any other: the whole-block ``db`` (size, n, m) and, with a model,
      ``drive``; ``lin`` is None and each epsilon builds its own vol block.

    Antithetic blocks negate the second half of each.  Without a ``model``
    no price noise is drawn, dB is drawn whole and ``drive`` and ``lin`` are
    None.  ``db``, ``drive`` and ``lin`` are views of buffers that each
    worker thread reuses for every block and epsilon, so a block function
    must neither write to them nor return a view of them.
    """
    n_paths = int(n_paths)
    sizes = [min(BLOCK_SIZE, n_paths - start) for start in range(0, n_paths, BLOCK_SIZE)]
    whole = model is None or not is_affine(model.vol)  # dB drawn whole and kept
    keep_lin = not whole and not is_constant(model.vol)
    local = threading.local()

    def run(b):
        if not hasattr(local, "db"):
            local.db = np.empty((sizes[0], grid.n_steps, m)) if whole else None
            if model is not None:
                tail = () if model.m == 1 else (model.m,)
                local.drive = np.empty((grid.n_steps, sizes[0]) + tail)
            if keep_lin:
                local.lin = np.empty((grid.n_steps, sizes[0], model.vol.d))
        rng = _block_rng(seed, b)
        db = drive = lin = None
        if whole:
            db = local.db[: sizes[b]]
            _draw_increments(rng, db, grid.dt, antithetic)
        if model is not None:
            drive = local.drive[:, : sizes[b]]
            lin = local.lin[:, : sizes[b]] if keep_lin else None
            _draw_drive(rng, model, grid, db, drive, lin, antithetic)
        return [block_fn(float(eps), db, drive, lin) for eps in epsilons]

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(zip(*ex.map(run, range(len(sizes)))))
    return list(zip(*map(run, range(len(sizes)))))


# ---------------------------------------------------------------------------
# volatility-path simulation
# ---------------------------------------------------------------------------


def _finite_rows(a):
    """Rows (paths) whose values are all finite and below ``BLOWUP_LIMIT``."""
    return np.all(np.abs(a) < BLOWUP_LIMIT, axis=tuple(range(1, a.ndim)))


def _check_epsilon(epsilon):
    """Reject a negative or non-finite epsilon before anything is drawn."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be finite and nonnegative, got {epsilon}")


def _vol_block(spec: VolProcessSpec, db, grid, epsilon):
    """The skeleton's scheme driven by sqrt(eps) dB, Gaussian part on the
    root-mean-square rms_weights."""
    incr = math.sqrt(epsilon) * db
    return output_map(spec, vol_state(spec, incr, grid, _k.rms_weights))


def _vol_nodes(spec: VolProcessSpec, grid, epsilon, db, lin):
    """Accessor of the left-node vol rows: ``vol(k)`` is (size, d) at node k.

    With the block's eps-free part ``lin`` (n, size, d) of an affine vol,
    row k is y + sqrt(eps) lin[k], formed in one reused buffer (valid until
    the next call); otherwise it is a column of this epsilon's whole vol
    block.
    """
    if lin is None:
        paths = _vol_block(spec, db, grid, epsilon)
        return lambda k: paths[:, k, :]
    scale, row = math.sqrt(epsilon), np.empty(lin.shape[1:])

    def vol(k):
        np.multiply(lin[k], scale, out=row)
        return np.add(row, spec.y, out=row)

    return vol


@dataclass
class VolEnsemble:
    paths: np.ndarray  # (n_paths, n+1, d)
    n_excluded: int


def simulate_vol(
    spec: VolProcessSpec,
    epsilon: float,
    n_paths: int,
    grid: TimeGrid,
    seed: int,
    antithetic: bool = False,
) -> VolEnsemble:
    """Ensemble of volatility paths for the scaled model at one epsilon."""
    _check_epsilon(epsilon)

    def block(eps, db, drive, lin):
        vals = _vol_block(spec, db, grid, eps)
        ok = _finite_rows(vals)
        return vals[ok], int(np.sum(~ok))

    (results,) = _run_blocks(block, [epsilon], n_paths, grid, spec.m, int(seed), antithetic)
    return VolEnsemble(
        np.concatenate([r[0] for r in results], axis=0), sum(r[1] for r in results)
    )


# ---------------------------------------------------------------------------
# log-price simulation
# ---------------------------------------------------------------------------


def _logprice_block(model: ModelSpec, grid, epsilon, db, drive, lin=None, watch=None):
    """Terminal log-price displacement X_T - x0 per path and the finite mask.

    ``drive`` is the price noise mixed by ``_phi_drive``, node-major: row k
    is the (size,) or (size, m) drive of step k; for a constant vol it is
    the running sum R of ``_running_noise``, and ``db`` and ``lin`` are not
    read (see ``_constant_logprice``).  ``lin`` is the block's eps-free vol
    part of an affine vol, and ``db`` may then be None; else ``lin`` is None
    and the vol is built from ``db`` (see ``_run_blocks``).  ``watch(k, x)``
    sees the displacement at every node k = 1..n on the way."""
    if is_constant(model.vol):
        return _constant_logprice(model, grid, epsilon, drive, watch)
    vol = _vol_nodes(model.vol, grid, epsilon, db, lin)
    scale = math.sqrt(epsilon) / grid.dt
    x = np.zeros((drive.shape[1], model.m))
    noise = np.empty(drive.shape[1:])
    for k, t in enumerate(grid.nodes[:-1]):
        u = vol(k)
        b, sig = model.drift_values(t, u), model.sigma_values(t, u)
        np.multiply(drive[k], scale, out=noise)
        x += _phi_increment(model, b, sig, noise, grid.dt, epsilon)
        if watch is not None:
            watch(k + 1, x)
    return x, _finite_rows(x)


def _constant_logprice(model: ModelSpec, grid, epsilon, running, watch=None):
    """``_logprice_block`` of a constant vol, whose displacement is affine in
    the noise: X_{k+1} - x0 = D_k(eps) + sqrt(eps) R_k, with R the block's
    running sum (``_running_noise``) and D(eps) its shift
    (``_constant_shift``).  ``running`` may be the first rows of R alone:
    the displacement is formed at their nodes, or without a ``watch`` at
    the last of them only."""
    shift = _constant_shift(model, grid, epsilon)
    rows = running[..., None] if model.m == 1 else running
    scale = math.sqrt(epsilon)
    x = np.empty(rows.shape[1:])
    for k in range(len(rows)) if watch is not None else [len(rows) - 1]:
        np.multiply(rows[k], scale, out=x)
        x += shift[k]
        if watch is not None:
            watch(k + 1, x)
    return x, _finite_rows(x)


def _constant_shift(model: ModelSpec, grid, epsilon):
    """D(eps) (n, m) of a constant vol: the cumulative sum of the
    functional's step at zero drive (drift and Ito terms, shared by every
    path)."""
    b, sig = _coefficients(model, grid, np.zeros((grid.n_steps, model.m)))
    zero = np.zeros(b.shape if model.m > 1 else b.shape[:-1])
    return np.cumsum(_phi_increment(model, b, sig, zero, grid.dt, epsilon), axis=0)


_INF_KEY = 0x7FF0000000000000  # the bits of +inf, the largest ordered key
FACE_NODES = 16  # rows of the running sum compared with their thresholds at a time


def _from_key(key):
    """The float64 of each ordered int64 key: keys 0..``_INF_KEY`` are the
    bits of +0.0 up to +inf, a negative key -j is the negated float of key
    j, and one past either end is a NaN."""
    return np.where(key >= 0, key, -key | np.int64(-(1 << 63))).view(np.float64)


def _face_thresholds(scale, shift, a, c):
    """Exact thresholds of a face test on the running sum of a constant vol.

    The test at a node is fl(fl(fl(scale R) + shift) a) >= c, the face
    a x >= c of the displacement as the node loop forms it, with scale > 0
    and shift finite.  Each rounding is nondecreasing, so the test is
    monotone in R, increasing for a > 0 and decreasing for a < 0: it holds
    exactly where R >= theta (a > 0) or R <= theta (a < 0), theta the least
    or greatest float where it holds.  A bisection over the floats ordered
    as integers finds theta in 64 halvings, so the two tests agree bit for
    bit on every float R, signed infinities included; NaN passes neither.
    theta is -inf or +inf where every R, or only an infinite one, passes,
    and NaN where none does.  The arguments broadcast together.
    """
    scale, shift, a, c = np.broadcast_arrays(*(np.asarray(v, float) for v in (scale, shift, a, c)))
    up = a > 0
    lo = np.full(a.shape, -_INF_KEY - 1)  # below -inf: passes iff a < 0
    hi = np.full(a.shape, _INF_KEY + 1)  # above +inf: passes iff a > 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.any(lo < hi - 1):
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # the midpoint, floored, without overflow
            on_hi = ((_from_key(mid) * scale + shift) * a >= c) == up  # mid is on hi's side
            hi = np.where(on_hi, mid, hi)
            lo = np.where(on_hi, lo, mid)
    return _from_key(np.where(up, hi, lo))


def _exit_thresholds(model: ModelSpec, grid, epsilons, faces, last):
    """{eps: theta (faces, last)} of a constant vol with m = 1: the face
    a x >= c at node k + 1 <= ``last`` holds where R_k >= theta_k (a > 0)
    or R_k <= theta_k (a < 0), exactly (``_face_thresholds``), R being the
    block's running sum and X_{k+1} - x0 = D_k(eps) + sqrt(eps) R_k."""
    shifts = np.stack([_constant_shift(model, grid, eps)[:last, 0] for eps in epsilons])
    scales = np.array([math.sqrt(eps) for eps in epsilons])
    a = np.array([a[0] for a, _ in faces])[:, None]
    c = np.array([c for _, c in faces])[:, None]
    theta = _face_thresholds(scales[:, None, None], shifts[:, None], a, c)
    return dict(zip(epsilons, theta))


@dataclass
class LogPriceSamples:
    terminal: np.ndarray  # (n_valid, m) displacements X_T - x0
    n_excluded: int
    paths: np.ndarray | None = None


def simulate_logprice(cfg: SimConfig, epsilon: float, keep_paths: bool = False) -> LogPriceSamples:
    """Terminal displacement samples for one epsilon (optionally full paths).

    The same Brownian driver feeds the volatility path and the correlated
    part of the price noise.
    """
    _check_epsilon(epsilon)

    def block(eps, db, drive, lin):
        size = (drive.shape[1], cfg.grid.n_steps + 1, cfg.model.m)
        paths = np.zeros(size) if keep_paths else None

        def keep(k, x):
            paths[:, k, :] = x

        x, ok = _logprice_block(
            cfg.model, cfg.grid, eps, db, drive, lin, keep if keep_paths else None
        )
        return x[ok], paths[ok] if keep_paths else None, int(np.sum(~ok))

    (results,) = _run_blocks(
        block, [epsilon], cfg.n_paths, cfg.grid, cfg.model.vol.m,
        cfg.seed, cfg.antithetic, cfg.max_workers, cfg.model,
    )
    return LogPriceSamples(
        np.concatenate([r[0] for r in results], axis=0),
        sum(r[2] for r in results),
        np.concatenate([r[1] for r in results], axis=0) if keep_paths else None,
    )


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


class _Moments(NamedTuple):
    """Payoff count, sum, mean as pivot + offset, sum of squared deviations
    and hit count.

    The pivot is a block's first payoff and the offset the mean of the
    payoffs less the pivot, so deviations are taken from exact differences
    and a merge takes the difference of two pivots exactly, however large
    the payoffs' common level is against their spread."""

    n: int
    total: float
    pivot: float
    offset: float
    m2: float
    hits: int

    @staticmethod
    def of(vals) -> "_Moments":
        vals = np.asarray(vals, float)
        if vals.size == 0:
            return _Moments(0, 0.0, 0.0, 0.0, 0.0, 0)
        pivot = float(vals.flat[0])
        dev = vals - pivot
        offset = float(np.mean(dev))
        return _Moments(
            vals.size, float(np.sum(vals)), pivot, offset, float(np.sum((dev - offset) ** 2)),
            int(np.count_nonzero(vals)),
        )

    def merge(self, other: "_Moments") -> "_Moments":
        """Pairwise update of Chan, Golub & LeVeque: no E[X^2] - E[X]^2.
        The merged mean keeps this side's pivot."""
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = (other.pivot - self.pivot) + (other.offset - self.offset)
        return _Moments(
            n,
            self.total + other.total,
            self.pivot,
            self.offset + delta * other.n / n,
            self.m2 + other.m2 + delta**2 * self.n * other.n / n,
            self.hits + other.hits,
        )


def _reduce_report(cfg, quantity, per_eps_stats, reference_rate, diagnostics=None):
    rows = []
    for eps, mom in zip(cfg.epsilon_ladder, per_eps_stats):
        n_eff = mom.n
        mean = mom.total / n_eff if n_eff else 0.0
        var = mom.m2 / n_eff if n_eff else 0.0
        se = math.sqrt(var / n_eff) if n_eff else math.inf
        zero = mean <= 0.0
        eps_log = math.inf if zero else -eps * math.log(mean)
        # delta method on the log scale
        se_log = math.inf if zero else eps * se / mean
        rows.append(
            McRow(
                epsilon=eps,
                estimate=mean,
                eps_log_estimate=eps_log,
                std_error=se_log,
                n_effective=n_eff,
                zero_hits=zero,
            )
        )
    if all(r.zero_hits for r in rows):
        raise ConvergenceError(
            "no hits at any ladder epsilon; increase n_paths or soften the event"
        )
    return McReport(
        quantity=quantity,
        rows=rows,
        reference_rate=reference_rate,
        diagnostics={
            **(diagnostics or {}),
            "hits": [mom.hits for mom in per_eps_stats],
            "provenance": {
                "rng": RNG_SCHEME, "seed": cfg.seed, "block_size": BLOCK_SIZE,
                "workers": cfg.max_workers,
            },
        },
    )


def _per_eps_payoff_stats(cfg, payoff_fn, watcher=None):
    """Payoff ``_Moments`` per ladder entry, merged over blocks in block order
    (the estimate is the plain sum over the count, as before the merge).

    ``payoff_fn(x, seen)`` gets the finite paths' terminal displacements and,
    with a ``watcher``, their rows of what it saw on the way:
    ``watcher(eps, drive)`` returns ``(seen, watch)``, and ``watch(k, x)``,
    unless None, runs at every node.
    """

    def block(eps, db, drive, lin):
        seen, watch = watcher(eps, drive) if watcher else (None, None)
        x, ok = _logprice_block(cfg.model, cfg.grid, eps, db, drive, lin, watch)
        return _Moments.of(payoff_fn(x[ok], None if seen is None else seen[ok]))

    per_entry = _run_blocks(
        block, cfg.epsilon_ladder, cfg.n_paths, cfg.grid,
        cfg.model.vol.m, cfg.seed, cfg.antithetic, cfg.max_workers, cfg.model,
    )
    return [functools.reduce(_Moments.merge, res) for res in per_entry]


def ldp_tail_report(cfg: SimConfig, k: float, reference_rate: float | None = None) -> McReport:
    """Tail probabilities of the terminal displacement against the decay rate."""
    if cfg.model.m != 1:
        raise DimensionError("tail report is for m = 1 models")
    if reference_rate is None:
        reference_rate = inf_tail(cfg.model, k, grid=cfg.grid)
    stats = _per_eps_payoff_stats(
        cfg, lambda x, paths: (x[:, 0] >= k).astype(float)
    )
    return _reduce_report(cfg, "tail_probability", stats, reference_rate, {"k": k})


def mc_call_report(cfg: SimConfig, strike: float, reference_rate: float | None = None) -> McReport:
    """Undiscounted call prices across the ladder against the decay rate."""
    if cfg.model.m != 1:
        raise DimensionError("call report is for m = 1 models")
    s0 = float(cfg.model.s0[0])
    if reference_rate is None:
        reference_rate = call_asymptote(
            cfg.model, strike, cfg.grid.horizon, n_steps=cfg.grid.n_steps
        ).rate
    stats = _per_eps_payoff_stats(
        cfg, lambda x, paths: np.maximum(s0 * np.exp(x[:, 0]) - strike, 0.0)
    )
    return _reduce_report(cfg, "call_price", stats, reference_rate, {"strike": strike})


def mc_exit_report(
    cfg: SimConfig,
    domain: ExitDomain,
    deadline: float,
    reference_rate: float | None = None,
) -> McReport:
    """First-exit frequencies by the deadline against the exit decay rate.

    A path exits when a face a x >= c holds at a grid node of the window
    (0, deadline].  Each block keeps a running hit flag, not whole paths:
    the node loop tests every window node's displacement; a constant vol
    with m = 1 tests R_k >= theta_k (a > 0) or R_k <= theta_k (a < 0) on
    its running sum, ``FACE_NODES`` rows at a time, with thresholds exact
    to the node loop's rounding (``_exit_thresholds``), so its hits are the
    per-node test's bit for bit; a constant vol with m > 1 forms the
    displacement at window nodes alone.
    """
    model = cfg.model
    if domain.dim != model.m:
        raise DimensionError("domain dimension must equal m")
    window = exit_window(cfg.grid, deadline)
    if reference_rate is None:
        reference_rate = exit_asymptote(
            model,
            domain,
            deadline,
            horizon=cfg.grid.horizon,
            n_steps=min(cfg.grid.n_steps, 100),
        ).rate
    faces = domain.shifted_faces(model.x0)
    last = int(np.count_nonzero(window))  # the window is nodes 1..last
    thresholds = None
    if is_constant(model.vol) and model.m == 1:
        thresholds = _exit_thresholds(model, cfg.grid, cfg.epsilon_ladder, faces, last)

    def watcher(eps, drive):
        hit = np.zeros(drive.shape[1], dtype=bool)  # a running flag, not whole paths
        if thresholds is not None:
            for (a, _), theta in zip(faces, thresholds[eps]):
                passes = np.greater_equal if a[0] > 0 else np.less_equal
                for k0 in range(0, last, FACE_NODES):
                    k1 = min(k0 + FACE_NODES, last)
                    hit |= passes(drive[k0:k1], theta[k0:k1, None]).any(axis=0)
            return hit, None

        def watch(k, x):
            if k <= last:
                for a, c in faces:
                    hit[:] |= (x[:, 0] * a[0] if model.m == 1 else x.dot(a)) >= c

        if is_constant(model.vol):  # m > 1: the displacement at window nodes alone
            _constant_logprice(model, cfg.grid, eps, drive[:last], watch)
            return hit, None
        return hit, watch

    stats = _per_eps_payoff_stats(cfg, lambda x, hit: hit.astype(float), watcher)
    return _reduce_report(
        cfg, "exit_probability", stats, reference_rate, {"deadline": deadline}
    )
