"""Time grids, discretized controls, sampled paths, and the reflection map.

Controls are stored through their per-interval derivative values (piecewise
constant derivative, hence piecewise linear paths starting at zero).  On this
class the quadratic energy is computed without quadrature error, and the
discretized drift/volatility functionals used elsewhere in the library are
exact.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, UnsupportedDomainError, require_number


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] with nodes t_j = j*T/n."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < require_number(self.horizon, "horizon") < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if require_number(self.n_steps, "n_steps", numbers.Integral) < 1:
            raise DomainError(f"n_steps must be positive, got {self.n_steps}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The n + 1 nodes, computed once per grid and read-only."""
        nodes = np.linspace(0.0, self.horizon, self.n_steps + 1)
        nodes.flags.writeable = False
        return nodes


def _as_2d(values, n_rows, what):
    a = np.asarray(values, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] != n_rows:
        raise DimensionError(f"{what} must have shape ({n_rows}, dim), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} contains non-finite entries")
    return a


@dataclass
class Control:
    """Discretized element of the Cameron-Martin space.

    ``dot_values[j]`` is the derivative vector on the interval
    [t_j, t_{j+1}); the induced path starts at zero.
    """

    grid: TimeGrid
    dot_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dot_values = _as_2d(self.dot_values, self.grid.n_steps, "dot_values")

    @property
    def dim(self) -> int:
        return self.dot_values.shape[1]

    @staticmethod
    def zero(grid: TimeGrid, dim: int = 1) -> "Control":
        return Control(grid, np.zeros((grid.n_steps, dim)))


@dataclass
class PathFn:
    """Vector-valued function sampled at every grid node."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _as_2d(self.values, self.grid.n_steps + 1, "values")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1].copy()


def energy(control: Control) -> float:
    """Quadratic control cost (1/2) * sum_j ||dot f_j||^2 * dt."""
    return 0.5 * float(np.sum(control.dot_values**2)) * control.grid.dt


def integrate(control: Control) -> PathFn:
    """Cumulative path of a control; exact on piecewise-linear paths."""
    n = control.grid.n_steps
    vals = np.zeros((n + 1, control.dim))
    np.cumsum(control.dot_values * control.grid.dt, axis=0, out=vals[1:])
    return PathFn(control.grid, vals)


def skorokhod_map(path: PathFn) -> PathFn:
    """Reflection at zero: (Gamma f)(t) = f(t) - min_{s<=t} (f(s) ^ 0).

    Only the scalar half-line case is supported; general reflecting domains
    are out of scope.
    """
    if path.dim != 1:
        raise UnsupportedDomainError("reflection map is defined for dim=1 paths only")
    return PathFn(path.grid, reflect_values(path.values))


def reflect_values(values: np.ndarray) -> np.ndarray:
    """Reflection at zero along the time axis of an (..., n+1, d) array of
    paths: the values minus the running minimum of min(values, 0)."""
    return values - np.minimum.accumulate(np.minimum(values, 0.0), axis=-2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def path_to_csv(path: PathFn, filename) -> None:
    """Column 0 is node time, columns 1..dim are path values."""
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(path.dim)])
        for t, row in zip(path.grid.nodes, path.values):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in row])


def path_from_csv(filename) -> PathFn:
    with open(filename, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    body = rows[1:] if rows and not _is_number(rows[0][0]) else rows
    data = np.array([[float(x) for x in r] for r in body])
    if data.shape[0] < 2:
        raise DimensionError("path CSV needs at least two rows")
    t = data[:, 0]
    grid = TimeGrid(t[-1], len(t) - 1)
    if not np.allclose(t, grid.nodes, atol=1e-10 * max(1.0, t[-1])):
        raise DimensionError("path CSV nodes are not a uniform grid starting at 0")
    return PathFn(grid, data[:, 1:])


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def control_to_json_obj(control: Control) -> dict:
    return {
        "horizon": control.grid.horizon,
        "n_steps": control.grid.n_steps,
        "dot_values": control.dot_values.tolist(),
    }


def dump_json(obj: dict, filename) -> None:
    with open(filename, "w") as fh:
        json.dump(obj, fh, indent=2)
