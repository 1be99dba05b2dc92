"""Fully explicit analytics for the uncorrelated lognormal-volatility toy model.

The model has scalar volatility sigma(t, u) = exp(-t/2 + u), zero drift and
zero correlation, and the identity volatility skeleton, which makes two-sided
closed-form bounds available for both the terminal rate and the small-noise
implied volatility limit.  The bounds hold on the moneyness window
0 < k < sqrt((1 - e^-T) / (2 T e)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .paths import TimeGrid
from .presets import toy_sabr
from .ratefn import DEFAULT_TERMINAL_STEPS, RateResult, itilde_terminal

_H_NEWTON_TOL = 1e-13
_SERIES_MAX_TERMS = 200


@dataclass(frozen=True)
class ToyParams:
    horizon: float
    k: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise DomainError("horizon must be positive")
        if not self.k > 0:
            raise DomainError("log-moneyness must be positive")

    @property
    def window_edge(self) -> float:
        return math.sqrt((1.0 - math.exp(-self.horizon)) / (2.0 * self.horizon * math.e))

    def in_window(self) -> bool:
        return self.k < self.window_edge

    def require_window(self):
        if not self.in_window():
            raise DomainError(
                f"k={self.k} outside the bound validity window "
                f"(0, {self.window_edge:.6f}) for horizon {self.horizon}"
            )


def toy_rate(params: ToyParams, grid: TimeGrid | None = None, **kwargs) -> RateResult:
    """Terminal rate of the toy model at x = k, by numerical minimization.

    Well defined for every k > 0; the closed-form bounds are enforced only by
    the bound operations.
    """
    if grid is None:
        grid = TimeGrid(params.horizon, DEFAULT_TERMINAL_STEPS)
    elif abs(grid.horizon - params.horizon) > 1e-12:
        raise DomainError("grid horizon must match params.horizon")
    return itilde_terminal(toy_sabr(), params.k, grid=grid, **kwargs)


def h_forward(u: float) -> float:
    """h(u) = u * exp(u) on [0, inf)."""
    return u * math.exp(u)


def h_inverse(y: float) -> float:
    """The unique u >= 0 with u * e^u = y, by safeguarded Newton iteration.

    Starts at min(y, log(1+y)) and keeps iterates in a shrinking bracket;
    stops when |u e^u - y| < 1e-13.
    """
    if y < 0:
        raise DomainError("h_inverse is defined for y >= 0")
    if y == 0.0:
        return 0.0
    # both y and log(1+y) over-shoot the root: (1+y) log(1+y) >= y
    lo, hi = 0.0, min(y, math.log1p(y)) * (1.0 + 1e-12) + 1e-300
    u = min(y, math.log1p(y))
    for _ in range(200):
        resid = h_forward(u) - y
        if abs(resid) < _H_NEWTON_TOL:
            return u
        if resid > 0:
            hi = u
        else:
            lo = u
        step = resid / (math.exp(u) * (1.0 + u))
        u_new = u - step
        if not lo < u_new < hi:
            u_new = 0.5 * (lo + hi)
        u = u_new
    if abs(h_forward(u) - y) < 1e-10 * max(1.0, y):
        return u
    raise DomainError(f"Newton iteration for h_inverse failed at y={y}")


def h_inverse_series(y: float, max_terms: int = _SERIES_MAX_TERMS) -> float:
    """Alternating power-series inversion sum (-1)^(n-1) n^(n-1)/n! y^n.

    Radius of convergence 1/e; used as a cross-check path on small y.
    Terms are accumulated in log space and truncated once they fall below
    machine noise.
    """
    if y < 0:
        raise DomainError("series path needs y >= 0")
    if y >= 1.0 / math.e:
        raise DomainError("series path converges only for y < 1/e")
    if y == 0.0:
        return 0.0
    total = 0.0
    log_y = math.log(y)
    for n in range(1, max_terms + 1):
        log_term = (n - 1) * math.log(n) - math.lgamma(n + 1) + n * log_y
        term = math.exp(log_term)
        total += term if n % 2 == 1 else -term
        if term < 1e-17 * max(total, 1.0):
            break
    return total


def rate_bounds(params: ToyParams) -> tuple[float, float]:
    """Closed-form two-sided bounds for the terminal rate at k."""
    params.require_window()
    denom = 1.0 - math.exp(-params.horizon)
    lower = params.k**2 * (math.e - 1.0) / (2.0 * math.e * denom)
    upper = params.k**2 / denom
    return lower, upper


def iv_limit_bounds(params: ToyParams) -> tuple[float, float]:
    """Closed-form bounds for the small-noise implied volatility limit.

    Both bounds are independent of k inside the validity window.
    """
    params.require_window()
    T = params.horizon
    one = 1.0 - math.exp(-T)
    lower = math.sqrt(one) / math.sqrt(2.0 * T)
    upper = math.sqrt(math.e * one) / math.sqrt(T * (math.e - 1.0))
    return lower, upper


def toy_report(params: ToyParams, grid: TimeGrid | None = None) -> dict:
    """Bundle used by the CLI: numerical rate plus both bound pairs."""
    res = toy_rate(params, grid=grid)
    lo, hi = rate_bounds(params)
    ivlo, ivhi = iv_limit_bounds(params)
    iv = params.k / math.sqrt(2.0 * params.horizon * res.value)
    return {
        "horizon": params.horizon,
        "k": params.k,
        "rate": res.value,
        "lower": lo,
        "upper": hi,
        "iv_limit": iv,
        "iv_lower": ivlo,
        "iv_upper": ivhi,
        "converged": res.converged,
    }
