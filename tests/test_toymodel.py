import math

import numpy as np
import pytest
from scipy.special import lambertw

from ldpvol import TimeGrid
from ldpvol.errors import DomainError
from ldpvol.toymodel import (
    ToyParams,
    h_forward,
    h_inverse,
    h_inverse_series,
    iv_limit_bounds,
    rate_bounds,
    toy_rate,
)

GRID = TimeGrid(1.0, 200)


def test_h_inverse_trivial_points():
    assert h_inverse(0.0) == 0.0
    assert h_inverse(math.e) == pytest.approx(1.0, abs=1e-13)


def test_h_inverse_newton_residuals():
    for y in np.logspace(-6, 1, 100):
        u = h_inverse(float(y))
        assert abs(h_forward(u) - y) < 1e-12


def test_h_inverse_against_lambertw_oracle():
    for y in np.logspace(-5, 1, 25):
        assert h_inverse(float(y)) == pytest.approx(
            float(lambertw(float(y)).real), rel=1e-12, abs=1e-13
        )


def test_h_inverse_round_trip():
    for u in np.linspace(0.0, 5.0, 41):
        assert h_inverse(h_forward(float(u))) == pytest.approx(float(u), abs=1e-12)


def test_h_inverse_series_agrees_with_newton():
    for y in np.linspace(1e-4, 0.2999, 40):
        assert h_inverse_series(float(y)) == pytest.approx(
            h_inverse(float(y)), abs=1e-10
        )
    with pytest.raises(DomainError):
        h_inverse_series(0.5)


def test_h_inverse_lower_bound_y_minus_y2():
    for y in np.linspace(1e-6, 1.0 / math.e - 1e-9, 50):
        assert h_inverse(float(y)) >= y - y**2 - 1e-14


def test_h_inverse_domain():
    with pytest.raises(DomainError):
        h_inverse(-0.1)


def test_example_residual_point():
    y = 0.031639
    u = h_inverse(y)
    assert abs(h_forward(u) - y) < 1e-13
    assert u >= y - y**2


def test_rate_bounds_values():
    lo, hi = rate_bounds(ToyParams(1.0, 0.1))
    assert lo == pytest.approx(0.01 * (math.e - 1) / (2 * math.e * (1 - math.exp(-1))))
    assert hi == pytest.approx(0.01 / (1 - math.exp(-1)))
    assert lo == pytest.approx(0.0050000, abs=5e-6)
    assert hi == pytest.approx(0.0158198, abs=5e-6)
    assert lo < hi


def test_rate_bounds_fixed_ratio():
    for T in (0.25, 1.0, 2.0):
        p = ToyParams(T, 0.8 * ToyParams(T, 1e-9).window_edge)
        lo, hi = rate_bounds(p)
        assert lo / hi == pytest.approx((math.e - 1) / (2 * math.e), rel=1e-12)


def test_rate_bounds_window_enforced():
    p = ToyParams(1.0, 1.0)  # far outside the window
    assert not p.in_window()
    with pytest.raises(DomainError):
        rate_bounds(p)
    edge = ToyParams(1.0, ToyParams(1.0, 1e-9).window_edge * 0.999)
    lo, hi = rate_bounds(edge)
    assert math.isfinite(lo) and math.isfinite(hi) and lo < hi


def test_iv_limit_bounds_t1_upper_is_one():
    lo, hi = iv_limit_bounds(ToyParams(1.0, 0.1))
    assert hi == pytest.approx(1.0, abs=1e-14)
    assert lo == pytest.approx(math.sqrt((1 - math.exp(-1)) / 2.0), rel=1e-14)


def test_iv_limit_bounds_small_t_limit():
    # (1 - e^-T)/T -> 1, so the bounds approach (1/sqrt(2), sqrt(e/(e-1)))
    p = ToyParams(1e-6, 1e-9)
    lo, hi = iv_limit_bounds(p)
    assert lo == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-5)
    assert hi == pytest.approx(math.sqrt(math.e / (math.e - 1.0)), rel=1e-5)


def test_iv_limit_bounds_k_independent():
    p1 = ToyParams(1.0, 0.05)
    p2 = ToyParams(1.0, 0.2)
    assert iv_limit_bounds(p1) == iv_limit_bounds(p2)


def test_toy_rate_zero_trial_value_and_upper_bound():
    # the zero-control objective value is k^2 / (2 (1 - e^-T)), which sits
    # below the closed-form upper bound k^2 / (1 - e^-T)
    from ldpvol.ratefn import TerminalObjective
    from ldpvol.presets import toy_sabr

    p = ToyParams(1.0, 0.1)
    obj = TerminalObjective(toy_sabr(), GRID, p.k)
    val0 = obj.value(np.zeros(GRID.n_steps))
    denom = 1.0 - math.exp(-1.0)
    # left-endpoint quadrature reproduces the integral to O(dt)
    assert val0 == pytest.approx(p.k**2 / (2 * denom), rel=5e-3)
    _, upper = rate_bounds(p)
    assert val0 <= upper


def test_toy_rate_inside_bounds():
    p = ToyParams(1.0, 0.1)
    res = toy_rate(p, grid=GRID)
    lo, hi = rate_bounds(p)
    assert lo <= res.value <= hi
    assert res.value == pytest.approx(0.00786, abs=2e-4)


def test_toy_rate_vanishes_as_k_to_zero():
    vals = [toy_rate(ToyParams(1.0, k), grid=TimeGrid(1.0, 50)).value for k in (0.08, 0.04, 0.02)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < rate_bounds(ToyParams(1.0, 0.02))[1]
