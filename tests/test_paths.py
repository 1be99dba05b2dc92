import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpvol.errors import DimensionError, DomainError, UnsupportedDomainError
from ldpvol.paths import (
    Control,
    PathFn,
    TimeGrid,
    control_from_json_obj,
    control_to_json_obj,
    energy,
    integrate,
    nodal_derivative,
    path_from_csv,
    path_to_csv,
    skorokhod_map,
)


def test_grid_nodes():
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_non_finite_values_raise_domain_error():
    g = TimeGrid(1.0, 2)
    with pytest.raises(DomainError, match="non-finite"):
        Control(g, np.array([[0.1], [np.inf]]))
    with pytest.raises(DomainError, match="non-finite"):
        PathFn(g, np.array([0.0, np.nan, 0.2]))


def test_energy_examples():
    g = TimeGrid(1.0, 10)
    assert energy(Control.zero(g, 3)) == 0.0
    c = Control(g, np.full((10, 1), 2.0))
    assert energy(c) == pytest.approx(2.0, abs=1e-14)
    g2 = TimeGrid(0.5, 5)
    c2 = Control(g2, np.ones((5, 2)))
    assert energy(c2) == pytest.approx(0.5, abs=1e-14)


def test_integrate_examples():
    g = TimeGrid(1.0, 10)
    p = integrate(Control(g, np.ones((10, 1))))
    np.testing.assert_allclose(p.values[:, 0], g.nodes, atol=1e-14)
    assert np.all(integrate(Control.zero(g, 2)).values == 0.0)
    g4 = TimeGrid(1.0, 4)
    c = Control(g4, np.arange(4.0)[:, None])
    assert integrate(c).terminal[0] == pytest.approx(1.5, abs=1e-14)


def test_integrate_terminal_telescopes():
    rng = np.random.default_rng(0)
    g = TimeGrid(1.7, 37)
    dots = rng.normal(size=(37, 2))
    p = integrate(Control(g, dots))
    np.testing.assert_allclose(p.terminal, dots.sum(axis=0) * g.dt, rtol=0, atol=1e-13)
    back = nodal_derivative(p)
    np.testing.assert_allclose(back.dot_values, dots, atol=1e-10)


@given(scale=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_energy_quadratic_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    g = TimeGrid(1.0, 16)
    dots = rng.normal(size=(16, 2))
    c = Control(g, dots)
    scaled = Control(g, scale * dots)
    assert energy(scaled) == pytest.approx(scale**2 * energy(c), rel=1e-12, abs=1e-12)


def test_skorokhod_examples():
    g = TimeGrid(1.0, 10)
    p = integrate(Control(g, np.ones((10, 1))))
    np.testing.assert_allclose(skorokhod_map(p).values, p.values)
    neg = PathFn(g, -g.nodes)
    assert np.all(skorokhod_map(neg).values == 0.0)
    g2 = TimeGrid(1.0, 2)
    p3 = PathFn(g2, np.array([0.0, -1.0, 0.5]))
    np.testing.assert_allclose(skorokhod_map(p3).values[:, 0], [0.0, 0.0, 1.5])


def test_skorokhod_rejects_multidim():
    g = TimeGrid(1.0, 4)
    with pytest.raises(UnsupportedDomainError):
        skorokhod_map(PathFn(g, np.zeros((5, 2))))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_skorokhod_nonneg_idempotent_compensator(seed):
    rng = np.random.default_rng(seed)
    g = TimeGrid(1.0, 50)
    vals = np.concatenate([[0.0], np.cumsum(rng.normal(size=50))])
    p = PathFn(g, vals)
    r = skorokhod_map(p)
    assert np.all(r.values >= 0.0)
    np.testing.assert_array_equal(skorokhod_map(r).values, r.values)
    comp = r.values[:, 0] - p.values[:, 0]
    tol = 1e-12 * max(1.0, np.max(np.abs(comp)))
    assert np.all(np.diff(comp) >= -tol)


def test_shape_validation():
    g = TimeGrid(1.0, 4)
    with pytest.raises(DimensionError):
        Control(g, np.zeros((5, 1)))
    with pytest.raises(DimensionError):
        PathFn(g, np.zeros((4, 1)))


def test_csv_json_roundtrip(tmp_path):
    g = TimeGrid(1.5, 6)
    rng = np.random.default_rng(3)
    p = PathFn(g, rng.normal(size=(7, 2)))
    f = tmp_path / "p.csv"
    path_to_csv(p, f)
    q = path_from_csv(f)
    assert q.grid == g
    np.testing.assert_allclose(q.values, p.values, atol=1e-15)

    c = Control(g, rng.normal(size=(6, 2)))
    c2 = control_from_json_obj(control_to_json_obj(c))
    assert c2.grid == g
    np.testing.assert_allclose(c2.dot_values, c.dot_values, atol=1e-15)
