import math

import numpy as np
import pytest

from pesinlab import (ConfigurationError, MAP_NAMES, PhasePoint,
                      UnsupportedOperationError, iterate, make_map,
                      preimage_cell)
from pesinlab.geometry import polygon_area
from pesinlab.maps import TorusMap

rng = np.random.default_rng(20240817)
RANDOM_POINTS = [tuple(p) for p in rng.random((1000, 2))]


def test_identity_step():
    m = make_map("identity")
    x = m.step(PhasePoint(0.3, 0.7))
    assert (x.q, x.p) == (0.3, 0.7)


def test_cat_step_half_half():
    # (2*0.5 + 0.5, 0.5 + 0.5) mod 1
    m = make_map("cat")
    x = m.step(PhasePoint(0.5, 0.5))
    assert abs(x.q - 0.5) < 1e-15
    assert abs(x.p - 0.0) < 1e-15


def test_baker_step_quarter():
    m = make_map("baker")
    x = m.step(PhasePoint(0.25, 0.5))
    assert (x.q, x.p) == (0.5, 0.25)


def test_make_map_rejects_unknown_name():
    with pytest.raises(ConfigurationError) as err:
        make_map("horseshoe")
    for name in MAP_NAMES:
        assert name in str(err.value)


def test_phase_point_wraps_into_unit_square():
    x = PhasePoint(1.25, -0.5)
    assert (x.q, x.p) == (0.25, 0.5)


def test_iterate_identity_constant():
    t = iterate(make_map("identity"), PhasePoint(0.1, 0.2), 5)
    assert len(t.points) == 6
    assert all(p == t.points[0] for p in t.points)


def test_iterate_cat_fixed_point():
    t = iterate(make_map("cat"), PhasePoint(0.0, 0.0), 10)
    assert len(t.points) == 11
    assert all(p.q == 0.0 and p.p == 0.0 for p in t.points)


def test_iterate_baker_third():
    t = iterate(make_map("baker"), PhasePoint(1.0 / 3.0, 0.0), 2)
    expect = [(1.0 / 3.0, 0.0), (2.0 / 3.0, 0.0), (1.0 / 3.0, 0.5)]
    for point, (q, p) in zip(t.points, expect):
        assert abs(point.q - q) < 1e-12
        assert abs(point.p - p) < 1e-12


def test_iterate_rejects_negative_count():
    with pytest.raises(ValueError):
        iterate(make_map("baker"), PhasePoint(0.1, 0.1), -1)


def test_trajectory_chains_under_step():
    for name in MAP_NAMES:
        m = make_map(name)
        t = iterate(m, PhasePoint(0.137, 0.642), 20)
        for a, b in zip(t.points, t.points[1:]):
            s = m.step(a)
            assert abs(s.q - b.q) < 1e-12 and abs(s.p - b.p) < 1e-12


def test_preimage_identity_is_cell():
    pieces = preimage_cell(make_map("identity"), (0.0, 0.5, 0.0, 1.0), 3)
    assert len(pieces) == 1
    assert abs(polygon_area(pieces[0]) - 0.5) < 1e-15


def test_preimage_baker_left_half():
    # inverting q < 1/2 pulls back to two vertical strips of width 1/4
    pieces = preimage_cell(make_map("baker"), (0.0, 0.5, 0.0, 1.0), 1)
    assert len(pieces) == 2
    total = sum(polygon_area(p) for p in pieces)
    assert abs(total - 0.5) < 1e-12
    spans = sorted((min(x for x, _ in poly), max(x for x, _ in poly))
                   for poly in pieces)
    assert spans[0] == (0.0, 0.25)
    assert spans[1] == (0.5, 0.75)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_preimage_preserves_area(name):
    cell = (0.125, 0.625, 0.25, 0.75)
    for j in (1, 2, 3):
        pieces = preimage_cell(make_map(name), cell, j)
        total = sum(polygon_area(p) for p in pieces)
        assert abs(total - 0.25) < 1e-12


def test_preimage_rejects_bad_cell():
    with pytest.raises(ValueError):
        preimage_cell(make_map("baker"), (0.5, 0.5, 0.0, 1.0), 1)


def test_preimage_requires_backward_pieces():
    bare = TorusMap(name="opaque", step=lambda x: x,
                    jacobian=lambda x: np.eye(2), step_batch=lambda pts: pts)
    with pytest.raises(UnsupportedOperationError):
        preimage_cell(bare, (0.0, 0.5, 0.0, 1.0), 1)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_jacobian_determinant_is_unimodular(name):
    m = make_map(name)
    for q, p in RANDOM_POINTS:
        jac = m.jacobian(PhasePoint(q, p))
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        assert abs(abs(det) - 1.0) < 1e-12


@pytest.mark.parametrize("name", MAP_NAMES)
def test_step_batch_matches_step(name):
    m = make_map(name)
    pts = np.array(RANDOM_POINTS[:200])
    batched = m.step_batch(pts)
    for (q, p), out in zip(pts, batched):
        s = m.step(PhasePoint(q, p))
        assert abs(s.q - out[0]) < 1e-12
        assert abs(s.p - out[1]) < 1e-12


def test_baker_discontinuity_uses_left_branch():
    m = make_map("baker")
    x = m.step(PhasePoint(0.5, 0.0))
    # q = 0.5 belongs to the upper branch under the left-closed convention
    assert (x.q, x.p) == (0.0, 0.5)
    jac = m.jacobian(PhasePoint(0.5, 0.0))
    assert jac[0, 0] == 2.0 and jac[1, 1] == 0.5
