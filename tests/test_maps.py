import itertools
import math

import numpy as np
import pytest

from pesinlab import ConfigurationError, MAP_NAMES, PhasePoint, make_map

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


def _orbit(m, x0, n):
    points = [x0]
    for _ in range(n):
        points.append(m.step(points[-1]))
    return points


def test_iterate_identity_constant():
    points = _orbit(make_map("identity"), PhasePoint(0.1, 0.2), 5)
    assert all(p == points[0] for p in points)


def test_iterate_cat_fixed_point():
    points = _orbit(make_map("cat"), PhasePoint(0.0, 0.0), 10)
    assert all(p.q == 0.0 and p.p == 0.0 for p in points)


def test_iterate_baker_third():
    points = _orbit(make_map("baker"), PhasePoint(1.0 / 3.0, 0.0), 2)
    expect = [(1.0 / 3.0, 0.0), (2.0 / 3.0, 0.0), (1.0 / 3.0, 0.5)]
    for point, (q, p) in zip(points, expect):
        assert abs(point.q - q) < 1e-12
        assert abs(point.p - p) < 1e-12


def test_trajectory_chains_under_step():
    # Monte Carlo refinement steps its sample cloud with step_batch depth
    # after depth; a 20-step batch orbit must follow the pointwise one
    pts = np.array(RANDOM_POINTS[:50])
    for name in MAP_NAMES:
        m = make_map(name)
        batch = pts
        orbits = [_orbit(m, PhasePoint(q, p), 20) for q, p in pts]
        for k in range(1, 21):
            batch = m.step_batch(batch)
            for orbit, out in zip(orbits, batch):
                assert (orbit[k].q, orbit[k].p) == (out[0], out[1])


@pytest.mark.parametrize("name", MAP_NAMES)
def test_jacobian_determinant_is_unimodular(name):
    a, b, c, d = make_map(name).jacobian
    assert abs(abs(a * d - b * c) - 1.0) < 1e-12


@pytest.mark.parametrize("name", MAP_NAMES)
def test_jacobian_is_every_forward_branch_linear_part(name):
    m = make_map(name)
    assert isinstance(m.jacobian, tuple) and len(m.jacobian) == 4
    assert all(isinstance(v, float) for v in m.jacobian)
    for br in m.branches:
        linear = (1.0, 0.0, 0.0, 1.0) if br.affine is None else br.affine[:4]
        assert m.jacobian == linear


@pytest.mark.parametrize("name", MAP_NAMES)
def test_jacobian_matches_finite_differences(name):
    # the constant tangent matrix is the derivative of step away from the
    # branch cuts and the torus wrap
    m = make_map(name)
    a, b, c, d = m.jacobian
    h = 1e-7
    for q, p in ((0.11, 0.13), (0.31, 0.22), (0.61, 0.17), (0.83, 0.05)):
        x = m.step(PhasePoint(q, p))
        xq = m.step(PhasePoint(q + h, p))
        xp = m.step(PhasePoint(q, p + h))
        assert abs((xq.q - x.q) / h - a) < 1e-6
        assert abs((xp.q - x.q) / h - b) < 1e-6
        assert abs((xq.p - x.p) / h - c) < 1e-6
        assert abs((xp.p - x.p) / h - d) < 1e-6


@pytest.mark.parametrize("name", MAP_NAMES)
def test_step_batch_matches_step(name):
    m = make_map(name)
    pts = np.array(RANDOM_POINTS[:200])
    batched = m.step_batch(pts)
    for (q, p), out in zip(pts, batched):
        s = m.step(PhasePoint(q, p))
        assert abs(s.q - out[0]) < 1e-12
        assert abs(s.p - out[1]) < 1e-12


def _cat_step_by_mod(pts):
    return np.column_stack(((2.0 * pts[:, 0] + pts[:, 1]) % 1.0,
                            (pts[:, 0] + pts[:, 1]) % 1.0))


# 0 and the largest double below 1, plus coordinates whose sums 2q+p or q+p
# are exactly 1 or 2, or round up to 1 (0.5 + (0.5 - 2^-55))
CAT_EDGE_COORDS = [0.0, 2.0 ** -53, 0.25, 0.5 - 2.0 ** -55, 0.5, 0.75,
                   1.0 - 2.0 ** -53]


def test_cat_step_batch_is_bitwise_the_mod_form():
    edges = np.array(list(itertools.product(CAT_EDGE_COORDS, repeat=2)))
    pts = np.concatenate([edges, np.random.default_rng(7).random((100_000, 2))])
    sums = np.column_stack((2.0 * edges[:, 0] + edges[:, 1],
                            edges[:, 0] + edges[:, 1]))
    assert {1.0, 2.0} <= set(sums[:, 0].tolist())
    assert 1.0 in sums[:, 1].tolist()
    batched = make_map("cat").step_batch(pts)
    assert batched.shape == pts.shape and batched.dtype == pts.dtype
    assert batched.tobytes() == _cat_step_by_mod(pts).tobytes()
    step = make_map("cat").step
    for (q, p), out in zip(pts[:len(edges) + 500], batched):
        x = step(PhasePoint(q, p))
        assert np.array([x.q, x.p]).tobytes() == out.tobytes()


def test_baker_discontinuity_uses_left_branch():
    m = make_map("baker")
    x = m.step(PhasePoint(0.5, 0.0))
    # q = 0.5 belongs to the upper branch under the left-closed convention
    assert (x.q, x.p) == (0.0, 0.5)
    assert m.jacobian == (2.0, 0.0, 0.0, 0.5)
