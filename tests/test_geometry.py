import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adwatch.geometry import intersect_gaze_batch

from oracles import intersect_gaze, line_sampling_intersection


def one_ray(pupil, direction):
    """(x, y, t, toward, parallel) of one ray, through a one-row batch."""
    points, t, toward, parallel = intersect_gaze_batch([pupil], [direction])
    return points[0, 0], points[0, 1], t[0], toward[0], parallel[0]


def test_head_on_ray():
    x, y, t, toward, parallel = one_ray((0, 0, 60), (0, 0, -1))
    assert toward and not parallel
    assert t == pytest.approx(60.0)
    assert (x, y) == pytest.approx((0.0, 0.0))


def test_translated_head_on_ray():
    x, y, t, _, _ = one_ray((5, 2, 60), (0, 0, -1))
    assert t == pytest.approx(60.0)
    assert (x, y) == pytest.approx((5.0, 2.0))


def test_oblique_ray_matches_line_sampling_oracle():
    # expected point computed with the independent line-sampling oracle
    ox, oy, ot, status = line_sampling_intersection((0, 0, 60), (0.1, 0, -1))
    assert (ox, oy) == pytest.approx((6.0, 0.0), abs=1e-9)
    x, y, t, toward, _ = one_ray((0, 0, 60), (0.1, 0, -1))
    assert x == pytest.approx(ox, abs=1e-9)
    assert y == pytest.approx(oy, abs=1e-9)
    assert t == pytest.approx(ot, rel=1e-9)
    assert status == "toward_plane" and toward


def test_parallel_ray():
    x, y, t, toward, parallel = one_ray((0, 0, 60), (1, 0, 0))
    assert parallel and not toward
    assert np.isnan(t) and np.isnan(x) and np.isnan(y)


def test_away_from_plane():
    _, _, t, toward, parallel = one_ray((0, 0, 60), (0, 0, 1))
    assert not toward and not parallel
    assert t == pytest.approx(-60.0)


def test_zero_direction_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        intersect_gaze_batch([(0, 0, 60), (0, 0, 60)], [(0, 0, -1), (0, 0, 0)])


def test_residual_z_below_1e9_cm():
    rng = np.random.default_rng(42)
    pupils = rng.uniform([-20, -20, 20], [20, 20, 120], (500, 3))
    dirs = rng.normal(0, 1, (500, 3))
    keep = np.abs(dirs[:, 2]) / np.linalg.norm(dirs, axis=1) >= 1e-5
    _, t, _, parallel = intersect_gaze_batch(pupils[keep], dirs[keep])
    assert not parallel.any()
    residual = pupils[keep, 2] + dirs[keep, 2] * t
    assert np.abs(residual).max() <= 1e-9


def test_positive_scaling_invariance():
    rng = np.random.default_rng(7)
    pupils = rng.uniform([-20, -20, 20], [20, 20, 120], (200, 3))
    dirs = rng.normal(0, 1, (200, 3))
    lam = rng.uniform(0.01, 100, 200)
    pa, ta, toward_a, parallel_a = intersect_gaze_batch(pupils, dirs)
    pb, tb, toward_b, parallel_b = intersect_gaze_batch(pupils, dirs * lam[:, None])
    assert np.array_equal(toward_a, toward_b) and np.array_equal(parallel_a, parallel_b)
    hit = ~parallel_a
    np.testing.assert_allclose(pb[hit], pa[hit], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(tb[hit], ta[hit] / lam[hit], rtol=1e-9)


# components of magnitude 0 or 1e-3 to 1e3, so that t and every scaled
# component below stay normal floats for scales 2**-1000 to 2**1000
_COMPONENT = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


@given(
    pupil=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
    direction=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(any),
    k=st.integers(-1000, 1000),
)
def test_scaling_by_a_power_of_two_changes_no_point_or_flag(pupil, direction, k):
    # beyond about 1.3e154 a component's square overflows, and below about
    # 1e-162 it underflows; neither may turn a ray parallel or zero
    pa, ta, toward_a, parallel_a = intersect_gaze_batch([pupil], [direction])
    pb, tb, toward_b, parallel_b = intersect_gaze_batch([pupil], [np.ldexp(direction, k)])
    assert np.array_equal(pb, pa, equal_nan=True)
    assert np.array_equal(tb, np.ldexp(ta, -k), equal_nan=True)
    assert toward_b == toward_a and parallel_b == parallel_a


def test_direction_too_long_to_square_is_not_parallel():
    x, y, t, toward, parallel = one_ray((0, 0, 60), (0, 0, -1e200))
    assert toward and not parallel
    assert (x, y) == (0.0, 0.0) and t == pytest.approx(6e-199)


def test_batch_matches_scalar():
    rng = np.random.default_rng(3)
    pupils = rng.uniform([-10, -10, 30], [10, 10, 90], (300, 3))
    dirs = rng.normal(0, 1, (300, 3))
    points, ts, toward, parallel = intersect_gaze_batch(pupils, dirs)
    for i in range(300):
        x, y, t, status = intersect_gaze(pupils[i], dirs[i])
        if status == "parallel":
            assert parallel[i]
            continue
        assert points[i, 0] == pytest.approx(x)
        assert points[i, 1] == pytest.approx(y)
        assert ts[i] == pytest.approx(t)
        assert toward[i] == (status == "toward_plane")


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(1234)
    pupils = rng.uniform([-15, -15, 25], [15, 15, 100], (500, 3))
    dirs = rng.normal(0, 1, (500, 3))
    dirs[:, 2] = -np.abs(dirs[:, 2]) - 0.05
    points, _, toward, _ = intersect_gaze_batch(pupils, dirs)
    assert toward.all()
    for i in range(500):
        x, y, _, status = line_sampling_intersection(pupils[i], dirs[i])
        assert status == "toward_plane"
        assert abs(points[i, 0] - x) <= 1e-6
        assert abs(points[i, 1] - y) <= 1e-6
