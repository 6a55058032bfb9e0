import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.temporal import find_runs, frames_within, long_runs
from oracles import distracting_mask, events_from_flags, lasts_longer


def test_find_runs_basic():
    flags = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
    assert find_runs(flags) == [(1, 2), (4, 4), (7, 9)]


def test_find_runs_edges():
    assert find_runs(np.array([], dtype=bool)) == []
    assert find_runs(np.ones(3, dtype=bool)) == [(0, 2)]
    assert find_runs(np.zeros(3, dtype=bool)) == []


def test_event_duration_counts_whole_frames():
    flags = np.zeros(100, dtype=bool)
    flags[10:40] = True   # 30 frames at 30 fps = exactly 1.0 s
    assert frames_within(1.0, 30.0) == 30
    assert not long_runs(flags, 30).any()
    flags[40] = True      # 31 frames: strictly over
    assert np.array_equal(long_runs(flags, 30), flags)


def test_events_partition_flags():
    rng = np.random.default_rng(0)
    for _ in range(50):
        flags = rng.uniform(size=int(rng.integers(1, 300))) < 0.4
        covered = np.zeros(len(flags), dtype=bool)
        for start, end in find_runs(flags):
            assert not covered[start : end + 1].any()
            covered[start : end + 1] = True
        assert np.array_equal(covered, flags)
        # the duration rule keeps or drops each run whole
        kept = long_runs(flags, 30)
        for start, end in find_runs(flags):
            assert len(set(kept[start : end + 1].tolist())) == 1


def test_long_runs_covers_only_long_runs():
    flags = np.zeros(200, dtype=bool)
    flags[0:10] = True      # 1/3 s
    flags[50:120] = True    # 70 frames > 2 s
    mask = long_runs(flags, frames_within(2.0, 30.0))
    assert not mask[0:10].any()
    assert mask[50:120].all()
    assert np.count_nonzero(mask) == 70


@st.composite
def rates_and_minima(draw):
    """(frame rate in [5, 120], minimum duration in [0, 10] s); half the
    minima are whole numbers of frame periods, where the strict comparison
    decides, and some of those are the quotient k / fps rounded either way."""
    fps = draw(st.floats(5.0, 120.0))
    k = draw(st.integers(0, int(10 * fps)))
    min_s = draw(st.one_of(
        st.just(k / fps),
        st.sampled_from([-1, 1]).map(lambda way: float(np.nextafter(k / fps, way * np.inf))),
        st.floats(0.0, 10.0),
    ))
    return fps, min(max(min_s, 0.0), 10.0)


@st.composite
def duration_cases(draw):
    """(0-1300 flags, frame rate, minimum duration)."""
    fps, min_s = draw(rates_and_minima())
    # runs of drawn lengths around the rule's boundary and away from it
    boundary = int(min_s * fps)
    length = st.one_of(st.integers(1, 120), st.integers(max(boundary - 2, 1), boundary + 2))
    runs = draw(st.lists(st.tuples(st.booleans(), length), max_size=40))
    flags = np.repeat([on for on, _ in runs], [n for _, n in runs]).astype(bool)[:1300]
    return flags, fps, min_s


@settings(max_examples=300, deadline=None)
@given(case=duration_cases())
def test_long_runs_matches_event_oracle(case):
    flags, fps, min_s = case
    expected = distracting_mask(events_from_flags(flags, fps, min_s), len(flags))
    np.testing.assert_array_equal(long_runs(flags, frames_within(min_s, fps)), expected, strict=True)


@settings(max_examples=1000, deadline=None)
@given(case=rates_and_minima())
def test_frames_within_is_the_quotient_rule(case):
    # a run of n frames lasts n / fps seconds, strictly longer than min_s
    # exactly when n is more than the threshold; checked on both sides of it
    fps, min_s = case
    threshold = frames_within(min_s, fps)
    assert threshold >= 0
    for n in range(max(threshold - 3, 0), threshold + 4):
        assert (n > threshold) == lasts_longer(n, fps, min_s)
