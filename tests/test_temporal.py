import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.temporal import find_runs, long_runs
from oracles import distracting_mask, events_from_flags


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
    assert not long_runs(flags, 30.0, 1.0).any()
    flags[40] = True      # 31 frames: strictly over
    assert np.array_equal(long_runs(flags, 30.0, 1.0), flags)


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
        kept = long_runs(flags, 30.0, 1.0)
        for start, end in find_runs(flags):
            assert len(set(kept[start : end + 1].tolist())) == 1


def test_long_runs_covers_only_long_runs():
    flags = np.zeros(200, dtype=bool)
    flags[0:10] = True      # 1/3 s
    flags[50:120] = True    # 70 frames > 2 s
    mask = long_runs(flags, 30.0, 2.0)
    assert not mask[0:10].any()
    assert mask[50:120].all()
    assert np.count_nonzero(mask) == 70


def test_bad_frame_rate_rejected():
    with pytest.raises(ValueError):
        long_runs(np.ones(3, dtype=bool), 0.0, 1.0)


@st.composite
def duration_cases(draw):
    """(0-400 flags, frame rate, minimum duration); half the minima are
    whole numbers of frame periods, where the strict comparison decides."""
    # runs of drawn lengths, so that long runs occur as often as short ones
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 120)), max_size=40))
    flags = np.repeat([on for on, _ in runs], [length for _, length in runs]).astype(bool)[:400]
    fps = draw(st.floats(5.0, 120.0))
    min_s = draw(st.one_of(
        st.integers(0, 150).map(lambda k: k / fps),
        st.floats(0.0, 5.0),
    ))
    return flags, fps, min_s


@settings(max_examples=300, deadline=None)
@given(case=duration_cases())
def test_long_runs_matches_event_oracle(case):
    flags, fps, min_s = case
    expected = distracting_mask(events_from_flags(flags, fps, min_s), len(flags))
    np.testing.assert_array_equal(long_runs(flags, fps, min_s), expected, strict=True)
