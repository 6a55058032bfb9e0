import numpy as np
import pytest

from adwatch.errors import DataError
from adwatch.fusion import (
    SIGNAL_NAMES,
    fuse,
    session_summary,
    unattended_signal,
)
from adwatch.temporal import find_runs


def test_short_dual_gap_inactive():
    no_face = np.zeros(100, dtype=bool)
    no_face[10:25] = True   # 0.5 s at 30 fps
    assert not unattended_signal(no_face, no_face, 30.0).any()


def test_long_dual_gap_active():
    no_face = np.zeros(200, dtype=bool)
    no_face[10:100] = True  # 3 s
    out = unattended_signal(no_face, no_face, 30.0)
    assert out[10:100].all()
    assert not out[0:10].any() and not out[100:].any()


def test_single_tracker_loss_inactive():
    lost = np.zeros(200, dtype=bool)
    lost[10:100] = True
    assert not unattended_signal(lost, np.zeros(200, dtype=bool), 30.0).any()
    assert not unattended_signal(np.zeros(200, dtype=bool), lost, 30.0).any()


def test_exactly_one_second_not_distracting():
    no_face = np.zeros(100, dtype=bool)
    no_face[0:30] = True
    assert not unattended_signal(no_face, no_face, 30.0).any()
    no_face[0:31] = True
    assert unattended_signal(no_face, no_face, 30.0).any()


def test_fuse_identity():
    n = 50
    tl = fuse(*[np.zeros(n, dtype=bool)] * 5)
    assert tl.attentive.all()
    assert (tl.mask == 0).all()


def test_fuse_single_source():
    n = 60
    speaking = np.zeros(n, dtype=bool)
    speaking[10:41] = True
    tl = fuse(np.zeros(n, bool), np.zeros(n, bool), speaking, np.zeros(n, bool), np.zeros(n, bool))
    assert not tl.attentive[10:41].any()
    assert (tl.mask[10:41] == 0b00100).all()
    assert tl.active_names(10) == ["speaking"]


def test_fuse_all_32_mask_combinations():
    # brute-force OR truth table over every signal combination
    combos = np.array([[(k >> b) & 1 for b in range(5)] for k in range(32)], dtype=bool)
    tl = fuse(*[combos[:, b] for b in range(5)])
    np.testing.assert_array_equal(tl.signals, combos, strict=True)
    for k in range(32):
        assert tl.mask[k] == k
        assert tl.attentive[k] == (k == 0)
        expected = [SIGNAL_NAMES[b] for b in range(5) if (k >> b) & 1]
        assert tl.active_names(k) == expected


def test_fusion_monotone():
    rng = np.random.default_rng(0)
    base_signals = [rng.uniform(size=100) < 0.2 for _ in range(5)]
    tl = fuse(*base_signals)
    extra = base_signals[2] | (rng.uniform(size=100) < 0.3)
    tl2 = fuse(base_signals[0], base_signals[1], extra, base_signals[3], base_signals[4])
    assert not np.any(tl2.attentive & ~tl.attentive)


def test_fuse_length_mismatch():
    with pytest.raises(DataError):
        fuse(np.zeros(3, bool), np.zeros(3, bool), np.zeros(4, bool),
             np.zeros(3, bool), np.zeros(3, bool))


def test_summary_all_attentive():
    tl = fuse(*[np.zeros(40, dtype=bool)] * 5)
    s = session_summary(tl, 30.0)
    assert s.percent_inattentive == 0.0
    assert all(not evs for evs in s.events_by_source.values())


def test_summary_half_inattentive():
    n = 100
    gaze = np.zeros(n, dtype=bool)
    gaze[:50] = True
    tl = fuse(gaze, *[np.zeros(n, dtype=bool)] * 4)
    s = session_summary(tl, 30.0)
    assert s.percent_inattentive == pytest.approx(50.0)


def test_summary_durations_match_run_lengths():
    rng = np.random.default_rng(5)
    signals = [rng.uniform(size=300) < 0.15 for _ in range(5)]
    tl = fuse(*signals)
    s = session_summary(tl, 30.0)
    for b, name in enumerate(SIGNAL_NAMES):
        runs = find_runs(signals[b])   # independent recomputation
        evs = s.events_by_source[name]
        assert len(evs) == len(runs)
        for ev, (start, end) in zip(evs, runs):
            assert (ev.start_frame, ev.end_frame) == (start, end)
            assert ev.duration_s == pytest.approx((end - start + 1) / 30.0)
            assert ev.end_s - ev.start_s == pytest.approx(ev.duration_s)


def test_summary_empty_rejected():
    tl = fuse(*[np.zeros(0, dtype=bool)] * 5)
    with pytest.raises(DataError):
        session_summary(tl, 30.0)
