"""Seeded synthetic session generator with frame-accurate ground truth.

A session is a scripted sequence of segments that tile its duration:
on-screen dot fixations at scripted screen positions, off-screen glances in
the four cardinal directions, speaking and yawning bouts, eye closures, and
intervals where the participant leaves. Every frame is synthesized from the
scripted gaze target: the pupil ray points at the target (the direction
carries a configurable systematic magnification plus angular noise, imitating
an imperfect tracker), the head carries a segment-dependent share of the
angular offset (large for "owl" glances, near zero for "lizard" ones, which
also keeps tracker quality high), and the mouth/AU channels follow the
scripted behavior (3-6 Hz lip oscillation while speaking, a slow
mouth-aspect ramp with jaw-drop AU while yawning).

Camera placement is explicit: the camera sits at the screen top center
(desktop/portrait mobile) or at a side edge (rotated mobile), optionally
displaced further for desktops; all emitted coordinates are camera-relative,
so a displaced camera shifts every raw intersection by the same constant.

The ground-truth timeline marks each frame with its attention label, the
responsible signal, the scripted activity, and the true gaze target, which
makes the generator the oracle for end-to-end and ablation tests.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .config import _is_real, _is_real_pair, _read_json_object, check_seed
from .errors import ConfigError
from .fusion import SIGNAL_NAMES, DistractionTimeline
from .records import AU_INDEX, FrameArrays, SessionManifest
from .session_io import write_frames, write_manifest, write_timeline

PathLike = Union[str, Path]

SEGMENT_KINDS = ("dot_at", "off_screen", "speak", "yawn", "close_eyes", "leave")
OFF_DIRECTIONS = ("up", "down", "left", "right")

# world constants (the pipeline's defaults assume the same geometry)
PVD_COEFFICIENT = 3.0
DESKTOP_ASPECT = 16.0 / 9.0
MOBILE_LONG_CM = 14.0
MOBILE_SHORT_CM = 7.0
DEFAULT_DESKTOP_DISTANCE_CM = 60.0
DEFAULT_MOBILE_DISTANCE_CM = 30.0
OFF_SCREEN_FACTOR = 1.5          # times the larger half-extent, beyond the boundary

# behavior constants
LIP_BASE = 0.02
SPEAK_AMP = 0.035
YAWN_GAP = 0.23
MOUTH_WIDTH = 0.32
YAWN_ACTIVE_LEVEL = 0.15         # ramp level above which the yawn counts as active
ON_SCREEN_HEAD_MIX = 0.3

SPEAK_MIN_S = 1.0
CLOSURE_MIN_S = 2.0
LEAVE_MIN_S = 1.0

# each signal's bit in the truth mask
_BIT_GAZE_EYE = 1 << SIGNAL_NAMES.index("gaze_eye")
_BIT_GAZE_HEAD = 1 << SIGNAL_NAMES.index("gaze_head")
_BIT_SPEAKING = 1 << SIGNAL_NAMES.index("speaking")
_BIT_DROWSY = 1 << SIGNAL_NAMES.index("drowsiness")
_BIT_UNATTENDED = 1 << SIGNAL_NAMES.index("unattended")


@dataclass(frozen=True)
class Segment:
    kind: str
    start_s: float
    duration_s: float
    dot: Optional[tuple[float, float]] = None     # fractions of the half extents
    direction: Optional[str] = None               # off_screen only

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class ScenarioScript:
    seed: int = 0
    device_type: str = "desktop"
    duration_s: float = 160.0
    segments: list[Segment] = field(default_factory=list)
    camera_offset_cm: tuple[float, float] = (0.0, 0.0)    # desktop webcams only
    orientation: str = "centered"                         # mobile camera orientation
    behavior_mix: float = 0.85       # head share of off-screen glances (owl ~0.85, lizard ~0.1)
    gaze_noise_deg: float = 0.8
    landmark_jitter: float = 0.01
    gaze_scale: float = 1.12         # systematic tracker magnification of gaze angles
    viewing_distance_cm: Optional[float] = None
    frame_rate_hz: float = 30.0


def validate_script(script: ScenarioScript) -> None:
    check_seed(script.seed)
    if not script.segments:
        raise ConfigError("script has no segments")
    if script.device_type not in ("desktop", "mobile"):
        raise ConfigError(f"unknown device_type {script.device_type!r}")
    if script.orientation not in ("centered", "clockwise", "anticlockwise"):
        raise ConfigError(f"unknown orientation {script.orientation!r}")
    if not 0.0 <= script.behavior_mix <= 1.0:
        raise ConfigError("behavior_mix must lie in [0, 1]")
    vd = script.viewing_distance_cm
    if vd is not None and not (_is_real(vd) and vd > 0):
        raise ConfigError(f"viewing_distance_cm must be a positive number or null, got {vd!r}")
    if not _is_real_pair(script.camera_offset_cm):
        raise ConfigError(
            f"camera_offset_cm must be a pair of finite numbers, got {script.camera_offset_cm!r}"
        )
    segs = script.segments
    tol = 1e-6
    for i, seg in enumerate(segs):
        if seg.kind not in SEGMENT_KINDS:
            raise ConfigError(f"segment {i}: unknown kind {seg.kind!r}")
        if seg.duration_s <= 0:
            raise ConfigError(f"segment {i}: duration must be positive")
        if seg.kind == "off_screen" and seg.direction not in OFF_DIRECTIONS:
            raise ConfigError(f"segment {i}: off_screen needs a direction in {OFF_DIRECTIONS}")
        if seg.kind == "dot_at" and seg.dot is None:
            raise ConfigError(f"segment {i}: dot_at needs a dot position")
        if seg.dot is not None and not _is_real_pair(seg.dot):
            raise ConfigError(f"segment {i}: dot must be a pair of finite numbers, got {seg.dot!r}")
    order = sorted(range(len(segs)), key=lambda i: segs[i].start_s)
    if abs(segs[order[0]].start_s) > tol:
        raise ConfigError(f"segment {order[0]}: first segment must start at 0")
    for a, b in zip(order, order[1:]):
        gap = segs[b].start_s - segs[a].end_s
        if gap < -tol:
            raise ConfigError(f"overlapping segments {a} and {b}")
        if gap > tol:
            raise ConfigError(f"segments {a} and {b} leave a gap; segments must tile the duration")
    if abs(segs[order[-1]].end_s - script.duration_s) > tol:
        raise ConfigError(
            f"segments end at {segs[order[-1]].end_s:.6f}s but duration_s is {script.duration_s:.6f}s"
        )


def script_world(script: ScenarioScript) -> tuple[float, float, np.ndarray, float]:
    """Resolve a script's physical setup: (screen width, screen height, camera
    position on the plane in screen-centered coordinates, viewing distance)."""
    if script.device_type == "desktop":
        vd = script.viewing_distance_cm or DEFAULT_DESKTOP_DISTANCE_CM
        height = vd / PVD_COEFFICIENT
        width = DESKTOP_ASPECT * height
        cam = np.array([0.0, height / 2]) + np.asarray(script.camera_offset_cm, dtype=np.float64)
        return width, height, cam, vd
    vd = script.viewing_distance_cm or DEFAULT_MOBILE_DISTANCE_CM
    if script.orientation == "centered":
        width, height = MOBILE_SHORT_CM, MOBILE_LONG_CM
        cam = np.array([0.0, height / 2])
    else:
        width, height = MOBILE_LONG_CM, MOBILE_SHORT_CM
        sign = 1.0 if script.orientation == "clockwise" else -1.0
        cam = np.array([sign * width / 2, 0.0])
    return width, height, cam, vd


def _off_screen_target(direction: str, width: float, height: float) -> np.ndarray:
    reach = OFF_SCREEN_FACTOR * max(width, height) / 2
    if direction == "left":
        return np.array([-(width / 2 + reach), 0.0])
    if direction == "right":
        return np.array([width / 2 + reach, 0.0])
    if direction == "up":
        return np.array([0.0, height / 2 + reach])
    return np.array([0.0, -(height / 2 + reach)])


def generate(script: ScenarioScript) -> tuple[FrameArrays, DistractionTimeline]:
    """Synthesize one session and its frame-accurate ground truth."""
    validate_script(script)
    fps = script.frame_rate_hz
    n = int(round(script.duration_s * fps))
    if n < 1:
        raise ConfigError("script too short for a single frame")
    rng = np.random.default_rng(script.seed)
    times = np.arange(n) / fps

    width, height, cam, vd = script_world(script)

    # -- session-level draws (fixed order) --------------------------------
    base_xy = rng.normal(0.0, [1.5, 1.0])
    if script.device_type == "mobile" and script.orientation != "centered":
        yaw_sign = -1.0 if script.orientation == "clockwise" else 1.0
        yaw0 = yaw_sign * 15.0 + rng.normal(0.0, 2.0)
    else:
        yaw0 = rng.normal(0.0, 3.0)
    pitch0 = rng.normal(0.0, 2.0)
    roll0 = rng.normal(0.0, 2.0)
    mouth_w0 = MOUTH_WIDTH + rng.normal(0.0, 0.015)
    sway_amp = rng.uniform([0.3, 0.3, 0.3], [0.9, 0.9, 0.9])
    sway_freq = rng.uniform([0.05, 0.05, 0.05], [0.25, 0.25, 0.25])
    sway_phase = rng.uniform(0.0, 2 * np.pi, 3)

    # -- per-segment fills --------------------------------------------------
    segs = sorted(script.segments, key=lambda s: s.start_s)
    seg_starts = np.array([s.start_s for s in segs])
    seg_idx = np.clip(np.searchsorted(seg_starts, times, side="right") - 1, 0, len(segs) - 1)

    target = np.zeros((n, 2))
    head_mix = np.full(n, ON_SCREEN_HEAD_MIX)
    leave_mask = np.zeros(n, dtype=bool)
    lip_gap = np.full(n, LIP_BASE)
    mouth_width = np.full(n, mouth_w0)
    yawn_ramp = np.zeros(n)
    speak_mask = np.zeros(n, dtype=bool)
    closure_mask = np.zeros(n, dtype=bool)
    activity = np.full(n, "dot", dtype=object)

    mask = np.zeros(n, dtype=np.uint8)

    for k, seg in enumerate(segs):
        sel = seg_idx == k
        if not np.any(sel):
            continue
        local = times[sel] - seg.start_s
        if seg.kind == "dot_at":
            fx, fy = seg.dot
            target[sel] = [fx * width / 2, fy * height / 2]
            activity[sel] = "dot"
        elif seg.kind == "off_screen":
            target[sel] = _off_screen_target(seg.direction, width, height)
            head_mix[sel] = script.behavior_mix
            activity[sel] = f"off_screen_{seg.direction}"
            mask[sel] |= _BIT_GAZE_HEAD if script.behavior_mix >= 0.5 else _BIT_GAZE_EYE
        elif seg.kind == "speak":
            freq = rng.uniform(3.0, 6.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            lip_gap[sel] = LIP_BASE + SPEAK_AMP + SPEAK_AMP * np.sin(2 * np.pi * freq * local + phase)
            speak_mask[sel] = True
            activity[sel] = "speak"
            if seg.duration_s > SPEAK_MIN_S:
                mask[sel] |= _BIT_SPEAKING
        elif seg.kind == "yawn":
            ramp = np.sin(np.pi * local / seg.duration_s) ** 2
            yawn_ramp[sel] = ramp
            lip_gap[sel] = LIP_BASE + YAWN_GAP * ramp
            mouth_width[sel] = mouth_w0 - 0.04 * ramp
            active = ramp >= YAWN_ACTIVE_LEVEL
            act = np.where(active, "yawn_active", "yawn_edge")
            activity[sel] = act
            rows = np.flatnonzero(sel)
            mask[rows[active]] |= _BIT_DROWSY
        elif seg.kind == "close_eyes":
            closure_mask[sel] = True
            activity[sel] = "close_eyes"
            if seg.duration_s > CLOSURE_MIN_S:
                mask[sel] |= _BIT_DROWSY
        elif seg.kind == "leave":
            leave_mask[sel] = True
            activity[sel] = "leave"
            if seg.duration_s > LEAVE_MIN_S:
                mask[sel] |= _BIT_UNATTENDED

    # -- per-frame draws (fixed order) -------------------------------------
    gaze_noise = rng.standard_normal((n, 2))
    quality_noise = rng.normal(0.0, 0.02, n)
    head_jitter = rng.normal(0.0, 0.3, (n, 3))
    lm_jitter = rng.normal(0.0, script.landmark_jitter, (n, 4, 2)) if script.landmark_jitter > 0 else np.zeros((n, 4, 2))
    au_noise = np.abs(rng.normal(0.0, 2.0, (n, len(AU_INDEX))))
    closure_noise = rng.normal(0.0, 2.0, n)
    face_noise = rng.normal(0.0, 0.01, n)

    # -- geometry -----------------------------------------------------------
    sway = sway_amp * np.sin(2 * np.pi * sway_freq * times[:, None] + sway_phase)
    pupil_world = np.empty((n, 3))
    pupil_world[:, 0] = base_xy[0] + sway[:, 0]
    pupil_world[:, 1] = base_xy[1] + sway[:, 1]
    pupil_world[:, 2] = vd + sway[:, 2]
    pupil_cam = pupil_world.copy()
    pupil_cam[:, :2] -= cam

    target_cam = target - cam
    d_true = np.empty((n, 3))
    d_true[:, 0] = target_cam[:, 0] - pupil_cam[:, 0]
    d_true[:, 1] = target_cam[:, 1] - pupil_cam[:, 1]
    d_true[:, 2] = -pupil_cam[:, 2]

    d_meas = d_true.copy()
    d_meas[:, :2] *= script.gaze_scale
    length = np.linalg.norm(d_meas, axis=1, keepdims=True)
    if script.gaze_noise_deg > 0:
        unit = d_meas / length
        ex = np.array([1.0, 0.0, 0.0])
        u = np.cross(unit, ex)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = np.cross(unit, u)
        sigma = np.deg2rad(script.gaze_noise_deg)
        unit = unit + sigma * (gaze_noise[:, :1] * u + gaze_noise[:, 1:2] * v)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        direction = unit * length
    else:
        direction = d_meas

    # -- head pose and tracker quality --------------------------------------
    alpha_x = np.degrees(np.arctan2(d_true[:, 0], -d_true[:, 2]))
    alpha_y = np.degrees(np.arctan2(d_true[:, 1], -d_true[:, 2]))
    yaw = yaw0 + head_mix * alpha_x + head_jitter[:, 0]
    pitch = pitch0 + head_mix * alpha_y + head_jitter[:, 1]
    roll = roll0 + head_jitter[:, 2]
    deliberate_dev = np.abs(head_mix * alpha_x) + np.abs(head_mix * alpha_y)
    quality = np.clip(0.92 - 0.02 * np.maximum(0.0, deliberate_dev - 5.0) + quality_noise, 0.05, 0.99)

    # -- mouth, AUs, closure -------------------------------------------------
    mouth = np.zeros((n, 4, 2))
    mouth[:, 0, 1] = lip_gap / 2
    mouth[:, 1, 1] = -lip_gap / 2
    mouth[:, 2, 0] = -mouth_width / 2
    mouth[:, 3, 0] = mouth_width / 2
    mouth += lm_jitter

    aus = au_noise.copy()
    osc = (lip_gap - LIP_BASE) / SPEAK_AMP - 1.0   # speak oscillation in [-1, 1]
    aus[speak_mask, AU_INDEX["AU25"]] += 18.0 + 8.0 * osc[speak_mask]
    aus[speak_mask, AU_INDEX["AU26"]] += 12.0 + 6.0 * osc[speak_mask]
    aus[:, AU_INDEX["AU26"]] += 65.0 * yawn_ramp
    aus[:, AU_INDEX["AU25"]] += 40.0 * yawn_ramp
    aus[closure_mask, AU_INDEX["AU43"]] += 80.0
    aus = np.clip(aus, 0.0, 100.0)

    eye_closure = 1.0 + np.abs(closure_noise)
    eye_closure[closure_mask] = 88.0 + closure_noise[closure_mask]
    eye_closure = np.clip(eye_closure, 0.0, 100.0)

    orient_shift = {"centered": 0.0, "clockwise": -0.3, "anticlockwise": 0.3}[script.orientation]
    if script.device_type != "mobile":
        orient_shift = 0.0
    face_center = np.clip(0.5 + 0.004 * pupil_cam[:, 0] + orient_shift + face_noise, 0.0, 1.0)

    # -- leave sentinels -----------------------------------------------------
    live = ~leave_mask
    pupil_cam[leave_mask] = 0.0
    direction[leave_mask] = 0.0
    quality[leave_mask] = 0.0
    yaw[leave_mask] = 0.0
    pitch[leave_mask] = 0.0
    roll[leave_mask] = 0.0
    mouth[leave_mask] = 0.0
    aus[leave_mask] = 0.0
    eye_closure[leave_mask] = 0.0
    face_center[leave_mask] = 0.5

    frames = FrameArrays(
        frame_index=np.arange(n, dtype=np.int64),
        timestamp_ms=times * 1000.0,
        pupil=pupil_cam,
        direction=direction,
        quality=np.round(quality, 4),
        yaw=np.round(yaw, 4),
        pitch=np.round(pitch, 4),
        roll=np.round(roll, 4),
        mouth=np.round(mouth, 6),
        aus=np.round(aus, 3),
        eye_closure=np.round(eye_closure, 3),
        face_expr=live.copy(),
        face_gaze=live.copy(),
        face_center_x=np.round(face_center, 4),
    )

    targets_list: list[Optional[tuple[float, float]]] = [
        None if leave_mask[i] else (float(target[i, 0]), float(target[i, 1])) for i in range(n)
    ]
    truth = DistractionTimeline(
        mask=mask,
        frame_index=np.arange(n, dtype=np.int64),
        activity=[str(a) for a in activity],
        target_cm=targets_list,
    )
    return frames, truth


# ---------------------------------------------------------------------------
# script templates
# ---------------------------------------------------------------------------

_DOT_GRID = (
    (0.0, 0.0), (-0.9, 0.0), (0.9, 0.0), (0.0, -0.9), (0.0, 0.9),
    (-0.9, -0.9), (0.9, 0.9), (-1.0, 0.0), (0.0, 1.0),
)


def _interleave(dots: list, distractors: list) -> list:
    """Alternate dots and distractors so distinct events never touch."""
    out = []
    di = 0
    for d in distractors:
        if di < len(dots):
            out.append(dots[di])
            di += 1
        out.append(d)
    out.extend(dots[di:])
    return out


def build_template_script(
    rng: np.random.Generator,
    device_type: str,
    template: str = "full",
    orientation: str = "centered",
    camera_offset_cm: tuple[float, float] = (0.0, 0.0),
    behavior_mix: float = 0.85,
    gaze_noise_deg: float = 0.8,
    landmark_jitter: float = 0.01,
    gaze_scale: float = 1.12,
    yawn_prevalence: Optional[float] = None,
    frame_rate_hz: float = 30.0,
) -> ScenarioScript:
    """Build a protocol-style script: dot fixations over the screen (far
    edges included), off-screen glances in all four directions, and the
    scripted distractor bouts, with a dot between any two distractors."""
    if device_type == "desktop":
        vd = float(rng.uniform(55.0, 85.0))
    else:
        vd = float(rng.uniform(27.0, 33.0))

    dot_specs = [("dot_at", 2.0, dict(dot=d)) for d in _DOT_GRID]

    distractors: list[list] = []
    for direction in OFF_DIRECTIONS:
        distractors.append(["off_screen", 2.5, dict(direction=direction)])
    if template == "full":
        distractors.append(["speak", 0.8, {}])       # engaging: under a second
        distractors.append(["speak", 2.2, {}])
        distractors.append(["close_eyes", 0.4, {}])  # blink
        distractors.append(["close_eyes", 3.0, {}])
        yawn_spec = ["yawn", 4.0, {}]
        distractors.append(yawn_spec)
        distractors.append(["leave", 0.6, {}])       # brief occlusion
        distractors.append(["leave", 2.4, {}])
    elif template == "mini":
        dot_specs = dot_specs[:4]
        distractors = [
            ["off_screen", 2.0, dict(direction="left")],
            ["speak", 1.6, {}],
            ["leave", 1.6, {}],
        ]
    elif template != "gaze_only":
        raise ConfigError(f"unknown template {template!r}")

    rng.shuffle(distractors)
    # pad with filler dots so every distractor is flanked by dots
    need = max(0, len(distractors) + 1 - len(dot_specs))
    for _ in range(need):
        fx, fy = rng.uniform(-0.9, 0.9, 2)
        dot_specs.append(("dot_at", 2.0, dict(dot=(float(fx), float(fy)))))
    rng.shuffle(dot_specs)

    if template == "full" and yawn_prevalence is not None:
        # a sin^2 ramp is "active" for ~74.7% of its span; size the yawn so
        # active frames hit the requested share of the whole session
        other_s = sum(d for _, d, _ in dot_specs) + sum(
            d for kind, d, _ in distractors if kind != "yawn"
        )
        if not 0.0 < yawn_prevalence < 0.7:
            raise ConfigError("yawn_prevalence must lie in (0, 0.7)")
        yawn_spec[1] = max(0.8, yawn_prevalence * other_s / (0.747 - yawn_prevalence))

    ordered = _interleave(dot_specs, distractors)
    segments = []
    t = 0.0
    for kind, dur, payload in ordered:
        segments.append(Segment(kind=kind, start_s=t, duration_s=dur, **payload))
        t += dur

    return ScenarioScript(
        seed=int(rng.integers(2**31 - 1)),
        device_type=device_type,
        duration_s=t,
        segments=segments,
        camera_offset_cm=camera_offset_cm,
        orientation=orientation,
        behavior_mix=behavior_mix,
        gaze_noise_deg=gaze_noise_deg,
        landmark_jitter=landmark_jitter,
        gaze_scale=gaze_scale,
        viewing_distance_cm=vd,
        frame_rate_hz=frame_rate_hz,
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteConfig:
    seed: int = 0
    n_sessions: int = 20
    template: str = "full"            # full | gaze_only | mini
    device: str = "mixed"             # desktop | mobile | mixed
    train_fraction: float = 0.5
    camera_offset_max_cm: float = 0.0  # desktop external webcams
    owl_fraction: float = 0.6
    owl_mix: float = 0.85
    lizard_mix: float = 0.1
    gaze_noise_deg: float = 0.8
    landmark_jitter: float = 0.01
    gaze_scale: float = 1.12
    yawn_prevalence: Optional[float] = None
    frame_rate_hz: float = 30.0


@dataclass
class SuiteEntry:
    session_id: str
    device_type: str
    manifest_path: str
    split: str
    orientation: str


@dataclass
class SuiteIndex:
    seed: int
    entries: list[SuiteEntry]

    def by_split(self, split: str) -> list[SuiteEntry]:
        if split == "all":
            return list(self.entries)
        return [e for e in self.entries if e.split == split]


def build_suite_scripts(config: SuiteConfig) -> list[tuple[str, ScenarioScript, str]]:
    """Deterministically expand a suite config into per-session scripts.

    Returns (session_id, script, split) triples.
    """
    check_seed(config.seed)
    if config.n_sessions < 1:
        raise ConfigError("n_sessions must be at least 1")
    out = []
    n_train = int(round(config.train_fraction * config.n_sessions))
    orientations = ("centered", "clockwise", "anticlockwise")
    for i in range(config.n_sessions):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
        if config.device == "mixed":
            device = "desktop" if i % 2 == 0 else "mobile"
        else:
            device = config.device
        orientation = "centered"
        if device == "mobile":
            orientation = orientations[(i // 2 if config.device == "mixed" else i) % 3]
        offset = (0.0, 0.0)
        if device == "desktop" and config.camera_offset_max_cm > 0:
            mag = rng.uniform(0.2, 1.0) * config.camera_offset_max_cm
            ang = rng.uniform(0.0, 2 * np.pi)
            offset = (float(mag * np.cos(ang)), float(mag * np.sin(ang)))
        owl = rng.uniform() < config.owl_fraction
        mix = config.owl_mix if owl else config.lizard_mix
        script = build_template_script(
            rng,
            device_type=device,
            template=config.template,
            orientation=orientation,
            camera_offset_cm=offset,
            behavior_mix=mix,
            gaze_noise_deg=config.gaze_noise_deg,
            landmark_jitter=config.landmark_jitter,
            gaze_scale=config.gaze_scale,
            yawn_prevalence=config.yawn_prevalence,
            frame_rate_hz=config.frame_rate_hz,
        )
        split = "train" if i < n_train else "held_out"
        sid = f"s{i:03d}_{device}"
        out.append((sid, script, split))
    return out


def _write_session(script: ScenarioScript, session_id: str, sdir: Path) -> None:
    """Generate one scripted session into ``sdir``: the frame stream, the
    ground-truth timeline, and the manifest pointing at both."""
    frames, truth = generate(script)
    write_frames(frames, sdir / "frames.jsonl")
    write_timeline(truth, sdir / "truth.jsonl")
    manifest = SessionManifest(
        session_id=session_id,
        device_type=script.device_type,
        frame_rate_hz=script.frame_rate_hz,
        frame_source="frames.jsonl",
        ground_truth="truth.jsonl",
    )
    write_manifest(manifest, sdir / "manifest.json")


def generate_suite(config: SuiteConfig, out_dir: PathLike) -> SuiteIndex:
    """Generate a whole suite to disk: one directory per session holding the
    manifest, the frame stream, and the ground-truth timeline."""
    scripts = build_suite_scripts(config)      # a bad config fails before any write
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for sid, script, split in scripts:
        _write_session(script, sid, out_dir / "sessions" / sid)
        entries.append(
            SuiteEntry(
                session_id=sid,
                device_type=script.device_type,
                manifest_path=str(Path("sessions") / sid / "manifest.json"),
                split=split,
                orientation=script.orientation,
            )
        )
    index = SuiteIndex(seed=config.seed, entries=entries)
    doc = {
        "seed": config.seed,
        "config": dataclasses.asdict(config),
        "sessions": [dataclasses.asdict(e) for e in entries],
    }
    (out_dir / "suite.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return index


def load_suite(suite_dir: PathLike) -> SuiteIndex:
    path = Path(suite_dir) / "suite.json"
    doc = _read_json_object(path, "suite index", ConfigError)
    try:
        seed = doc["seed"]
        entries = [SuiteEntry(**e) for e in doc["sessions"]]
    except KeyError as exc:
        raise ConfigError(f"suite index {path}: missing key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"suite index {path}: malformed ({exc})") from exc
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"suite index {path}: seed must be an integer, got {seed!r}")
    for i, entry in enumerate(entries):
        for name, value in vars(entry).items():
            if not isinstance(value, str):
                raise ConfigError(
                    f"suite index {path}: sessions[{i}]: {name} must be a string, got {value!r}"
                )
    return SuiteIndex(seed=seed, entries=entries)


# ---------------------------------------------------------------------------
# script files
# ---------------------------------------------------------------------------

def load_script(path: PathLike) -> ScenarioScript:
    path = Path(path)
    doc = _read_json_object(path, "script", ConfigError)
    try:
        segments = [
            Segment(
                kind=s["kind"],
                start_s=float(s["start_s"]),
                duration_s=float(s["duration_s"]),
                dot=tuple(s["dot"]) if s.get("dot") is not None else None,
                direction=s.get("direction"),
            )
            for s in doc["segments"]
        ]
        script = ScenarioScript(
            seed=doc.get("seed", 0),        # checked, not coerced, by validate_script
            device_type=str(doc.get("device_type", "desktop")),
            duration_s=float(doc["duration_s"]),
            segments=segments,
            camera_offset_cm=tuple(doc.get("camera_offset_cm", (0.0, 0.0))),
            orientation=str(doc.get("orientation", "centered")),
            behavior_mix=float(doc.get("behavior_mix", 0.85)),
            gaze_noise_deg=float(doc.get("gaze_noise_deg", 0.8)),
            landmark_jitter=float(doc.get("landmark_jitter", 0.01)),
            gaze_scale=float(doc.get("gaze_scale", 1.12)),
            viewing_distance_cm=doc.get("viewing_distance_cm"),
            frame_rate_hz=float(doc.get("frame_rate_hz", 30.0)),
        )
        validate_script(script)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"script {path}: {exc}") from exc
    return script

