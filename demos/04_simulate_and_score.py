"""Score a scripted session end to end.

A synthetic participant follows a dot, talks over the ad for a while,
yawns, and walks away; the pipeline must flag exactly those spans. Models
are trained on a small separate suite first (reduced stages/epochs keep
this demo quick).
"""

import numpy as np

from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.evaluation import frame_metrics
from adwatch.fusion import SIGNAL_NAMES, session_summary
from adwatch.pipeline import ArtifactSet, SessionDetectors, score_session
from adwatch.records import SessionManifest
from adwatch.synth import ScenarioScript, Segment, SuiteConfig, build_suite_scripts, generate
from adwatch.training import train_gaze_regressors, train_speaking_cnn, train_yawn_classifier

config = PipelineConfig(cnn_epochs=40, gaze_stages=40, yawn_stages=40,
                        max_speaking_train_windows=600)

print("training models on an 8-session synthetic suite...")
train = []
for sid, script, _ in build_suite_scripts(
    SuiteConfig(seed=20, n_sessions=8, device="mixed", train_fraction=1.0,
                yawn_prevalence=0.026)
):
    frames, truth = generate(script)
    manifest = SessionManifest(sid, script.device_type, script.frame_rate_hz, "f")
    train.append((frames, truth, manifest))
artifacts = ArtifactSet(
    gaze=train_gaze_regressors(train, config, seed=0)[0],
    speaking=train_speaking_cnn(train, config, seed=0)[0],
    yawn=train_yawn_classifier(train, config, seed=0)[0],
)

segments = [
    Segment("dot_at", 0.0, 4.0, dot=(0.0, 0.0)),
    Segment("dot_at", 4.0, 3.0, dot=(0.9, -0.9)),
    Segment("speak", 7.0, 0.8),                    # engaging: under a second
    Segment("dot_at", 7.8, 3.0, dot=(-0.9, 0.9)),
    Segment("speak", 10.8, 2.5),                   # distracting chat
    Segment("dot_at", 13.3, 2.0, dot=(0.0, 0.0)),
    Segment("off_screen", 15.3, 2.5, direction="left"),
    Segment("dot_at", 17.8, 2.0, dot=(0.0, 0.0)),
    Segment("off_screen", 19.8, 2.5, direction="right"),
    Segment("dot_at", 22.3, 2.0, dot=(0.0, 0.0)),
    Segment("yawn", 24.3, 3.0),
    Segment("dot_at", 27.3, 2.0, dot=(0.0, 0.0)),
    Segment("leave", 29.3, 2.5),
    Segment("dot_at", 31.8, 2.0, dot=(0.0, 0.0)),
]
script = ScenarioScript(seed=99, device_type="desktop", duration_s=33.8,
                        segments=segments, viewing_distance_cm=62.0)
frames, truth = generate(script)
manifest = SessionManifest("demo", "desktop", script.frame_rate_hz, "f")

session = SessionDetectors(frames, manifest, artifacts, ScoreConfig())
timeline = score_session(session)
screen = session.screen(True)

print(f"\nscreen estimate: {screen.width_cm:.1f} x {screen.height_cm:.1f} cm")
rep = frame_metrics(~timeline.attentive, ~truth.attentive)
print(f"frame agreement vs ground truth: g-mean {rep['g_mean']:.3f}, F1 {rep['f1']:.3f}\n")

print("second-by-second view (.=attentive, letters=active signal):")
codes = dict(zip(SIGNAL_NAMES, "GHSDU"))
row = []
for i in range(len(timeline)):
    active = timeline.active_names(i)
    row.append(codes[active[0]] if active else ".")
for start in range(0, len(row), 90):
    t = start / manifest.frame_rate_hz
    print(f"  {t:5.1f}s  {''.join(row[start:start + 90])}")

summary = session_summary(timeline, manifest.frame_rate_hz)
print(f"\ninattentive: {summary['percent_inattentive']:.1f}% of frames")
for name, events in summary["events"].items():
    for ev in events:
        print(f"  {name:11s} {ev['start_s']:6.2f}s - {ev['end_s']:6.2f}s  ({ev['duration_s']:.2f}s)")
