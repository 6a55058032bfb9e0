"""Why each processing step and each distraction signal earns its keep.

Reproduces the two ablation families on synthetic data: removing gaze
processing steps (on desktop sessions with displaced webcams, where
normalization matters most) and adding distraction signals one at a time.
"""

from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.evaluation import render_table, run_ablation
from adwatch.pipeline import ArtifactSet, TABLE1_VARIANTS, TABLE3_VARIANTS
from adwatch.records import SessionManifest
from adwatch.synth import SuiteConfig, build_suite_scripts, generate
from adwatch.training import train_gaze_regressors, train_speaking_cnn, train_yawn_classifier

config = PipelineConfig(cnn_epochs=40, gaze_stages=40, yawn_stages=40,
                        max_speaking_train_windows=600)


def make(suite_cfg):
    out = []
    for sid, script, _ in build_suite_scripts(suite_cfg):
        frames, truth = generate(script)
        out.append((frames, truth,
                    SessionManifest(sid, script.device_type, script.frame_rate_hz, "f")))
    return out


print("training models...")
train = make(SuiteConfig(seed=20, n_sessions=8, device="mixed", train_fraction=1.0,
                         yawn_prevalence=0.026))
artifacts = ArtifactSet(
    gaze=train_gaze_regressors(train, config, seed=0)[0],
    speaking=train_speaking_cnn(train, config, seed=0)[0],
    yawn=train_yawn_classifier(train, config, seed=0)[0],
)

offset_suite = make(SuiteConfig(seed=31, n_sessions=8, template="gaze_only",
                                device="desktop", camera_offset_max_cm=10.0,
                                train_fraction=0.0))
print("\nremoving gaze processing steps (desktop, displaced webcams):\n")
print(render_table(run_ablation(offset_suite, artifacts, TABLE1_VARIANTS, ScoreConfig())))

full_suite = make(SuiteConfig(seed=32, n_sessions=10, device="mixed",
                              train_fraction=0.0, yawn_prevalence=0.026))
print("adding distraction signals one at a time:\n")
print(render_table(run_ablation(full_suite, artifacts, TABLE3_VARIANTS, ScoreConfig())))
