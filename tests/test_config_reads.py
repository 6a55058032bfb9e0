"""Each config field is read on its own side of the train/score split.

``PipelineConfig`` holds what ``train`` reads and ``ScoreConfig`` what
``score`` and ``ablate`` read. A field that nothing reads is a knob that
changes nothing. A scoring module that read a ``PipelineConfig`` field would
score with a value that the models were not trained at: the values that shape
a model's input travel in its artifact instead, under names of the model's
own. So every field of both objects is read as an attribute somewhere in the
package, and no scoring module reads, by name, a field that only
``PipelineConfig`` has.
"""

import ast
from dataclasses import fields
from pathlib import Path

from adwatch.config import PipelineConfig, ScoreConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adwatch"
SCORING = ("pipeline", "gaze", "head", "speaking", "drowsiness", "fusion", "evaluation")
TRAIN_ONLY = {f.name for f in fields(PipelineConfig)} - {f.name for f in fields(ScoreConfig)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def attribute_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every attribute that ``tree`` reads."""
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def train_only_reads(module: str, tree: ast.AST) -> list[str]:
    """``module:line name`` of each read of a field that only PipelineConfig has."""
    return [f"{module}:{line} {name}" for name, line in sorted(attribute_reads(tree), key=lambda r: r[1])
            if name in TRAIN_ONLY]


def package_reads() -> set[str]:
    return {name for path in PACKAGE.glob("*.py") for name, _ in attribute_reads(parse(path))}


def test_every_score_config_field_is_read():
    read = package_reads()
    assert [f.name for f in fields(ScoreConfig) if f.name not in read] == []


def test_every_pipeline_config_field_is_read():
    read = package_reads()
    assert [f.name for f in fields(PipelineConfig) if f.name not in read] == []


def test_no_scoring_module_reads_a_training_field():
    assert [found for module in SCORING for found in train_only_reads(module, parse(PACKAGE / f"{module}.py"))] == []


def test_the_guard_flags_each_read_of_a_training_field():
    source = """
def build_windows(frames, config):
    half = config.window_span_s / 2
    return frames[: config.window_samples]

class Detectors:
    def rays(self):
        return valid_gaze_rays(self.frames, self.config.quality_floor)

def score(frames, config, quality_floor=0.3):
    config.window_span_s = 2.0
    model = dict(min_valid_samples=15)
    return config.speaking_threshold, model["max_hold_samples"], quality_floor, model.windows.span_s
"""
    # reads by attribute, however deep; an assignment, a keyword, a key, a
    # parameter and a field of the model's own are not reads of the config
    assert train_only_reads("speaking", ast.parse(source)) == [
        "speaking:3 window_span_s", "speaking:4 window_samples", "speaking:8 quality_floor",
    ]
