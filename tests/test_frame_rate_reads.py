"""The manifest's ``frame_rate_hz`` is read in few places, and by no detector.

Every duration rule counts frames; ``pipeline.SessionDetectors`` is the one
place that turns the config's seconds into frame counts at the manifest's
rate. A detector that took the rate itself would bring a second clock back,
so only the modules and top-level definitions in ``ALLOWED`` may name
``frame_rate_hz``: as a variable, an attribute, a parameter or a keyword.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adwatch"
NAME = "frame_rate_hz"

# module -> the top-level definitions that may name it, or None for all of them
ALLOWED = {
    "records": None,                         # the manifest and its rule
    "session_io": {"load_session"},          # the timestamp check
    "pipeline": {"SessionDetectors"},        # seconds to frames
    "fusion": {"session_summary"},           # a summary reports seconds
    "cli": None,
    "synth": None,                           # a script's rate
}
DETECTORS = ("temporal", "speaking", "drowsiness", "gaze", "head", "geometry")


def names(tree: ast.AST) -> list[int]:
    """The lines of every node in ``tree`` that names ``NAME``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name) and node.id == NAME
            or isinstance(node, ast.Attribute) and node.attr == NAME
            or isinstance(node, (ast.arg, ast.keyword)) and node.arg == NAME
        ):
            found.append(node.lineno)
    return found


def outside_allowed(module: str, tree: ast.Module) -> list[str]:
    """``module:line (definition)`` of each naming that ``ALLOWED`` does not admit."""
    allowed = ALLOWED.get(module, set())
    found = []
    for node in tree.body:
        owner = getattr(node, "name", None)
        if allowed is None or owner in allowed:
            continue
        found.extend(f"{module}:{line} ({owner or 'module level'})" for line in names(node))
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_only_the_allowed_definitions_name_the_frame_rate():
    outside = [
        found
        for path in sorted(PACKAGE.glob("*.py"))
        for found in outside_allowed(path.stem, parse(path))
    ]
    assert outside == []


def test_no_detector_module_names_the_frame_rate():
    assert {module: names(parse(PACKAGE / f"{module}.py")) for module in DETECTORS} == {
        module: [] for module in DETECTORS
    }


def test_each_allowed_place_names_it():
    # an entry that no longer names the rate should leave the table
    for module, owners in ALLOWED.items():
        tree = parse(PACKAGE / f"{module}.py")
        if owners is None:
            assert names(tree), module
            continue
        for node in tree.body:
            if getattr(node, "name", None) in owners:
                assert names(node), (module, node.name)


def test_the_guard_flags_each_way_to_name_it():
    source = """
import numpy as np

def long_runs(flags, frame_rate_hz, seconds):
    return flags

class Rule:
    def frames(self, manifest):
        return manifest.frame_rate_hz

RATE = dict(frame_rate_hz=30.0)
frame_rate_hz = 30.0
LABEL = "frame_rate_hz"

def session_summary(timeline, frame_rate_hz):
    return timeline
"""
    tree = ast.parse(source)
    assert sorted(names(tree)) == [4, 9, 11, 12, 15]
    assert outside_allowed("temporal", tree) == [
        "temporal:4 (long_runs)", "temporal:9 (Rule)", "temporal:11 (module level)",
        "temporal:12 (module level)", "temporal:15 (session_summary)",
    ]
    assert outside_allowed("fusion", tree) == [
        "fusion:4 (long_runs)", "fusion:9 (Rule)", "fusion:11 (module level)", "fusion:12 (module level)",
    ]
    assert outside_allowed("synth", tree) == []
