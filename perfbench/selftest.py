#!/usr/bin/env python3
"""Self-test of the benchmark itself, on a tiny seeded suite.

    python3 perfbench/selftest.py

Runs one fast untraced and one fast traced run of every workload on four
``full``-template sessions (the ``mini`` template has no yawns, so it cannot
train), with shortened training, and checks that each run passes its
correctness gate and emits every metric of BENCHMARK.json by name and unit,
and that the traced counts follow from the suite. Exits 0 when all hold.
"""

import json
import sys
from pathlib import Path

import run
import tracing

TINY = run.Suite(
    sessions=4,
    train_set=("cnn_epochs=25", "gaze_stages=40", "yawn_stages=20"),
)
SEED = 3


def main() -> int:
    if not run.use_sources():
        print(f"adwatch sources not found under {run.SRC}", file=sys.stderr)
        return 2
    run.WORK = run.ROOT / ".perfbench" / "selftest"
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if layers != tracing.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from the metrics the traced run reports")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's workloads")

    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            result = run.benchmark(workload, SEED, 0.0, trace, TINY)
            label = f"{name} trace={int(trace)}"
            print("\n".join(run.report_lines(result)[2:]), flush=True)
            if not result["correct"]:
                problems.append(f"{label}: gate failed: {result['errors']}")
                continue
            want = layers if trace else e2e
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not trace:
                if workload.report_name not in result["named"]:
                    problems.append(f"{label}: no {workload.report_name}")
                continue
            values = {m: v["value"] for m, v in result["metrics"].items()}
            problems += [f"{label}: {msg}" for msg in count_problems(name, values)]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def count_problems(name: str, values: dict) -> list[str]:
    """Counts the traced run must show for the tiny suite."""
    heldout = TINY.sessions // 2
    expected = {
        "score_heldout": {"artifacts.load_calls": heldout + 1,
                          "pipeline.score_session_calls": heldout},
        "ablate_heldout": {"artifacts.load_calls": 1,
                           "pipeline.score_session_calls": 9 * heldout},
        "train_default": {"boosting.fit_calls": 5, "pipeline.score_session_calls": 0},
        "simulate_default": {"workload.sessions": TINY.sessions, "session_io.rows_parsed": 0},
    }[name]
    out = [f"{m} = {values[m]}, expected {v}" for m, v in expected.items() if values[m] != v]
    if name == "train_default" and values["cnn.steps"] <= 0:
        out.append("no CNN training steps")
    if values["trace.spans"] <= 0 or values["cli.self_s"] <= 0:
        out.append("no spans recorded")
    return out


if __name__ == "__main__":
    sys.exit(main())
