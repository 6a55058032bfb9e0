"""Where on the screen plane is this person looking?

The gaze tracker reports a 3-D pupil position and a gaze direction per
frame. With the camera at the origin and the screen in the Z=0 plane, the
ray p + D*t crosses the plane at t = -z_p / z_d. This demo walks through
the three ray regimes and shows the scale invariance of the result.
"""

import numpy as np

from adwatch.geometry import intersect_gaze_batch

print("A viewer sits 60 cm from the screen, pupil at (0, 0, 60).")
print()

cases = [
    ("straight at the camera", (0.0, 0.0, -1.0)),
    ("glancing right and up", (0.25, 0.12, -1.0)),
    ("looking over the screen", (0.0, 0.9, -0.3)),
    ("gaze away from the screen", (0.1, 0.0, 0.5)),
    ("gaze parallel to the plane", (1.0, 0.0, 0.0)),
]

points, ts, toward, parallel = intersect_gaze_batch(
    [(0, 0, 60)] * len(cases), [direction for _, direction in cases]
)
for (label, _), (x, y), t, ahead, flat in zip(cases, points, ts, toward, parallel):
    if flat:
        status, where = "parallel", "never meets the plane"
    else:
        status = "toward_plane" if ahead else "away_from_plane"
        where = f"({x:7.2f}, {y:7.2f}) cm, t = {t:8.2f}"
    print(f"  {label:28s} -> {status:16s} {where}")

print()
print("The tracker's direction vector has arbitrary length; scaling it")
print("changes t but never the on-plane point:")
pupil, direction = (3.0, -1.0, 55.0), np.array([0.2, 0.1, -1.0])
scales = (1.0, 0.001, 250.0)
points, ts, _, _ = intersect_gaze_batch([pupil] * len(scales), [direction * lam for lam in scales])
for lam, (x, y), t in zip(scales, points, ts):
    print(f"  |D| scaled by {lam:8.3f}: point ({x:.6f}, {y:.6f}), t = {t:12.4f}")
