"""Telling speech from silence (and yawns) with one second of lip motion.

Speaking shows up as a 3-6 Hz oscillation of the vertical lip distance;
yawns are slow, large openings; silence is flat. The temporal CNN sees a
30-sample window and outputs a speech probability. Backprop is written by
hand, so the demo also runs the finite-difference gradient check.
"""

import numpy as np

from adwatch.cnn import gradient_check, train_cnn
from adwatch.evaluation import roc_auc

rng = np.random.default_rng(1)
T = np.linspace(0, 1, 30)


def speech():
    f = rng.uniform(3, 6)
    return 0.055 + 0.035 * np.sin(2 * np.pi * f * T + rng.uniform(0, 2 * np.pi))


def silence():
    return np.full(30, 0.02)


def yawn():
    return 0.02 + 0.23 * np.sin(np.pi * rng.uniform(0.2, 0.8) * T) ** 2


def jitter(w):
    return w + rng.normal(0, 0.012, 30)


windows, labels = [], []
for _ in range(350):
    windows.append(jitter(speech())); labels.append(1.0)
    windows.append(jitter(silence())); labels.append(0.0)
    if rng.uniform() < 0.3:
        windows.append(jitter(yawn())); labels.append(0.0)
X, y = np.array(windows), np.array(labels)

net = train_cnn(X, y, epochs=60, seed=2)
print(f"trained on {len(X)} windows; loss {net.train_loss_curve[0]:.3f} "
      f"-> {net.train_loss_curve[-1]:.3f}")

held_w = [jitter(speech()) for _ in range(200)] + [jitter(silence()) for _ in range(150)] \
    + [jitter(yawn()) for _ in range(50)]
held_y = np.array([1.0] * 200 + [0.0] * 200)
auc = roc_auc(net.predict_proba(np.array(held_w)), held_y > 0.5)
print(f"held-out ROC-AUC: {auc:.4f}")

for name, w in (("speech burst", speech()), ("flat silence", silence()), ("slow yawn", yawn())):
    p = float(net.predict_proba(w[None, :])[0])
    print(f"  {name:14s} -> p(speaking) = {p:.3f}")

err = gradient_check(net, jitter(speech()), 1.0)
print(f"gradient check vs central differences: max relative error {err:.2e}")
