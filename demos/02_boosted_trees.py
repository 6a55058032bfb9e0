"""The boosted-tree workhorse: regression and logistic classification.

The same hand-rolled ensemble backs the gaze fine-tuning regressors and the
yawn classifier. Residual boosting drives the training error down stage by
stage (provably never up, for squared error).
"""

import numpy as np

from adwatch.boosting import MODE_CLASSIFICATION, fit_boosted

rng = np.random.default_rng(0)

print("Regression: y = sin(3x) + noise, 300 points, depth-3 trees")
x = rng.uniform(-1.5, 1.5, 300)
y = np.sin(3 * x) + rng.normal(0, 0.1, 300)
model = fit_boosted(x[:, None], y, n_stages=100)
curve = model.train_loss_curve
for stage in (0, 1, 5, 20, 50, 100):
    print(f"  after stage {stage:3d}: train MSE {curve[min(stage, len(curve) - 1)]:.5f}")
print(f"  constant-mean baseline: {np.var(y):.5f}")
print(f"  stage-over-stage increases: {int(np.sum(np.diff(curve) > 0))}")
print()

print("Classification: two noisy blobs, logistic loss with Newton leaves")
X = np.concatenate([rng.normal(-1, 0.7, (150, 2)), rng.normal(1, 0.7, (150, 2))])
labels = np.concatenate([np.zeros(150), np.ones(150)])
clf = fit_boosted(X, labels, n_stages=60, mode=MODE_CLASSIFICATION)
probs = clf.predict(X)
acc = np.mean((probs >= 0.5) == labels)
print(f"  train log-loss {clf.train_loss_curve[0]:.3f} -> {clf.train_loss_curve[-1]:.3f}")
print(f"  train accuracy {acc:.3f}; probabilities span "
      f"[{probs.min():.3f}, {probs.max():.3f}]")
