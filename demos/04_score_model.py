"""
Fitting the R-score model
=========================

The R score tracks its QRS neighbours and the patient's age closely
enough that a linear model R ~ S + T + Age recovers it well. Fit one
on held-out data, check the errors, and save it for the gateway.
"""

import os
import tempfile

from ecgmon import regression
from ecgmon.sample_data import sample_dataset

dataset = sample_dataset()
x, y = regression.design_from_dataset(dataset)  # predictors S, T, Age; target R

# Hold five sessions out for evaluation and fit on the other fifteen.
spec = regression.SplitSpec(test_row_indices=(2, 5, 17, 19, 12))
train_x, test_x = regression.split(list(x), spec)
train_y, test_y = regression.split(list(y), spec)

model = regression.fit_ols(train_x, train_y)
print(f"fit on {len(train_x)} sessions")
print(f"  intercept {model.intercept:.6f}")
for name, value in model.coefficients:
    print(f"  {name:<4}      {value:.6f}")

# How does it do on the sessions it never saw?
predictions = [regression.predict(model, row) for row in test_x]
print("\nheld-out sessions")
print("  actual  predicted   error")
for actual, predicted in zip(test_y, predictions):
    print(f"  {actual:6.2f}  {predicted:9.5f}  {actual - predicted:+7.4f}")

report = regression.evaluate(test_y, predictions)
print(f"\n  mae {report.mae:.4f}   mse {report.mse:.4f}   accuracy {report.accuracy_pct:.4f}%")

# The model file is plain text and survives a round trip at full
# precision, so the gateway's prediction route serves exactly the
# coefficients fitted here.
with tempfile.TemporaryDirectory() as workdir:
    path = os.path.join(workdir, "score-model.txt")
    regression.save_model(model, path, metadata={"trained_on": "bundled capture"})
    reloaded = regression.load_model(path)
assert reloaded == model
print(f"\nmodel round-trips through {os.path.basename(path)}")

# Score a hypothetical session by name rather than position.
row = {"S": 93.5, "T": 97.0, "Age": 40}
print(f"prediction for {row}: {regression.predict(reloaded, row):.4f}")
