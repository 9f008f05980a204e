"""Least squares without gradients: the pseudoinverse does all the work.

Walks through the three shapes a linear system A @ theta = b can take and
shows that one SVD-based pseudoinverse handles them all:

  * square & invertible   -> the ordinary solution,
  * over-determined       -> the least-squares-error solution,
  * under-determined      -> the minimum-norm exact solution.

Run:  python demos/01_pseudoinverse_playground.py
"""

import numpy as np

from karnet import lstsq, pinv

rng = np.random.default_rng(0)

print("=== square invertible system ===")
a = rng.normal(size=(3, 3))
b = rng.normal(size=(3, 1))
theta = lstsq(a, b).theta
print("residual norm:", np.linalg.norm(a @ theta - b))

print("\n=== over-determined: 20 equations, 3 unknowns ===")
a = rng.normal(size=(20, 3))
true_theta = np.array([[1.0], [-2.0], [0.5]])
b = a @ true_theta + rng.normal(scale=0.1, size=(20, 1))
theta = lstsq(a, b).theta
print("recovered:", theta.ravel().round(3), " true:", true_theta.ravel())
print("SSE at solution:", np.sum((a @ theta - b) ** 2))
print("SSE after nudging it:", np.sum((a @ (theta + 0.05) - b) ** 2), " (always larger)")

print("\n=== under-determined: 2 equations, 5 unknowns ===")
a = rng.normal(size=(2, 5))
b = rng.normal(size=(2, 1))
theta = lstsq(a, b).theta
print("exact fit residual:", np.linalg.norm(a @ theta - b))
print("solution norm:", np.linalg.norm(theta))
# every other exact solution differs by a kernel vector and is longer
null_proj = np.eye(5) - pinv(a).pinv @ a
for _ in range(3):
    k = null_proj @ rng.normal(size=(5, 1))
    other = theta + k
    print(
        f"  alternative solution: residual {np.linalg.norm(a @ other - b):.2e}, "
        f"norm {np.linalg.norm(other):.3f}"
    )

print("\n=== rank-deficient matrices are no problem ===")
a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
res = pinv(a)
print("numerical rank:", res.rank, " cutoff:", res.tolerance)
print("A @ A+ @ A - A max entry:", np.max(np.abs(a @ res.pinv @ a - a)))
