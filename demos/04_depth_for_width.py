"""Trading network depth for hidden-layer width.

The two-layer exact-fit threshold on the 90-sample iris split sits at
hidden size 90 (see `karnet iris-sweep`).  Stacking more random hidden
layers moves it: a five-layer network with four random hidden layers
reaches an exact fit at column size 89, because the solved output layer's
bias row now contributes the missing degree of freedom.  Width is not the
only way to buy representation capacity.

Run:  python demos/04_depth_for_width.py
"""

import numpy as np

from karnet import NetworkSpec, scale_minmax, train_random_hidden
from karnet.data import iris_train_test_split, load_iris

train, _ = iris_train_test_split(load_iris())
train = scale_minmax(train, 0.01)

print("five-layer network, hidden sizes (h, h, h, h), output solved:")
print(" h  | median train SSE (transformed space, 5 seeds)")
print("-" * 50)
for h in (60, 75, 85, 88, 89, 90):
    sses = []
    for seed in range(5):
        spec = NetworkSpec(4, (h, h, h, h), 3, seed=seed)
        _, rep = train_random_hidden(train.x, train.y, spec)
        sses.append(rep.train_sse_transformed)
    marker = "  <- exact below the 2-layer threshold" if h == 89 else ""
    print(f" {h:>3}| {np.median(sses):.2e}{marker}")

print("\ntwo-layer reference at the same sizes:")
for h in (89, 90):
    sses = []
    for seed in range(5):
        spec = NetworkSpec(4, (h,), 3, seed=seed)
        _, rep = train_random_hidden(train.x, train.y, spec)
        sses.append(rep.train_sse_transformed)
    print(f" {h:>3}| {np.median(sses):.2e}")
