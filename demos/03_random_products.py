"""Backward products of random stochastic matrices: traces, guaranteed
rates, and the exact window rate that bounds the realized one.

The matrices here all have zero diagonals; one is a pure rotation that never
mixes on its own.  Random interleaving still drives the product to rank one,
and the decay is exponential with an exactly computable guarantee.

Run:  python demos/03_random_products.py
"""

import numpy as np

import stochprod as sp

rotation = sp.StochasticMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
mixer = sp.StochasticMatrix([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
fset = sp.FiniteMatrixSet((mixer, rotation), labels=("mixer", "rotation"))

# A Markov-modulated selection, started from its stationary distribution.
pi = np.array([[0.3, 0.7], [0.6, 0.4]])
model = sp.MarkovModulatedModel(
    initial=sp.stationary_distribution(pi), transition=pi, seed=42,
    matrix_set=fset)

# The guarantee needs a window length whose product scrambles with positive
# probability; the probability is computed exactly by word enumeration.
report = sp.find_scrambling_window(model, h_max=4)
print(f"window length {report.window_len}: scrambling probability "
      f"{report.scrambling_prob:.4f} (exact), entry floor {report.min_entry}")
print(f"guaranteed per-step decay of tau: {report.bound:.4f}")

trace = sp.simulate_product(model, steps=4096)
print("\n  k      tau(product)")
for k, t in zip(trace.checkpoints, trace.taus):
    print(f"{k:5d}   {t:.3e}")

fitted = sp.fit_empirical_rate(trace)
print(f"\nfitted per-step decay: {fitted:.4f}  (guarantee {report.bound:.4f})")

# exp(E log tau / h) over all length-h windows, summed exactly over the
# window words; by Kingman's subadditive ergodic theorem it bounds the
# almost-sure per-step decay from above and tightens as h grows.
for h in (1, 4, 16):
    print(f"exact window rate, h={h:2d}: {sp.window_log_rate(model, h):.4f}")
