"""Recovering a planted model with Baum-Welch.

Samples observation sequences from one of the planted class models, then
re-estimates a randomly initialized model on them. The log-likelihood trace
rises (EM's pseudocount floor can pull it down by a hair near convergence),
and the learned emissions concentrate on the same residue group the planted
model uses.
"""

import numpy as np

from ssph import baum_welch, new_random_hmm, planted_models, sample_observations
from ssph.synthetic import CLASS_RESIDUE_GROUPS

planted = planted_models(leak=0.05)["H"]
rng = np.random.default_rng(42)
training = [sample_observations(planted, 40, rng) for _ in range(60)]
print(f"sampled {len(training)} sequences of length 40 from the planted model")

start = new_random_hmm(num_states=2, alphabet_size=21, seed=1)
trained, trace = baum_welch(start, training, max_iters=40, tol=1e-9)

print(f"\nlog-likelihood over {len(trace)} iterations:")
print(f"  first {trace[0]:.2f}  ->  last {trace[-1]:.2f}")
deltas = np.diff(trace)
print(f"  smallest per-iteration change: {deltas.min():.2e}")

group = CLASS_RESIDUE_GROUPS["H"]
for name, model in (("planted", planted), ("trained", trained)):
    mass = (model.initial @ model.emission)[group].sum()
    print(f"{name} model: {mass:.1%} of expected emission mass on the "
          "helix residue group")

# State identity is not recoverable (any relabeling fits equally well), so
# compare distributions rather than individual rows.
print("\ntrained emission mass by residue group and state:")
for s in range(trained.num_states):
    row = trained.emission[s]
    parts = {label: row[idx].sum() for label, idx in CLASS_RESIDUE_GROUPS.items()}
    formatted = ", ".join(f"{k}: {v:.3f}" for k, v in parts.items())
    print(f"  state {s}: {formatted}")
