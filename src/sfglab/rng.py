"""Seed derivation and the random streams of a run.

A stream is a PCG64 generator seeded by folding an index path into the
master seed with splitmix64 finalizer rounds: ``generator(S, *path)``. Each
kind of randomness has its own path, so runs can be reproduced piecewise:

- 100: the gen-data training set;
- 0xC0DE and 0xBA7C under a model's own seed: its initial weights and its
  training batches (a model trains with seed ``derive_seed(S, k)``, k a
  hash of its name);
- ``(j, i)`` and ``(j, i, 1)``: esm_by_region's points and noise for region
  j at noise level i;
- ``LATENTS``, ``CLASS_IDS`` and ``SFG_START``: the per-trajectory draws of
  a sampling run. Each is one array drawn once per run, before the
  trajectories are split into chunks; row (or entry) i belongs to
  trajectory i. numpy fills an array in order, so trajectory i's draws are
  the same for every sample count above i, and no draw depends on the chunk
  size or the thread count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

LATENTS = 200  # (n_samples, dim) standard normals: the start latents, times the first level
CLASS_IDS = 201  # n_samples integers below n_classes: sample.class_id "random"
SFG_START = 202  # (n_samples, dim) standard normals, rows scaled to unit norm: SFG start vectors


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *path: int) -> int:
    """Fold an index path into a master seed, one splitmix64 round per element."""
    s = master & _MASK64
    for p in path:
        s = _mix((s + _GOLDEN * ((p & _MASK64) + 1)) & _MASK64)
    return s


def generator(master: int, *path: int) -> np.random.Generator:
    """PCG64 generator seeded from the derived seed."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))
