"""Deterministic seed derivation for experiment runs.

Every run of a scenario owns a handful of independent random streams (the
chain itself, each representation init, predictor noise).  Each stream seed
is derived from the triple (master seed, run index, stream tag) through
numpy's SeedSequence, so results never depend on draw interleaving, worker
count, or the order runs execute in.
"""

from __future__ import annotations

import numpy as np

from .errors import require_number

STREAM_MATRIX = 0
STREAM_INIT_LEFT = 1
STREAM_INIT_RIGHT = 2
STREAM_NOISE = 3


def stream_seed(master_seed: int, run_index: int, stream: int) -> int:
    """Collapse (master_seed, run_index, stream) into one integer seed."""
    for name, value in (("master_seed", master_seed), ("run_index", run_index), ("stream", stream)):
        require_number(value, name, 0, integer=True)
    seq = np.random.SeedSequence((master_seed, run_index, stream))
    return int(seq.generate_state(1, np.uint64)[0])


def stream_rng(master_seed: int, run_index: int, stream: int) -> np.random.Generator:
    """PCG64 generator for one (run, stream) pair."""
    return np.random.default_rng(stream_seed(master_seed, run_index, stream))
