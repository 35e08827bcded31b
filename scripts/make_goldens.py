#!/usr/bin/env python3
"""Freeze golden matrices for the generator tests.

Deliberately independent of the selfpredict package: everything here is
written with plain loops so that a bug in the library cannot leak into the
expected values.  Output lives in tests/golden/ (or the directory given as
the one argument) as headerless CSV at 17 significant digits plus a JSON
sidecar describing how each file was made:

    python scripts/make_goldens.py [OUT_DIR]

Draw order for the doubly stochastic generator (one value stream per matrix):
uniform raw matrix, then alternating normalization, then a random permutation,
then the mixing weight alpha.  The symmetric generator reuses the first two
draws and symmetrizes the result.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def alternating_normalize(matrix, tol=1e-12, max_iters=100_000):
    """Scale rows then columns until the row sums are within tol of one and
    the matrix with its rows divided by them has column sums within tol of
    one; that row-divided matrix is returned.  This is the stop that
    selfpredict's sinkhorn_normalize documents: it tests the matrix it returns."""
    out = [row[:] for row in matrix]
    n = len(out)
    for _ in range(max_iters):
        for i in range(n):
            s = sum(out[i])
            for j in range(n):
                out[i][j] /= s
        for j in range(n):
            s = sum(out[i][j] for i in range(n))
            for i in range(n):
                out[i][j] /= s
        rows = [sum(out[i]) for i in range(n)]
        if max(abs(s - 1.0) for s in rows) <= tol:
            divided = [[out[i][j] / rows[i] for j in range(n)] for i in range(n)]
            if max(abs(sum(divided[i][j] for i in range(n)) - 1.0) for j in range(n)) <= tol:
                return divided
    raise RuntimeError("alternating normalization did not converge")


def doubly_stochastic(n, seed, alpha="random"):
    rng = np.random.default_rng(seed)
    raw = [[float(rng.random()) for _ in range(n)] for _ in range(n)]
    base = alternating_normalize(raw)
    perm = [int(p) for p in rng.permutation(n)]
    if alpha == "random":
        alpha = float(rng.uniform())
    out = [[alpha * base[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        out[i][perm[i]] += 1.0 - alpha
    return out, alpha


def symmetric(n, seed):
    rng = np.random.default_rng(seed)
    raw = [[float(rng.random()) for _ in range(n)] for _ in range(n)]
    base = alternating_normalize(raw)
    out = [[0.5 * (base[i][j] + base[j][i]) for j in range(n)] for i in range(n)]
    return out


def write_csv(path, matrix):
    lines = [",".join("%.17g" % v for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", nargs="?", type=Path, default=OUT_DIR,
                        help="directory to write the goldens into (default tests/golden)")
    out_dir = parser.parse_args(argv).out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(7)
    raw = [[float(rng.random()) for _ in range(20)] for _ in range(20)]
    plain = alternating_normalize(raw)
    write_csv(out_dir / "sinkhorn_n20_seed7.csv", plain)
    (out_dir / "sinkhorn_n20_seed7.json").write_text(json.dumps(
        {"kind": "sinkhorn_of_uniform_raw", "n": 20, "seed": 7, "tol": 1e-12},
        indent=2, sort_keys=True) + "\n")

    ds, alpha = doubly_stochastic(20, 11)
    write_csv(out_dir / "doubly_stochastic_n20_seed11.csv", ds)
    (out_dir / "doubly_stochastic_n20_seed11.json").write_text(json.dumps(
        {"kind": "doubly_stochastic", "n": 20, "seed": 11, "alpha": alpha},
        indent=2, sort_keys=True) + "\n")

    sym = symmetric(20, 3)
    write_csv(out_dir / "symmetric_n20_seed3.csv", sym)
    (out_dir / "symmetric_n20_seed3.json").write_text(json.dumps(
        {"kind": "symmetric", "n": 20, "seed": 3},
        indent=2, sort_keys=True) + "\n")

    print("wrote goldens to", out_dir)


if __name__ == "__main__":
    main()
