"""Tabular Markov chains: construction, generation, and spectral structure.

A chain lives in a TransitionMatrix, which validates row stochasticity on
construction and measures two structural flags: symmetry, exact (the entries
equal their transpose bitwise), and unit column sums, within STOCHASTIC_TOL.
Downstream dynamics branch on those flags rather than re-deriving them.

Spectral conventions used everywhere in the package:

* values are ordered by descending magnitude, ties broken by descending
  signed value, then by original position;
* each vector is sign-fixed so its first component larger than 1e-12 in
  magnitude is positive, and singular vector pairs flip together so the
  factorization is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NonConvergenceError, NotSymmetricError, require_number

STOCHASTIC_TOL = 1e-12
SIGN_TOL = 1e-12


def _floats(x, name: str) -> np.ndarray:
    """x as a float array (no copy of one); complex, object, string, ragged or non-finite raises."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):  # a ragged sequence
        raise InvalidInputError(f"{name} must be an array, got a ragged sequence") from None
    if a.dtype.kind not in "biuf" or not np.isfinite(a).all():
        raise InvalidInputError(f"{name} entries must be finite real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _matrix(p, name: str = "p") -> np.ndarray:
    """A TransitionMatrix's entries, or p checked (_floats) as a square matrix of 1+ states."""
    if isinstance(p, TransitionMatrix):
        return p.entries
    a = _floats(p, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidInputError(f"need a square matrix of at least one state, got shape {a.shape}")
    return a


def _chain(tm) -> TransitionMatrix:
    """tm, checked: a TransitionMatrix, the one check of a chain argument."""
    if not isinstance(tm, TransitionMatrix):
        raise InvalidInputError(f"expected a TransitionMatrix, got {type(tm).__name__}")
    return tm


def _nonnegative_square(raw) -> np.ndarray:
    """A float copy of raw, checked: a nonnegative _matrix."""
    a = _matrix(raw, "matrix").copy()
    if np.any(a < 0):
        raise InvalidInputError("matrix entries must be nonnegative")
    return a


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix with precomputed structural flags."""

    entries: np.ndarray
    is_symmetric: bool
    is_doubly_stochastic: bool

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only np.linalg.eigh (values, vectors) of a symmetric chain, once per chain."""
        if not self.is_symmetric:  # eigh would read one triangle
            raise NotSymmetricError("eigen decomposition needs entries equal to their transpose")
        wv = np.linalg.eigh(self.entries)
        for a in wv:
            a.setflags(write=False)
        return tuple(wv)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending singular values, once per chain (eigh magnitudes if symmetric)."""
        s = (np.sort(np.abs(self.eigh[0]))[::-1] if self.is_symmetric
             else np.linalg.svd(self.entries, compute_uv=False))
        s.setflags(write=False)
        return s

    @classmethod
    def from_entries(cls, entries) -> "TransitionMatrix":
        """Validate and wrap a raw array.

        Requires a finite square matrix with nonnegative entries whose rows sum
        to one within 1e-12, as do the columns of a doubly stochastic one.  It is
        symmetric only if equal to its transpose bitwise (average a near-symmetric
        matrix with its transpose, as gen_symmetric does).  Stores a read-only copy.
        """
        a = _nonnegative_square(entries)
        row_err = np.abs(a.sum(axis=1) - 1.0).max()
        if row_err > STOCHASTIC_TOL:
            raise InvalidInputError(f"rows must sum to 1 within {STOCHASTIC_TOL}, worst error {row_err:.3e}")
        ds = bool(np.abs(a.sum(axis=0) - 1.0).max() <= STOCHASTIC_TOL)
        a.setflags(write=False)
        return cls(a, bool(np.array_equal(a, a.T)), ds)


def sinkhorn_normalize(raw, max_iters: int = 100_000) -> TransitionMatrix:
    """Project a nonnegative matrix onto the doubly stochastic set.

    Alternates row normalization with column normalization until every row
    and column sum is within STOCHASTIC_TOL of one, then applies one last row
    normalization so the result is row-stochastic to machine precision and
    flagged doubly stochastic.  Zero entries are fine (a permutation matrix
    passes through untouched); negative entries and all-zero rows or columns
    are rejected, and hitting max_iters raises NonConvergenceError.
    """
    return TransitionMatrix.from_entries(_sinkhorn(raw, max_iters))


def _sinkhorn(raw, max_iters: int = 100_000) -> np.ndarray:
    """sinkhorn_normalize's projected array, not yet wrapped and validated."""
    require_number(max_iters, "max_iters", 1, integer=True)
    a = _nonnegative_square(raw)
    rows = a.sum(axis=1, keepdims=True)
    if np.any(rows == 0.0) or np.any(a.sum(axis=0) == 0.0):
        raise InvalidInputError("matrix must have no all-zero row or column")

    for _ in range(max_iters):
        a /= rows
        a /= a.sum(axis=0, keepdims=True)
        rows = a.sum(axis=1, keepdims=True)  # the residual's row sums divide the next pass
        if (np.abs(rows - 1.0).max() <= STOCHASTIC_TOL
                and np.abs(a.sum(axis=0) - 1.0).max() <= STOCHASTIC_TOL):
            a /= rows
            return a
    raise NonConvergenceError(
        f"alternating normalization still above {STOCHASTIC_TOL} after {max_iters} iterations")


def gen_doubly_stochastic(n: int, seed: int, alpha="random") -> TransitionMatrix:
    """Random doubly stochastic chain of size n.

    Draws a uniform random matrix, projects it with sinkhorn_normalize, and
    mixes in a random permutation matrix: alpha * projected + (1 - alpha) *
    permutation.  With the default alpha="random" the weight is drawn
    uniformly from [0, 1); a float in [0, 1] pins it.  Draw order from the
    seeded generator is fixed (raw matrix, permutation, then alpha) so the
    output is reproducible per (n, seed).
    """
    require_number(n, "n", 1, integer=True)
    rng = np.random.default_rng(require_number(seed, "seed", 0, integer=True))
    if not isinstance(alpha, str):
        alpha = float(require_number(alpha, "alpha", 0, high=1))
    elif alpha != "random":
        raise InvalidInputError(f"alpha must be a float or 'random', got {alpha!r}")
    base = _sinkhorn(rng.random((n, n)))
    perm = rng.permutation(n)
    alpha = rng.uniform() if alpha == "random" else alpha
    out = alpha * base
    out[np.arange(n), perm] += 1.0 - alpha
    return TransitionMatrix.from_entries(out)


def gen_symmetric(n: int, seed: int) -> TransitionMatrix:
    """Random symmetric doubly stochastic chain: project, then average with the transpose."""
    require_number(n, "n", 1, integer=True)
    rng = np.random.default_rng(require_number(seed, "seed", 0, integer=True))
    base = _sinkhorn(rng.random((n, n)))
    base += base.T  # in place: the same bits as 0.5 * (base + base.T), one n x n array fewer
    base *= 0.5
    return TransitionMatrix.from_entries(base)


def fixed_example_2x2() -> TransitionMatrix:
    """Two-state symmetric chain with eigenvalues 1 and -0.8."""
    return TransitionMatrix.from_entries([[0.1, 0.9], [0.9, 0.1]])


def fixed_example_3x3() -> TransitionMatrix:
    """Three-state doubly stochastic chain that is far from symmetric.

    Its singular values are 1, 1, 0 while its eigenvalues are 1, -0.5, 0,
    which is what makes it useful as a stress case: rankings by eigenpairs
    and by singular pairs disagree.
    """
    return TransitionMatrix.from_entries([
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
        [1.0, 0.0, 0.0],
    ])


@dataclass(frozen=True)
class SpectralSummary:
    """Ordered, sign-fixed spectral factorization of a transition matrix.

    For kind="eigen" the columns of left_vectors and right_vectors coincide
    (orthonormal eigenbasis of a symmetric matrix).  For kind="svd" they are
    the left and right singular vectors and values holds singular values.
    """

    kind: str
    values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def _canonical_order(values: np.ndarray) -> np.ndarray:
    idx = np.arange(values.shape[0])
    return np.lexsort((idx, -values, -np.abs(values)))


def _fix_signs(vectors: np.ndarray, partners: np.ndarray | None = None) -> None:
    """Flip columns in place so each leads with a positive entry.

    partners, when given, is a distinct matrix whose columns flip together
    with vectors so a joint factorization stays intact.
    """
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        big = np.nonzero(np.abs(col) > SIGN_TOL)[0]
        if big.size and col[big[0]] < 0:
            vectors[:, j] = -col
            if partners is not None:
                partners[:, j] = -partners[:, j]


def spectral(tm: TransitionMatrix, kind: str = "eigen") -> SpectralSummary:
    """Eigen or singular value decomposition under the package conventions.

    kind="eigen" requires tm.is_symmetric (raises NotSymmetricError
    otherwise) and returns a real orthonormal eigenbasis.  kind="svd" works
    for any chain.  Both apply the module-level ordering and sign rules.
    """
    if kind == "eigen":
        w, v = _chain(tm).eigh  # fancy indexing below copies the cached arrays
        order = _canonical_order(w)
        w = w[order]
        v = v[:, order].copy()
        _fix_signs(v)
        return SpectralSummary("eigen", w, v, v)
    if kind == "svd":
        u, s, vt = np.linalg.svd(_chain(tm).entries)
        order = _canonical_order(s)
        s = s[order]
        u = u[:, order].copy()
        v = vt.T[:, order].copy()
        _fix_signs(u, v)
        return SpectralSummary("svd", s, u, v)
    raise InvalidInputError(f"kind must be 'eigen' or 'svd', got {kind!r}")


def n_step_matrix(tm: TransitionMatrix, n_steps: int) -> TransitionMatrix:
    """The chain composed with itself n_steps times; a symmetric chain's power is
    averaged with its transpose, as in gen_symmetric, so it is symmetric too."""
    require_number(n_steps, "n_steps", 1, integer=True)
    a = np.linalg.matrix_power(_chain(tm).entries, n_steps)
    try:  # the power of a chain is one, but rounding drifts its row sums as n_steps grows
        return TransitionMatrix.from_entries(0.5 * (a + a.T) if tm.is_symmetric else a)
    except InvalidInputError as e:
        raise InvalidInputError(f"n_steps={n_steps} drifts the power's row sums: {e}") from None


def uniform_distribution(n: int) -> np.ndarray:
    """Uniform state distribution on n states."""
    require_number(n, "n", 1, integer=True)
    return np.full(n, 1.0 / n)


def validate_distribution(d, n: int | None = None) -> np.ndarray:
    """Check that d is a probability vector (and optionally has length n)."""
    v = _floats(d, "distribution")
    if v.ndim != 1 or n not in (None, len(v)):
        raise InvalidInputError(f"distribution must be one-dimensional ({n or 'n'},), got {v.shape}")
    if np.any(v < 0):
        raise InvalidInputError("distribution entries must be nonnegative")
    if abs(v.sum() - 1.0) > STOCHASTIC_TOL:
        raise InvalidInputError(f"distribution must sum to 1 within {STOCHASTIC_TOL}")
    return v
