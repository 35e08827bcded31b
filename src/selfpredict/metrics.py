"""Objectives, normalizers, and collapse diagnostics for trajectories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, require_number
from .markov import TransitionMatrix, _chain, _floats, _matrix

# Column norms below this are treated as fully collapsed.
ZERO_NORM_FLOOR = 1e-300


def _check_rep(x, n: int | None = None, name: str = "phi", k: int | None = None) -> np.ndarray:
    """x checked (_floats) as an (n, k) representation, 1 <= k <= n; None accepts any count."""
    v = _floats(x, name)
    if v.ndim != 2 or n not in (None, v.shape[0]) or k not in (None, v.shape[1]):
        raise ShapeMismatchError(f"{name} must be ({n or 'n'}, {k or 'k'}), got shape {v.shape}")
    require_number(v.shape[1], f"{name}'s column count", 1, high=v.shape[0])
    return v


def trace_objective(phi, p) -> float:
    """Squared Frobenius norm of the compressed chain phi^T P phi (the records' f, _objective)."""
    a = _matrix(p)
    v = _check_rep(phi, a.shape[0])[None]
    return float(_objective(v, v, np.zeros(1), a[None])[2][0])


def svd_trace_objective(left, right, p) -> float:
    """Squared Frobenius norm of left^T P right for a representation pair (the records' f~)."""
    a = _matrix(p)
    lv = _check_rep(left, a.shape[0], "left")
    rv = _check_rep(right, a.shape[0], "right", lv.shape[1])
    return float(_objective(lv[None], rv[None], np.zeros(1), a[None])[2][0])


@dataclass(frozen=True)
class Normalizers:
    """Best trace objectives achievable with k orthonormal columns.

    eigen_norm is the single-representation ceiling (sum of the k largest
    squared eigenvalues); it is None when the chain is not symmetric, since
    only then does the package define a real eigenbasis.  svd_norm is the
    paired-representation ceiling (sum of the k largest squared singular
    values) and always exists.
    """

    eigen_norm: float | None
    svd_norm: float


def normalizers(tm: TransitionMatrix, k: int) -> Normalizers:
    """Both ceilings at k columns from tm.singular_values (values only, cached per chain).

    A symmetric chain's singular values are its eigenvalue magnitudes, so its two
    ceilings coincide; both match spectral(tm, kind).values[:k] up to rounding.
    """
    require_number(k, "k", 1, high=_chain(tm).n, integer=True)
    s = tm.singular_values[:k]
    norm = float(np.sum(s * s))
    return Normalizers(norm if tm.is_symmetric else None, norm)


def reference_normalizer(tm: TransitionMatrix, k: int) -> float:
    """The normalizer trajectories are reported against.

    Symmetric chains use the eigenvalue ceiling, everything else the
    singular value ceiling, matching how ratio columns are defined in
    scenario output; as a symmetric chain's two ceilings coincide (normalizers),
    that is svd_norm either way.
    """
    return normalizers(tm, k).svd_norm


@dataclass(frozen=True)
class CollapseMetrics:
    covariance_drift: float
    max_abs_cosine: float


def collapse_metrics(phi, phi_init) -> CollapseMetrics:
    """Covariance drift and worst pairwise column alignment.

    Drift is the max absolute entry of phi^T phi - phi_init^T phi_init.
    Alignment is the largest absolute cosine between distinct columns; with
    a single column it is 0 by convention, and any numerically zero column
    reports 1 (total collapse).
    """
    v = _check_rep(phi)
    v, v0 = v[None], _check_rep(phi_init, v.shape[0], "phi_init", v.shape[1])[None]
    drift, cos = _collapse(v, np.zeros(1), v0.swapaxes(-1, -2) @ v0)
    return CollapseMetrics(float(drift[0]), float(cos[0]))


def _max_abs_cosine(c: np.ndarray) -> np.ndarray:
    """Worst off-diagonal cosine per (..., k, k) covariance; see collapse_metrics."""
    k = c.shape[-1]
    if k == 1:
        return np.zeros(c.shape[:-2])
    norms = np.sqrt(np.diagonal(c, axis1=-2, axis2=-1).clip(min=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = c / (norms[..., :, None] * norms[..., None, :])
    # Rounding can put a nearly collinear pair a few ulp above 1.
    off = np.minimum(np.abs(cos[..., ~np.eye(k, dtype=bool)]).max(axis=-1), 1.0)
    return np.where(np.any(norms < ZERO_NORM_FLOOR, axis=-1), 1.0, off)


def _norm(x: np.ndarray, axis=None):
    """np.linalg.norm(x, axis=axis), redone on x / max|x| where only the squares overflow."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.linalg.norm(x, axis=axis)
        if np.any(np.isinf(out)):
            top = np.abs(x).max(axis=axis, keepdims=True)
            rescued = np.linalg.norm(x / top, axis=axis) * top.reshape(np.shape(out))
            out = np.where(np.isinf(out) & np.isfinite(rescued), rescued, out)
    return out


def _scaled(vals: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """vals * 2**exp, rounded once, so a representable product stays finite."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(vals, exp.astype(np.int64))


def _tangent(phi, pp, pred):
    """(pp - phi pred) pred^T, overwriting pp: (I - phi phi^T) pp pred^T if pred = phi^T pp."""
    return np.subtract(pp, phi @ pred, out=pp) @ pred.swapaxes(-1, -2)


def _objective(phi, target, slog, op, apply=np.matmul):
    """(pp = P target, pred = phi^T pp, f = ||pred||^2) of (..., n, k) stacks carrying 2**-slog,
    which f folds back in (inf if it overflows); P acts as apply(op, target): P under matmul,
    eigenvalues under multiply."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pp = apply(op, target)
        pred = phi.swapaxes(-1, -2) @ pp
        return pp, pred, _scaled(np.sum(pred * pred, axis=(-2, -1)), 4.0 * slog)


def _fit(phi, target, slog, op, apply=np.matmul):
    """(f, flow residual ||_tangent||_F) of _objective's stacks against their targets."""
    pp, pred, f = _objective(phi, target, slog, op, apply)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        tangent = _tangent(phi, _scaled(pp, -2.0 * slog[..., None, None]), pred)
        return f, _scaled(_norm(tangent, axis=(-2, -1)), 5.0 * slog)


def _collapse(phi, slog, c0):
    """collapse_metrics' (drift against c0, cosine) of (..., n, k) stacks carrying 2**-slog."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        c = phi.swapaxes(-1, -2) @ phi
        drift = np.abs(_scaled(c, 2.0 * slog[..., None, None]) - c0).max(axis=(-2, -1))
    return drift, _max_abs_cosine(c)


@dataclass(frozen=True)
class MetricBundle:
    """One row of trajectory diagnostics.

    f_tilde is populated only for paired (bidirectional) runs; f_ratio is f
    over the matched normalizer for single runs and f_tilde over the
    singular value ceiling for paired runs.
    """

    f: float
    f_ratio: float
    f_tilde: float | None
    covariance_drift: float
    max_abs_cosine: float
    residual: float
