"""Whole-run reference loops for the discrete dynamics, written for reading.

Each loop steps one run on the dense chain matrix with an np.linalg.pinv
predictor, one plain update per step: no blow-up guard, no eigenbasis, no
preallocated buffers and no batching.  The records use the textbook formulas
(the explicit tangent projector, the singular value ceiling from a full SVD),
so they check run_discrete_batch and run_discrete_bidir from the outside.
They cover the squared loss with a closed-form predictor, which is all the
drivers train.
"""

from __future__ import annotations

import numpy as np


def ceiling(p: np.ndarray, k: int) -> float:
    """Sum of the k largest squared singular values (the eigenvalue ceiling when p = p^T)."""
    s = np.linalg.svd(p, compute_uv=False)
    return float(np.sum(s[:k] ** 2))


def max_abs_cosine(phi: np.ndarray) -> float:
    """Largest |cosine| between two distinct columns of phi (0 for one column)."""
    k = phi.shape[1]
    if k == 1:
        return 0.0
    norms = np.linalg.norm(phi, axis=0)
    cos = (phi.T @ phi) / np.outer(norms, norms)
    return float(np.max(np.abs(cos[~np.eye(k, dtype=bool)])))


def leg_residual(p: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """||(I - L L^T) P R (L^T P R)^T||_F, the flow of L with R as its target."""
    proj = np.eye(len(p)) - left @ left.T
    pred = left.T @ p @ right
    return float(np.linalg.norm(proj @ p @ right @ pred.T))


def drift(phi: np.ndarray, phi0: np.ndarray) -> float:
    return float(np.max(np.abs(phi.T @ phi - phi0.T @ phi0)))


def _recorded(step: int, iters: int, record_every: int) -> bool:
    return step % record_every == 0 or step == iters


def single_run(phi0, p, d, eta, iters, record_every, gradient_mode="semi",
               target_beta=None, sigma=0.0, rng=None):
    """One run of the single dynamics; returns (steps, columns, phi_final).

    columns maps f, f_ratio, covariance_drift, max_abs_cosine and residual to
    one value per recorded step.  rng, when given, adds sigma times a standard
    normal (k, k) draw to every step's predictor.
    """
    phi0 = np.array(phi0, dtype=float)
    p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
    dm = np.diag(d)
    norm = ceiling(p, phi0.shape[1])
    phi, tgt = phi0.copy(), phi0.copy()
    steps, rows = [], []

    def record(step):
        f = float(np.sum((phi.T @ p @ phi) ** 2))
        steps.append(float(step))
        rows.append((f, f / norm, drift(phi, phi0), max_abs_cosine(phi),
                     leg_residual(p, phi, phi)))

    record(0)
    for step in range(1, iters + 1):
        target = tgt if target_beta is not None else phi
        pred = np.linalg.pinv(phi.T @ dm @ phi) @ (phi.T @ dm @ p @ target)
        if rng is not None:
            pred = pred + sigma * rng.standard_normal(pred.shape)
        # minus eta times the gradient of sum_xy d_x P_xy |pred^T phi_x - target_y|^2 in phi
        grad = 2.0 * dm @ (phi @ pred - p @ target) @ pred.T
        if gradient_mode == "full":
            # the successor side carries gradients too, through target = phi
            grad += 2.0 * (np.diag(p.T @ d) @ phi - p.T @ dm @ phi @ pred)
        new_phi = phi - eta * grad
        if target_beta is not None:
            tgt = tgt + eta * target_beta * (phi - tgt)
        phi = new_phi
        if _recorded(step, iters, record_every):
            record(step)
    names = ("f", "f_ratio", "covariance_drift", "max_abs_cosine", "residual")
    return steps, dict(zip(names, np.array(rows).T)), phi


def pair_run(left0, right0, p, eta, iters, record_every):
    """One run of the bidirectional pair under uniform weights; returns
    (steps, columns, left_final, right_final).

    left predicts forward through P with right as its target, right predicts
    backward through P^T with left as its target, and both step from the same
    pre-step pair.  f is the left member's trace objective, f_tilde is
    ||L^T P R||^2, f_ratio is f_tilde over the singular value ceiling, drift
    and cosine are the worse of the two members and the residual is the
    Euclidean norm of the two legs' residuals.
    """
    left, right = np.array(left0, dtype=float), np.array(right0, dtype=float)
    p = np.asarray(p, dtype=float)
    n, k = left.shape
    l0, r0 = left.copy(), right.copy()
    norm = ceiling(p, k)
    steps, rows = [], []

    def record(step):
        f_tilde = float(np.sum((left.T @ p @ right) ** 2))
        steps.append(float(step))
        rows.append((float(np.sum((left.T @ p @ left) ** 2)), f_tilde / norm, f_tilde,
                     max(drift(left, l0), drift(right, r0)),
                     max(max_abs_cosine(left), max_abs_cosine(right)),
                     float(np.hypot(leg_residual(p, left, right),
                                    leg_residual(p.T, right, left)))))

    record(0)
    for step in range(1, iters + 1):
        fwd = np.linalg.pinv(left.T @ left) @ (left.T @ p @ right)
        bwd = np.linalg.pinv(right.T @ right) @ (right.T @ p.T @ left)
        new_left = left + (2.0 * eta / n) * (p @ right - left @ fwd) @ fwd.T
        right = right + (2.0 * eta / n) * (p.T @ left - right @ bwd) @ bwd.T
        left = new_left
        if _recorded(step, iters, record_every):
            record(step)
    names = ("f", "f_ratio", "f_tilde", "covariance_drift", "max_abs_cosine", "residual")
    return steps, dict(zip(names, np.array(rows).T)), left, right
