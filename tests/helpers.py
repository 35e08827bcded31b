"""Shared numeric helpers for the test suite."""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def central_fd(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        bump = np.zeros_like(xf)
        bump[i] = h
        hi = fun((xf + bump).reshape(x.shape))
        lo = fun((xf - bump).reshape(x.shape))
        flat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative error of a against reference b in the Frobenius norm."""
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / denom)


ACCEPTANCE_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> bool:
    """Record one acceptance line for the terminal summary and echo it."""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


# The seven scenarios at the reduced sizes criterion 12 runs them at.
REDUCED_SCENARIOS = {
    "fig2_collapse": dict(n_states=6, iters=40, record_every=20, eta=0.01),
    "fig4_trace_ratio": dict(n_states=6, t_end=5.0, n_records=5),
    "fig5_failure_mode": dict(t_end=5.0, n_records=5),
    "example1_critical_points": dict(n_states=2),
    "appendix_target_beta": dict(n_states=6, iters=40, record_every=20),
    "appendix_finite_lr": dict(n_states=6, iters=40),
    "appendix_noisy_predictor": dict(n_states=6, iters=40, record_every=20),
}


def blas_corename() -> str | None:
    """The kernel type numpy's scipy-openblas runs on, as its scipy_openblas_get_corename64_
    names it, or None where numpy's BLAS has no such symbol."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None
