"""Dormand-Prince 5(4) for a stack of independent runs of an autonomous ODE.

Each run is stepped as scipy.integrate's RK45 steps it (Dormand and Prince,
J. Comput. Appl. Math. 6, 1980): same tableau, initial step, safety 0.9,
factors in [0.2, 10], RMS error norm and quartic dense output.  Every
operation acts on a run's row alone, so a run's trajectory does not depend
on the runs beside it.  A non-finite error norm rejects at factor 0.2, so an
overflowing run ends in StepSizeUnderflowError below 10 ulp of t.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import StepSizeUnderflowError

A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0],
              [44/45, -56/15, 32/9, 0, 0],
              [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
              [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1 / 5


def _rms(x):
    return np.sqrt((x * x).sum(axis=1, keepdims=True)) / x.shape[1] ** 0.5


def solve_ivp(fun, t_end, y0, t_eval, rtol, atol, run_offset=0):
    """Integrate y' = fun(y) from 0 to t_end for every row of y0.

    fun maps an (m, N) stack of states to their derivatives, row by row;
    t_eval is an increasing grid from 0 to t_end.  Returns y, the (m,
    len(t_eval), N) states on the grid, and nfev, the number of fun calls.
    run_offset only labels error messages.
    """
    y = np.array(y0, dtype=float)
    m, size = y.shape
    out = np.empty((m, len(t_eval), size))
    out[:, 0] = y
    nxt = np.ones(m, dtype=int)
    K = np.empty((m, 7, size))
    with np.errstate(all="ignore"):
        f = fun(y)
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = np.fmin(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t_end)
        d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.fmax(d1, d2)) ** (1 / 5))
    nfev = 2
    # Per-run scalars are (m, 1) columns; a finished run takes steps of length
    # 0.  rejected is None while no run is retrying a rejected step.
    h_abs = np.fmin(np.fmin(100 * h0, h1), t_end)
    t = np.zeros((m, 1))
    rejected = None
    earlier = [(A[s, :s], K[:, :s]) for s in range(1, 6)]
    done = len(t_eval) == 1
    while not done:
        min_step = 10 * np.spacing(t)
        if rejected is not None and np.any(rejected & (h_abs < min_step)):
            i = int(np.argmax(rejected & (h_abs < min_step)))
            raise StepSizeUnderflowError(f"integration failed in run {run_offset + i}: "
                                         f"step fell below 10 ulp of t={t[i, 0]:.6g}")
        t_new = np.minimum(t + np.maximum(h_abs, min_step), t_end)
        h = t_new - t
        with np.errstate(all="ignore"):
            K[:, 0] = f
            for s, (a, k_prev) in enumerate(earlier, start=1):
                K[:, s] = fun(y + (a @ k_prev) * h)
            y_new = y + h * (B @ K[:, :6])
            K[:, 6] = f_new = fun(y_new)
            err = _rms((E @ K) * h / (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol))
            factor = SAFETY * err ** ERROR_EXPONENT
        nfev += 6
        # A zero error norm gives an infinite factor, capped by minimum; a NaN
        # one (non-finite error norm) falls to MIN_FACTOR in fmax.
        cap = MAX_FACTOR if rejected is None else np.where(rejected, 1.0, MAX_FACTOR)
        h_abs = h * np.fmax(MIN_FACTOR, np.minimum(factor, cap))
        if err.max() < 1:
            rejected = None
        else:
            rejected = ~(err < 1)
            t_new, y_new, f_new = (np.where(rejected, old, new)
                                   for new, old in ((t_new, t), (y_new, y), (f_new, f)))
        hi = t_eval.searchsorted(t_new[:, 0], side="right")
        # Python-level checks: numpy reductions cost microseconds on tiny stacks.
        if hi.tolist() != nxt.tolist():
            cnt = hi - nxt
            rows = np.repeat(np.arange(m), cnt)
            cols = np.arange(cnt.sum()) + np.repeat(nxt - np.cumsum(cnt) + cnt, cnt)
            x = (t_eval[cols] - t[rows, 0]) / h[rows, 0]
            powers = np.cumprod(np.repeat(x[:, None, None], 4, axis=2), axis=2)
            with np.errstate(all="ignore"):
                out[rows, cols] = y[rows] + h[rows] * (powers @ (P.T @ K[rows]))[:, 0]
            nxt = hi
            done = min(nxt.tolist()) == len(t_eval)
        t, y, f = t_new, y_new, f_new
    return SimpleNamespace(y=out, nfev=nfev)
