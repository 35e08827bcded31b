"""Dormand-Prince 5(4) for a stack of independent runs of an autonomous ODE.

Each run is stepped as scipy.integrate's RK45 steps it (Dormand and Prince,
J. Comput. Appl. Math. 6, 1980) from 0 to the last point of its output grid,
one tolerance serving as its rtol and atol alike: same tableau, initial step,
safety 0.9, factors in [0.2, 10], RMS error norm and quartic dense output.
Every operation acts on a run's row alone, and on each of a row's members as on
that member alone: the tableau sums contract the stage axis element by element,
and a row's error norm is the mean of its members' sums of squares.  So a run's
trajectory does not depend on the runs beside it, and a row of equal members
steps each of them bitwise as it steps alone.  A non-finite error norm rejects
at factor 0.2, so an overflowing run ends in StepSizeUnderflowError below 10
ulp of t.  Dense output keeps a (runs, grid) mask of the grid points written so
far; a step writes a run's unwritten points at or below its new time, every
copy of a repeated one.  A run whose grid is written leaves the stack, with its
rows of the per-run operands the right-hand side takes, so later steps carry
only the live runs.
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


def _rms(x, members):
    s = (x * x).reshape(len(x), members, -1).sum(axis=2).mean(axis=1, keepdims=True)
    return np.sqrt(s) / (x.shape[1] // members) ** 0.5


def solve_ivp(fun, y0, t_eval, tol, args=(), name="run {}".format, members=1):
    """Integrate y' = fun(y, *args) from 0 to t_eval[-1] for every row of y0.

    fun maps a stack of states to their derivatives, row by row; args are
    per-run operands, each with one leading row per run.  fun gets the rows of
    the runs whose grid is not yet written, and their rows of args.  t_eval is
    an increasing grid from 0, and tol is scipy's rtol and atol alike.  Returns
    y, the (m, len(t_eval), N) states on the grid, and nfev, the number of fun
    calls.  name(i) labels row i of y0 in error messages.  A row of y0 holds
    members states of equal size.
    """
    y, t_end = np.array(y0, dtype=float), t_eval[-1]
    m, size = y.shape
    out = np.empty((m, len(t_eval), size))
    out[:, 0] = y
    written = np.zeros((m, len(t_eval)), dtype=bool)
    written[:, 0] = True
    with np.errstate(all="ignore"):
        f = fun(y, *args)
        scale = tol + np.abs(y) * tol
        d0, d1 = _rms(y / scale, members), _rms(f / scale, members)
        h0 = np.fmin(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t_end)
        d2 = _rms((fun(y + h0 * f, *args) - f) / scale, members) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.fmax(d1, d2)) ** (1 / 5))
        nfev = 2
        # Per-run scalars are (live, 1) columns; live holds the rows of y0 still
        # in the stack.  rejected is None while no run is retrying a rejected step.
        h_abs = np.fmin(np.fmin(100 * h0, h1), t_end)
        t = np.zeros((m, 1))
        live, K, rejected = np.arange(m), np.empty((m, 7, size)), None
        while True:
            keep = ~written[:, -1]
            if not keep.all():  # finished runs leave the stack; K's rows are scratch
                live, written, t, y, f, h_abs = (x[keep] for x in (live, written, t, y, f, h_abs))
                rejected = None if rejected is None else rejected[keep]
                args = tuple(a[keep] for a in args)
                K = K[:len(live)]
            if not len(live):
                break
            min_step = 10 * np.spacing(t)
            if rejected is not None and np.any(rejected & (h_abs < min_step)):
                i = int(np.argmax(rejected & (h_abs < min_step)))
                raise StepSizeUnderflowError(f"integration failed in {name(int(live[i]))}: "
                                             f"step fell below 10 ulp of t={t[i, 0]:.6g}")
            t_new = np.minimum(t + np.maximum(h_abs, min_step), t_end)
            h = t_new - t
            K[:, 0] = f
            for s in range(1, 6):
                K[:, s] = fun(y + np.einsum("j,rjx->rx", A[s, :s], K[:, :s]) * h, *args)
            y_new = y + h * np.einsum("j,rjx->rx", B, K[:, :6])
            K[:, 6] = f_new = fun(y_new, *args)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err = _rms(np.einsum("j,rjx->rx", E, K) * h / scale, members)
            nfev += 6
            # A zero error norm gives an infinite factor, capped by minimum; a NaN
            # one (non-finite error norm) falls to MIN_FACTOR in fmax.
            factor = SAFETY * err ** ERROR_EXPONENT
            cap = MAX_FACTOR if rejected is None else np.where(rejected, 1.0, MAX_FACTOR)
            h_abs = h * np.fmax(MIN_FACTOR, np.minimum(factor, cap))
            if err.max() < 1:
                rejected = None
            else:
                rejected = ~(err < 1)
                t_new, y_new, f_new = (np.where(rejected, old, new)
                                       for new, old in ((t_new, t), (y_new, y), (f_new, f)))
            rows, cols = np.nonzero((t_eval <= t_new) & ~written)
            if len(rows):
                x = (t_eval[cols] - t[rows, 0]) / h[rows, 0]
                powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
                Q = np.einsum("ji,qjx->qix", P, K[rows])
                out[live[rows], cols] = y[rows] + h[rows] * np.einsum("qi,qix->qx", powers, Q)
                written[rows, cols] = True
            t, y, f = t_new, y_new, f_new
    return SimpleNamespace(y=out, nfev=nfev)
