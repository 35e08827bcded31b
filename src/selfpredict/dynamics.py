"""Self-predictive representation dynamics, discrete and continuous.

The learned object is a representation matrix phi with one row per state.  A
state drawn from d is paired with its successor under the chain, and the loss
compares the predictor applied to the input embedding with the frozen successor
embedding.  Stepping phi on the semi-gradient of that loss (the target embedding
propagates no gradient) with the predictor at its least-squares optimum gives the
dynamics studied here; the ablations are the full gradient, a slow-moving target
and predictor noise.  The drivers train the squared loss; the single-step
functions also take the l1 and cosine losses.

phi is (n, k) dense float and d a probability vector over states.  The reported f
is the uniform-weight trace objective (metrics.trace_objective) whatever the
training weights.  Records are taken at step 0, every record_every steps and at
the final step; the flow records on a uniform time grid.

Runs step in stacks, in lockstep (_lockstep, its step in _step) or through the
stacked Dormand-Prince 5(4) in rk45 (_integrate), and a run's records do not
depend on the runs beside it, even where a single run rides as a twin pair
beside pairs.  A run's live target is its partner (_partner): itself, or the
other member of a pair.  _rep_stack lays m pairs (BidirState) out as 2m runs,
members adjacent, left on P and right on P^T, and _form splits a final stack
back.  The single-run functions are the same code at one run (_one_run, and
metrics' record code).

Under uniform d (_eigenbasis), run_discrete_batch steps psi = U^T phi against the eigenvalues
of a chain P = U diag(lam) U^T equal to its transpose bitwise (O(nk), not O(n^2 k)); rounding,
and the full gradient's P^T d taken as d (within 1e-12), differ from dense P.  eigen_stack
prepares them chain by chain, so streamed chains cost O(n^2 + m n k), not O(m n^2).

Blow-up handling: the squared-loss step at the optimal or noisy predictor is
degree-1 homogeneous in phi (in both members of a pair jointly; the predictor is
degree 0 and the noise is added to it), so every discrete run, or a pair as one,
is rescaled by an exact power of two whenever entries pass 2**256, and the exponent
is folded back into the metrics with ldexp (cosines need none).  A reported value is
inf only where the true one is not representable, or a working product overflowed
first.  A run whose state is NaN, or still past the limit after its rescale, ends
in NonFiniteStateError at that step.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCovarianceError, InnerSolveFailureError, InvalidInputError,
                     NonFiniteStateError, NotDoublyStochasticError, NotSymmetricError,
                     ShapeMismatchError, require_number)
from .markov import (STOCHASTIC_TOL, TransitionMatrix, _chain, _floats, _matrix,
                     validate_distribution)
from .metrics import (MetricBundle, _check_rep, _collapse, _fit, _objective, _scaled, _tangent,
                      reference_normalizer)
from .rk45 import solve_ivp

COV_CUTOFF = 1e-12
CERTIFY_MARGIN = 1e3
RESCALE_LIMIT = 2.0 ** 256
RESCALE_EXP = 256.0
GUARD_SUMSQ = 2.0 ** 510  # a sum of squares up to this, rounding included, keeps |x| < 2**256
NOISE_BLOCK = 64  # steps of predictor noise drawn per generator call
UNIFORM_TOL = 1e-12  # a pair's d may differ from uniform by this much
FLOW_T_END, FLOW_N_RECORDS, FLOW_TOL = 100.0, 100, 1e-9  # the flow drivers' defaults
MAX_ITERS = 10 ** 8  # steps per run; 100x the largest cell a scenario default runs
# A flow's work grows with t_end (explicit RK45 keeps its step O(1)); rel_tol >= RK45's floor,
# 100 machine epsilons (a literal: np.finfo at import adds about 0.13 MB of peak RSS).
MAX_T_END, MIN_REL_TOL = 100 * FLOW_T_END, 100 * 2.0 ** -52

GRADIENT_MODES = ("semi", "full")
PREDICTOR_MODES = ("optimal", "noisy")
LOSS_KINDS = ("squared", "l1", "cosine_eps")
EPSILON = 1e-8  # the default epsilon of the cosine_eps denominator


@dataclass(frozen=True)
class DynamicsConfig:
    """Settings for a discrete training run.

    target_beta=None trains against the live representation; a float turns
    on a separate target matrix tracking phi at rate eta * target_beta per
    step (0 freezes it at the init).  sigma is the predictor noise scale
    and requires predictor_mode="noisy".
    """

    eta: float = 1e-3
    iters: int = 10_000
    record_every: int = 100
    gradient_mode: str = "semi"
    predictor_mode: str = "optimal"
    sigma: float = 0.0
    target_beta: float | None = None
    # Not a field: every run trains on the squared loss.  bench/tracing.py reads it
    # (ROADMAP item 1, bench-only names).
    loss_kind = "squared"

    def __post_init__(self):
        require_number(self.iters, "iters", 1, high=MAX_ITERS, integer=True)
        require_number(self.record_every, "record_every", 1, integer=True)
        require_number(self.eta, "eta", 0, above=True)
        require_number(self.sigma, "sigma", 0)
        require_number(self.target_beta, "target_beta", 0, optional=True)
        if self.gradient_mode not in GRADIENT_MODES:
            raise InvalidInputError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.predictor_mode not in PREDICTOR_MODES:
            raise InvalidInputError(f"predictor_mode must be one of {PREDICTOR_MODES}")
        if self.sigma > 0 and self.predictor_mode != "noisy":
            raise InvalidInputError("sigma > 0 requires predictor_mode='noisy'")
        if self.target_beta is not None and self.gradient_mode == "full":
            raise InvalidInputError("a separate target is undefined for the full gradient")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics at one point of a run; step index or time in step_or_time."""

    step_or_time: float
    bundle: MetricBundle


class Trajectories(Sequence):
    """Read-only per-run record lists of a stack, held as metric columns.

    times is the (T,) grid every run shares and columns the six (runs, T)
    MetricBundle columns, f_tilde None for single runs.  Indexing builds a run's
    TrajectoryRecord list (a slice, a list of them); len, iteration and == behave
    as on the list of those lists.
    """

    __slots__ = ("times", "columns")

    def __init__(self, times, columns):
        self.times, self.columns = times, columns

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i, times = operator.index(i), self.times.tolist()
        cols = [[None] * len(times) if c is None else c[i].tolist() for c in self.columns]
        return [TrajectoryRecord(t, MetricBundle(*row)) for t, *row in zip(times, *cols)]

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, Trajectories) else other)


@dataclass(frozen=True)
class Spectra:
    """A stack's (m, n) chain eigenvalues and (m,) reference ceilings (see eigen_stack)."""

    values: np.ndarray
    norms: np.ndarray


@dataclass(frozen=True)
class BidirState:
    """The two representations of a pair: left predicts forward, right predicts backward."""

    left: np.ndarray
    right: np.ndarray


def orthonormal_init(n: int, k: int, seed: int) -> np.ndarray:
    """Draw an (n, k) matrix with orthonormal columns, uniformly over frames.

    QR of a standard Gaussian block, with the usual sign fix on the R
    diagonal so the distribution is exactly rotation invariant.
    """
    require_number(k, "k", 1, high=require_number(n, "n", 1, integer=True), integer=True)
    rng = np.random.default_rng(require_number(seed, "seed", 0, integer=True))
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * signs


def covariance_solve_batch(cov, rhs, name="run {}".format) -> np.ndarray:
    """Solve cov @ x = rhs for an (m, k, k) stack of symmetric PSD covariances.

    The answer is the eigh pseudoinverse's, which zeroes eigenvalues at or below
    1e-12 of the largest.  Runs whose inverse puts every eigenvalue CERTIFY_MARGIN
    above that (lambda_min >= 1/||cov^-1||_F, lambda_max <= trace) are solved
    through it, the rest through eigh, which raises NonFiniteStateError or
    DegenerateCovarianceError naming the failing row i as name(i).
    """
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError:  # run by run: a singular run's inverse is NaN alone
            inv = np.full_like(cov, np.nan)
            for i, c in enumerate(cov):
                with suppress(np.linalg.LinAlgError):
                    inv[i] = np.linalg.inv(c)
        x = inv @ rhs
        bound = np.einsum("mii->m", cov) * np.sqrt(np.einsum("mij,mij->m", inv, inv))
        ok = (bound * (CERTIFY_MARGIN * COV_CUTOFF) < 1.0) & np.isfinite(x.sum(axis=(-2, -1)))
    if ok.all():
        return x
    bad = np.flatnonzero(~ok)
    cov, rhs = cov[bad], rhs[bad]
    finite = np.isfinite(cov).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=(-2, -1))
    if not finite.all():
        raise NonFiniteStateError(
            f"non-finite predictor solve in {name(bad[~finite][0])}")
    w, v = np.linalg.eigh(cov)
    top = np.abs(w).max(axis=1)
    if np.any(top == 0.0):
        raise DegenerateCovarianceError(
            f"covariance is identically zero in {name(bad[top == 0.0][0])}")
    keep = np.abs(w) > COV_CUTOFF * top[:, None]
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    x[bad] = (v * inv[:, None, :]) @ (v.swapaxes(-1, -2) @ rhs)
    return x


def covariance_solve(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """covariance_solve_batch for one (k, k) covariance and its (k, j) rhs."""
    cov, rhs = _matrix(cov, "cov"), _floats(rhs, "rhs")
    if rhs.ndim != 2 or len(rhs) != len(cov):
        raise ShapeMismatchError(f"rhs must be ({len(cov)}, j), got shape {rhs.shape}")
    return covariance_solve_batch(cov[None], rhs[None])[0]


def _operands(p, phi, d, phi_target=None, pred=..., step=False, epsilon=EPSILON):
    """Checked (P, phi, d, target, pred) of one run: the target defaults to phi and has
    phi's k columns, and pred, unless left at ... (None is refused), is (k, k).  A step
    weights rows by d alone, so for it P's rows must sum to one.  epsilon is checked too."""
    require_number(epsilon, "epsilon", 0, above=True)
    a = _matrix(p)
    if step and np.abs(a.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
        raise InvalidInputError(f"a step needs p's rows to sum to 1 within {STOCHASTIC_TOL}")
    v = _check_rep(phi, len(a))
    n, k = v.shape
    d = validate_distribution(d, n)
    t = v if phi_target is None else _check_rep(phi_target, n, "phi_target", k)
    return a, v, d, t, None if pred is ... else _check_rep(pred, k, "pred", k)


def _step(op, d, phi, eta, full):
    """(apply, op, normal, increment, scratch): the lockstep squared-loss step of an (m, n, k)
    stack phi on op, (m, n) eigenvalues or a C-ordered P^T stack, P acting as apply(op, t), D =
    diag(d).  normal(target) is (phi^T D phi, phi^T D P target); increment(pred), after it,
    g = (D P t - D phi pred) 2 eta pred^T [+ 2 eta (P^T D phi pred - (P^T d) phi) if full].
    Both write into buffers made here; scratch, shaped as phi, is free between steps."""
    m, n, k = phi.shape
    two_eta = 2.0 * eta
    w = d[0] if np.all(d == d[0]) else d[:, None]
    if op.ndim == 3:  # BLAS forms P @ t fastest with P a view of a C-ordered P^T stack
        if full:  # 2 eta P^T and its column weights 2 eta P^T d
            op_t, colw = two_eta * op, np.repeat((two_eta * (op @ d))[:, :, None], k, axis=2)
        apply, op, wop = np.matmul, op.transpose(0, 2, 1), (op * d).transpose(0, 2, 1)
    else:
        apply, op = np.multiply, op[:, :, None]
        wop = np.repeat(w * op, k, axis=2)  # a contiguous operand multiplies fastest
        if full:  # here P^T d is the constant d
            op_t, colw = np.repeat(two_eta * op, k, axis=2), two_eta * w
    dphi, dpt, dpp, g = (np.empty_like(phi) for _ in range(4))
    pred_t = np.empty((m, k, k))  # 2 eta pred^T, contiguous: a strided operand slows the product
    phi_t = phi.transpose(0, 2, 1)  # phi is updated in place, so the view stays current

    def normal(target):  # target in any (..., n, k) layout of the stack, as _partner gives it
        apply(wop.reshape(*target.shape[:-2], n, -1), target, out=dpt.reshape(target.shape))
        np.multiply(phi, w, out=dphi)  # a second buffer keeps the Gram off the syrk path
        return phi_t @ dphi, phi_t @ dpt

    def increment(pred):
        np.matmul(dphi, pred, out=dpp)
        np.subtract(dpt, dpp, out=dpt)
        np.multiply(pred.transpose(0, 2, 1), two_eta, out=pred_t)
        np.matmul(dpt, pred_t, out=g)
        if full:
            apply(op_t, dpp, out=dpt)
            np.multiply(phi, colw, out=dphi)
            np.subtract(dpt, dphi, out=dpt)
            np.add(g, dpt, out=g)
        return g

    return apply, op, normal, increment, dpt


def _one_run(a, v, d, t, pred=None, eta=1.0, full=False):
    """The lockstep kernel's arithmetic (_step) on a one-run dense stack, P^T and d as given:
    the optimal predictor of v against t, or, given pred, v stepped at it by eta."""
    phi, target = (np.ascontiguousarray(x, dtype=float)[None] for x in (v, t))
    _, _, normal, increment, _ = _step(np.stack([a.T]), d, phi, eta, full)
    gram, cross = normal(target)
    if pred is None:
        return covariance_solve_batch(gram, cross)[0]
    return (phi + increment(np.ascontiguousarray(pred)[None]))[0]


def optimal_predictor(phi, p, d, phi_target=None) -> np.ndarray:
    """Least-squares predictor for the squared loss at fixed representations: the kernel's
    (_one_run) solve of (phi^T D phi) pred = phi^T D P phi_target, D = diag(d), phi_target
    defaulting to phi; rank deficiency takes covariance_solve_batch's pseudoinverse."""
    a, v, d, t, _ = _operands(p, phi, d, phi_target)
    return _one_run(a, v, d, t)


def noisy_predictor(phi, p, d, sigma: float, rng: np.random.Generator, phi_target=None) -> np.ndarray:
    """Optimal predictor plus iid Gaussian noise of scale sigma."""
    require_number(sigma, "sigma", 0)
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    pred = optimal_predictor(phi, p, d, phi_target)
    return pred + sigma * rng.standard_normal(pred.shape)


def _pair_loss_grad(z: np.ndarray, t: np.ndarray, w: np.ndarray,
                    loss_kind: str, epsilon: float) -> tuple[float, np.ndarray]:
    """Loss and gradient in z for sum_xy w[x, y] * loss(z[x], t[y])."""
    if loss_kind == "squared":
        rw = w.sum(axis=1)
        cw = w.sum(axis=0)
        cross = w @ t
        val = float(rw @ np.sum(z * z, axis=1) + cw @ np.sum(t * t, axis=1)
                    - 2.0 * np.sum(z * cross))
        return val, 2.0 * (rw[:, None] * z - cross)
    if loss_kind == "l1":
        r = z[:, None, :] - t[None, :, :]
        dist = np.linalg.norm(r, axis=2)
        val = float(np.sum(w * dist))
        safe = np.where(dist > 0, dist, 1.0)
        gz = np.einsum("xy,xyj->xj", w / safe * (dist > 0), r)
        return val, gz
    if loss_kind == "cosine_eps":
        zn = np.linalg.norm(z, axis=1)
        tn = np.linalg.norm(t, axis=1)
        dot = z @ t.T
        den = zn[:, None] * tn[None, :] + epsilon
        val = float(-np.sum(w * dot / den))
        zn_safe = np.where(zn > 0, zn, 1.0)
        coef = (w * dot * tn[None, :] / den ** 2).sum(axis=1) / zn_safe
        gz = -(w / den) @ t + coef[:, None] * z
        return val, gz
    raise InvalidInputError(f"loss_kind must be one of {LOSS_KINDS}")


def prediction_loss(phi, pred, p, d, loss_kind: str = "squared",
                    epsilon: float = EPSILON, phi_target=None) -> float:
    """Expected pairwise loss between predicted and frozen successor embeddings."""
    a, v, d, t, pred = _operands(p, phi, d, phi_target, pred, epsilon=epsilon)
    val, _ = _pair_loss_grad(v @ pred, t, d[:, None] * a, loss_kind, epsilon)
    return val


def predictor_gradient(phi, pred, p, d, loss_kind: str = "squared",
                       epsilon: float = EPSILON, phi_target=None) -> np.ndarray:
    """Gradient of prediction_loss with respect to the predictor matrix."""
    a, v, d, t, pred = _operands(p, phi, d, phi_target, pred, epsilon=epsilon)
    _, gz = _pair_loss_grad(v @ pred, t, d[:, None] * a, loss_kind, epsilon)
    return v.T @ gz


def semi_gradient_step(phi, pred, p, d, eta: float, loss_kind: str = "squared",
                       epsilon: float = EPSILON, phi_target=None) -> np.ndarray:
    """One semi-gradient update of phi at a fixed predictor, the successor side frozen at
    phi_target (phi by default).  For the squared loss it is the kernel's (_one_run),
    phi + 2 eta (D P phi_target - D phi pred) pred^T.  p's rows must sum to one."""
    require_number(eta, "eta", 0, above=True)
    a, v, d, t, pred = _operands(p, phi, d, phi_target, pred, step=True, epsilon=epsilon)
    if loss_kind == "squared":
        return _one_run(a, v, d, t, pred, eta)
    _, gz = _pair_loss_grad(v @ pred, t, d[:, None] * a, loss_kind, epsilon)
    return v - eta * (gz @ pred.T)


def full_gradient_step(phi, pred, p, d, eta: float) -> np.ndarray:
    """One full-gradient update for the squared loss (successor side included), the
    lockstep kernel's (_one_run).  p's rows must sum to one."""
    require_number(eta, "eta", 0, above=True)
    a, v, d, _, pred = _operands(p, phi, d, pred=pred, step=True)
    return _one_run(a, v, d, v, pred, eta, full=True)


GTOL_LADDER = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13)
SOLVE_RIDGE = 1e-13  # its gradient 2e-13 |pred| stays far below tol wherever the solves end


def solve_predictor(phi, p, d, loss_kind: str = "squared", epsilon: float = EPSILON,
                    tol: float = 1e-8, phi_target=None) -> np.ndarray:
    """Minimize prediction_loss over the predictor to max-norm stationarity tol.

    Quasi-Newton descent from the squared-loss optimum, retightening the gradient
    tolerance until a start reaches tol: on the gradient L-BFGS-B returns, ridge left
    out, both max |grad| <= tol and the tangential step's max |grad pred^T| <= 50 tol.
    Two fixed restarts cover warm starts in a flat basin.  The epsilon-regularized
    cosine loss has a scale direction whose curvature decays like 1/s**2, which the
    tolerance ladder is for: one loose solve stops far up the valley.  The descent adds
    SOLVE_RIDGE |pred|^2, which moves that minimizer to a finite scale, so the result
    does not hang on the warm start's last bits.  Raises InnerSolveFailureError, with
    the smallest gradient seen, if no start reaches tol.
    """
    from scipy.optimize import minimize
    require_number(tol, "tol", 0, above=True)
    a, v, d, t, _ = _operands(p, phi, d, phi_target, epsilon=epsilon)
    k = v.shape[1]
    w = d[:, None] * a

    def value_and_grad(x):
        val, gz = _pair_loss_grad(v @ x.reshape(k, k), t, w, loss_kind, epsilon)
        return val + SOLVE_RIDGE * (x @ x), (v.T @ gz).ravel() + 2.0 * SOLVE_RIDGE * x

    warm = optimal_predictor(v, a, d, t)
    gmin = np.inf
    for x in (warm.ravel(), (0.5 * np.eye(k)).ravel(), (-0.5 * np.eye(k)).ravel()):
        for gtol in GTOL_LADDER:
            res = minimize(value_and_grad, x, jac=True, method="L-BFGS-B",
                           options=dict(maxiter=20_000, maxfun=60_000, ftol=0.0,
                                        gtol=gtol, maxcor=20))
            x, pred = res.x, res.x.reshape(k, k)
            grad = (res.jac - 2.0 * SOLVE_RIDGE * x).reshape(k, k)
            gnorm = float(np.abs(grad).max())
            if gnorm <= tol and float(np.abs(grad @ pred.T).max()) <= 50.0 * tol:
                return pred
            gmin = min(gmin, gnorm)
    raise InnerSolveFailureError(
        f"stationarity {gmin:.3e} did not reach tol={tol} for loss_kind={loss_kind!r}")


def _flow(a, left, right):
    """(I - L L^T) a R (L^T a R)^T for (..., n, k) stacks: L's flow with R as its target."""
    pr = a @ right
    return _tangent(left, pr, left.swapaxes(-1, -2) @ pr)


def ode_rhs(phi, p) -> np.ndarray:
    """Continuous-time flow of phi under the optimal predictor at uniform weights,
    (I - phi phi^T) P phi pred^T with pred = phi^T P phi (_flow): tangent to the
    orthonormality constraint, so exact solutions conserve phi^T phi."""
    a = _matrix(p)
    v = _check_rep(phi, a.shape[0])
    return _flow(a, v, v)


def flow_residual(phi, p) -> float:
    """Frobenius norm of ode_rhs, as the records take it (metrics._fit); zero exactly at
    critical points of the flow."""
    a = _matrix(p)
    v = _check_rep(phi, a.shape[0])[None]
    return float(_fit(v, v, np.zeros(1), a[None])[1][0])


def integrate_ode_batch(phi0_stack, tms, t_end: float = FLOW_T_END, n_records: int = FLOW_N_RECORDS,
                        rel_tol: float = FLOW_TOL, abs_tol: float = FLOW_TOL, run_offset: int = 0):
    """Integrate the flow for a stack of runs or pairs (phi0_stack, tms as in
    run_discrete_batch): the m records (Trajectories) on a uniform grid of n_records + 1
    points over [0, t_end] and the final state in phi0_stack's form; run_offset labels
    errors.  A pair's f_ratio, f_tilde over the singular value ceiling, goes to one."""
    return _integrate([(phi0_stack, tms)], t_end, n_records, rel_tol, abs_tol, run_offset,
                      solve_ivp)[0]


def _integrate(flows, t_end, n_records, rel_tol, abs_tol, run_offset, solve):
    """integrate_ode_batch for flows, a list of (state0, tms) entries, in one loop of solve
    (the caller's solve_ivp): each entry's (records, final state).  A run or a pair is one
    row of solve, so a pair shares one step control.  Beside pairs, a single run rides as a
    twin pair, both members on its chain, each the other's partner, and solve's per-member
    arithmetic gives each member the lone run's bits.  A row's chains are a per-run operand
    of solve, so they leave the loop with the row."""
    require_number(t_end, "t_end", 0, above=True, high=MAX_T_END)
    require_number(rel_tol, "rel_tol", MIN_REL_TOL)
    require_number(abs_tol, "abs_tol", 0, above=True)
    require_number(n_records, "n_records", 1, integer=True)
    require_number(run_offset, "run_offset", 0, integer=True)
    if any(isinstance(tms, Spectra) for _, tms in flows):
        raise InvalidInputError("flows step on their chains, not on their Spectra")
    flows = [_rep_stack(*flow) for flow in flows]
    flows = [(phi, tms, np.stack([t.entries for t in tms]), r) for phi, tms, r in flows]
    if len({phi.shape[1:] for phi, *_ in flows}) != 1:
        raise ShapeMismatchError("flows must be one or more and share the representation shape")
    w = max(r for *_, r in flows)  # members per row
    phi, p = (np.concatenate([np.repeat(f[i], w // f[-1], axis=0) for f in flows]) for i in (0, 2))
    rows, n, k = len(phi) // w, *phi.shape[1:]
    starts = np.cumsum([0] + [len(f[0]) // f[-1] for f in flows])  # a stack's first row

    def rhs(y, a):
        v = y.reshape(len(y), w, n, k)
        return _flow(a, v, v[:, ::-1]).reshape(len(y), -1)

    def name(i):
        j = int(np.searchsorted(starts, i, side="right")) - 1
        return f"run {run_offset + i - starts[j]} of the {('single', 'pair')[flows[j][-1] - 1]} flow"

    t_eval = np.linspace(0.0, t_end, n_records + 1)
    sol = solve(rhs, t_end, phi.reshape(rows, -1), t_eval, rel_tol, abs_tol,
                (p.reshape(rows, w, n, n),), name, w)
    y = sol.y.reshape(rows, len(t_eval), w, n, k)
    out = []
    for (phi0, tms, a, r), lo, hi in zip(flows, starts, starts[1:]):
        v = y[lo:hi, :, :r].swapaxes(1, 2).reshape(-1, len(t_eval), n, k)  # a twin's first member
        norms = np.array([reference_normalizer(t, k) for t in tms[::r]])
        c0 = phi0.swapaxes(-1, -2) @ phi0
        cols = _columns(v, np.zeros(v.shape[:2]), c0[:, None], a[:, None], norms[:, None],
                        np.matmul, r)
        out.append((Trajectories(t_eval, cols), _form(v[:, -1], r)))
    return out


def integrate_ode(phi0, tm: TransitionMatrix, t_end: float = FLOW_T_END,
                  n_records: int = FLOW_N_RECORDS, rel_tol: float = FLOW_TOL,
                  abs_tol: float = FLOW_TOL):
    """Single-run wrapper around integrate_ode_batch for one (n, k) run or one pair
    (a BidirState); returns (records, final state in phi0's form)."""
    return _single(integrate_ode_batch, phi0, tm, t_end, n_records, rel_tol, abs_tol)


def _partner(x, r):
    """Each run's live target in a stack of r-run groups: x itself for r = 1; for
    r = 2, a view in the (m / 2, 2, ...) layout of the other member of each pair."""
    return x if r == 1 else x.reshape(-1, 2, *x.shape[1:])[:, ::-1]


def _columns(phi, slog, c0, op, norms, apply, r=1):
    """MetricBundle columns (metrics._fit, _collapse) of the r-run groups of a (m, ..., n, k)
    stack carrying 2**-slog, P acting as apply(op, t).  A single run reports f over its
    ceiling norms; a pair f of its left member, f_tilde = ||L^T P R||^2 over the singular
    value ceiling, its members' worse drift and cosine and the hypot of their residuals."""
    phi, slog, c0, op = (x.reshape(-1, r, *x.shape[1:]) for x in (phi, slog, c0, op))
    f, resid = _fit(phi, phi[:, ::-1], slog, op, apply)
    drift, cos = _collapse(phi, slog, c0)
    if r == 1:
        return f[:, 0], f[:, 0] / norms, None, drift[:, 0], cos[:, 0], resid[:, 0]
    own = _objective(phi[:, 0], phi[:, 0], slog[:, 0], op[:, 0], apply)[2]
    return (own, f[:, 0] / norms, f[:, 0], drift.max(axis=1), cos.max(axis=1),
            np.hypot(resid[:, 0], resid[:, 1]))


def _record_batch(records, step, phi, slog, c0, op, norms, apply, r=1):
    """Append (step, *_columns(...)) of one record to records."""
    records.append((step, *_columns(phi, slog, c0, op, norms, apply, r)))


def _stacked(records) -> Trajectories:
    """The Trajectories of _record_batch's list: its (runs,) columns side by side."""
    times, *cols = zip(*records)
    return Trajectories(np.array(times), tuple(None if c[0] is None else np.stack(c, axis=1)
                                               for c in cols))


def _rep_stack(state0, tms):
    """Checked (m r, n, k) float copy of state0, its m r chains (or, for runs, their Spectra)
    and r: 1 for an (m, n, k) stack, 2 for a BidirState of two, whose m pairs are laid out
    as 2m runs, members adjacent, on P and P^T (_pair_chains)."""
    if isinstance(state0, BidirState):
        if isinstance(tms, Spectra):
            raise InvalidInputError("pairs step on their chains, not on their Spectra")
        left, tms, _ = _rep_stack(state0.left, tms)
        right, *_ = _rep_stack(state0.right, tms)
        if left.shape != right.shape:
            raise ShapeMismatchError(f"left {left.shape} and right {right.shape} stacks differ")
        return np.stack([left, right], axis=1).reshape(-1, *left.shape[1:]), _pair_chains(tms), 2
    phi = _floats(state0, "phi0_stack").copy()
    m, n, k = _stack_shape(phi)
    if isinstance(tms, Spectra) and (tms.values.shape, tms.norms.shape) != ((m, n), (m,)):
        raise ShapeMismatchError(f"Spectra of shape {tms.values.shape} for {m} runs, {n} states")
    if isinstance(tms, Spectra):
        return phi, tms, 1
    tms = [_chain(t) for t in (list(tms) if np.iterable(tms) else [tms] * m)]
    if len(tms) != m:
        raise ShapeMismatchError(f"got {len(tms)} chains for {m} runs")
    if any(t.n != n for t in tms):
        raise ShapeMismatchError("every chain must match the representation row count")
    return phi, tms, 1


def _form(final, r):
    """A driver's final stack of r-run groups in its input's form: the stack, or a BidirState."""
    return BidirState(final[0::2], final[1::2]) if r == 2 else final


def _each(x, fn):
    """fn of a run's (or stack's) state x, or the BidirState of fn of each member."""
    return BidirState(fn(x.left), fn(x.right)) if isinstance(x, BidirState) else fn(x)


def _single(driver, state0, tm, *args):
    """driver (run_discrete_batch or integrate_ode_batch) on one (n, k) run, or one pair
    (a BidirState), and its chain tm, as a stack of one: (records, final state) of it."""
    records, final = driver(_each(state0, lambda v: _check_rep(v, _chain(tm).n)[None]), tm, *args)
    return records[0], _each(final, lambda v: v[0])


def _stack_shape(phi: np.ndarray) -> tuple:
    """(m, n, k) of an (m, n, k) stack of m >= 1 runs with 1 <= k <= n, else InvalidInputError."""
    if phi.ndim != 3:
        raise InvalidInputError(f"phi0_stack must be (m, n, k), got shape {phi.shape}")
    m, n, k = phi.shape
    require_number(m, "the stack's run count", 1)
    require_number(k, "the stack's column count", 1, high=n)
    return phi.shape


def _pair_chains(tms) -> list:
    """P and P^T for each doubly stochastic chain: a stacked pair's left and right chains."""
    if not all(t.is_doubly_stochastic for t in tms):
        raise NotDoublyStochasticError(
            "bidirectional dynamics need unit column sums so the reversed chain is stochastic")
    return [c for t in tms for c in
            (t, t if t.is_bitwise_symmetric else TransitionMatrix.from_entries(t.entries.T))]


def _require_uniform(d, n: int) -> np.ndarray:
    v = validate_distribution(d, n)
    if np.abs(v - 1.0 / n).max() > UNIFORM_TOL:
        raise InvalidInputError("bidirectional dynamics are defined for the uniform distribution")
    return v


def _eigenbasis(tms, d) -> bool:
    """Whether run_discrete_batch steps in the eigenbasis, not on dense P: d uniform and
    every chain in tms symmetric bitwise."""
    return bool(np.all(d == d[0]) and all(t.is_bitwise_symmetric for t in tms))


def eigen_stack(tms, phi0_stack):
    """(Spectra, psi0 = U^T phi0) of chains P = U diag(lam) U^T (any iterable, read one
    chain at a time) and an (m, n, k) stack.  A chain not symmetric bitwise raises
    NotSymmetricError, as its eigh is not the basis the kernel steps in; chains that do
    not match the runs one to one, in number or in n, raise ShapeMismatchError."""
    phi0_stack = _floats(phi0_stack, "phi0_stack")
    m, n, k = _stack_shape(phi0_stack)
    chains, runs = iter(tms), []
    for phi, tm in zip(phi0_stack, chains):  # the stack first: no chain is read past the last run
        if not _chain(tm).is_bitwise_symmetric:
            raise NotSymmetricError(f"run {len(runs)}: the chain is not symmetric bitwise")
        if tm.n != n:
            raise ShapeMismatchError(f"run {len(runs)}: a chain of {tm.n} states for {n} rows")
        w, u = tm.eigh
        runs.append((w, reference_normalizer(tm, k), u.T @ phi))
    if len(runs) != m or next(chains, None) is not None:
        raise ShapeMismatchError(f"got {'more than ' * (len(runs) == m)}{len(runs)} chains for {m} runs")
    lam, norms, psi = zip(*runs)
    return Spectra(np.stack(lam), np.array(norms)), np.stack(psi)


def run_discrete_batch(phi0_stack, tms, d, config: DynamicsConfig,
                       noise_rngs=None, run_offset: int = 0):
    """Train a stack of runs, or of pairs, in lockstep: (records, final).

    phi0_stack is (m, n, k), or a BidirState of two such stacks for m pairs; tms is one
    TransitionMatrix for every run, a sequence of m, or, for runs, their Spectra, both
    stacks then in eigen coordinates (eigen_stack).  noise_rngs holds one generator per
    run when predictor_mode="noisy"; run_offset labels errors.  records (Trajectories)
    holds the m record lists, final the last state in phi0_stack's form, any rescale
    folded back in (divergent runs report inf).  A pair needs doubly stochastic chains,
    uniform d, the semi gradient, optimal predictor and no target.
    """
    require_number(run_offset, "run_offset", 0, integer=True)
    phi, tms, r = _rep_stack(phi0_stack, tms)
    d = (validate_distribution if r == 1 else _require_uniform)(d, phi.shape[1])
    if r == 2 and (config.gradient_mode, config.predictor_mode,
                   config.target_beta) != ("semi", "optimal", None):
        raise InvalidInputError("pairs train on the semi gradient, optimal predictor, no target")
    m = len(phi)
    if config.predictor_mode == "noisy" and not (
            isinstance(noise_rngs, Sequence) and len(noise_rngs) == m
            and all(isinstance(g, np.random.Generator) for g in noise_rngs)):
        raise InvalidInputError(f"predictor_mode='noisy' needs a sequence of {m} numpy Generators")
    prepared = isinstance(tms, Spectra)
    eigen = _eigenbasis(() if prepared else tms, d)
    if prepared and not eigen:
        raise InvalidInputError("Spectra need uniform d")
    if eigen:
        spectra, phi = (tms, phi) if prepared else eigen_stack(tms, phi)
        op, norms = spectra.values, spectra.norms[::r]
    else:
        op = np.stack([t.entries.T for t in tms])
        norms = np.array([reference_normalizer(t, phi.shape[2]) for t in tms[::r]])
    records, phi, slog = _lockstep(phi, op, norms, d, config, noise_rngs, run_offset, r)
    if eigen and not prepared:
        phi = np.stack([t.eigh[1] @ v for t, v in zip(tms, phi)])
    return records, _form(_scaled(phi, slog[:, None, None]), r)


def _inside(x) -> bool:
    """All |x| <= RESCALE_LIMIT: one BLAS pass, two more if the sum of squares is large."""
    v = x.ravel()  # a view: phi and the target are contiguous
    return bool(np.dot(v, v) <= GUARD_SUMSQ
                or -RESCALE_LIMIT <= v.min() and v.max() <= RESCALE_LIMIT)


def _lockstep(phi, op, norms, d, config, noise_rngs=None, run_offset=0, r=1):
    """Step phi in place on op, (m, n) eigenvalues (phi in their bases) or the P^T stack,
    a group rescaled as one and recorded against its norms (_columns): (records, phi, slog)."""
    m, n, k = phi.shape
    noisy = config.predictor_mode == "noisy"
    apply, op, normal, increment, scratch = _step(op, d, phi, config.eta,
                                                  config.gradient_mode == "full")
    beta = config.target_beta
    tgt = phi.copy() if beta is not None else None
    guarded = (phi,) if tgt is None else (phi, tgt)
    # Each run's target for the chain product: a view that stays current, as phi and tgt
    # are updated in place.
    target = _partner(phi if tgt is None else tgt, r)
    slog = np.zeros(m)
    records: list = []

    def name(row):  # a row's run, or in a stack of r = 2 runs per pair its pair, at this step
        return f"{('run', 'pair')[r - 1]} {run_offset + int(row) // r} at step {step}"

    # A hostile initial state overflows in c0 and its first solve raises.
    with np.errstate(over="ignore", invalid="ignore"):
        c0 = phi.transpose(0, 2, 1) @ phi
        _record_batch(records, 0.0, phi, slog, c0, op, norms, apply, r)
        for step in range(1, config.iters + 1):
            pred = covariance_solve_batch(*normal(target), name)
            if noisy:  # a generator's stream is the same however many steps a call draws
                if (step - 1) % NOISE_BLOCK == 0:
                    b = min(NOISE_BLOCK, config.iters - step + 1)
                    noise = np.stack([r.standard_normal((b, k, k)) for r in noise_rngs])
                pred += config.sigma * noise[:, (step - 1) % NOISE_BLOCK]
            g = increment(pred)
            if beta:  # at beta = 0 the target stays at the init
                np.subtract(phi, tgt, out=scratch)
                scratch *= config.eta * beta
                tgt += scratch
            phi += g
            # One pass over each array (_inside); then, per run, past the limit rescales once,
            # and NaN or past the limit after one rescale raises: the one check after a step.
            if not all(_inside(x) for x in guarded):
                top = np.max([np.abs(x).max(axis=(1, 2)) for x in guarded], axis=0)
                over = np.flatnonzero(~(top <= RESCALE_LIMIT * 2.0 ** RESCALE_EXP))
                if len(over):
                    what = "turned non-finite" if np.isnan(top[over[0]]) else "outgrew the blow-up guard"
                    raise NonFiniteStateError(f"{name(over[0])} {what}")
                big = np.repeat((top > RESCALE_LIMIT).reshape(-1, r).any(axis=1), r)  # a group as one
                for x in guarded:
                    x[big] *= 2.0 ** -RESCALE_EXP
                slog[big] += RESCALE_EXP
            if step % config.record_every == 0 or step == config.iters:
                _record_batch(records, float(step), phi, slog, c0, op, norms, apply, r)
    return _stacked(records), phi, slog


def run_discrete(phi0, tm: TransitionMatrix, d, config: DynamicsConfig, noise_rng=None):
    """Single-run wrapper around run_discrete_batch for one (n, k) run or one pair
    (a BidirState); returns (records, final state in phi0's form)."""
    return _single(run_discrete_batch, phi0, tm, d, config,
                   [noise_rng] if noise_rng is not None else None)
