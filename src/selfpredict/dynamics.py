"""Self-predictive representation dynamics, discrete and continuous.

The learned object is a representation matrix phi with one row per state.
Training pairs a state drawn from d with a successor drawn from the chain;
the loss compares the predictor applied to the input embedding against the
frozen successor embedding.  Stepping phi on the semi-gradient of that loss
(the target embedding does not propagate gradients) while the predictor is
held at its least-squares optimum produces the dynamics studied here, along
with several ablations: the full gradient, a slow-moving target, predictor
noise, and alternative pairwise losses.

Conventions shared by every routine in this module:

* phi is (n, k) dense float, d is a probability vector over states;
* the reported objective f is always the uniform-weight trace objective
  from metrics.trace_objective, regardless of the training weights;
* records are taken at step 0, every record_every steps, and at the final
  step; the continuous flow records on a uniform time grid instead.

Runs step in stacks, in lockstep (_lockstep) or through the stacked
Dormand-Prince 5(4) in rk45 (_integrate); a run's records do not depend on the
runs beside it.  A run's live target is its partner (_partner): itself, or the
other member of a bidirectional pair.  Predictors come from
covariance_solve_batch: certified inverse, else eigh pseudoinverse.

Under uniform d, the squared loss and a closed-form predictor, run_discrete_batch
steps psi = U^T phi against the eigenvalues of a chain P = U diag(lam) U^T equal to
its transpose bitwise (O(nk), not O(n^2 k)); only rounding differs from dense P.

Blow-up handling: with the losses here the semi-gradient update with an
optimal predictor is degree-1 homogeneous in phi (in both members of a pair
jointly), so divergent runs, and both members of a pair together, are
rescaled by an exact power of two whenever entries pass 2**256 and the
accumulated exponent is folded back into reported metrics with ldexp.  Cosines
are unaffected; a reported value is inf only where the true one is not
representable, or where a working product overflowed first.  Noisy predictors
break homogeneity and skip the guard; a noisy run that overflows ends in
NonFiniteStateError from the predictor solve.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCovarianceError, InnerSolveFailureError, InvalidInputError,
                     NonFiniteStateError, ShapeMismatchError)
from .markov import TransitionMatrix, validate_distribution
from .metrics import MetricBundle, _check_rep, _matrix, _max_abs_cosine, _norm, reference_normalizer
from .rk45 import solve_ivp

COV_CUTOFF = 1e-12
CERTIFY_MARGIN = 1e3
RESCALE_LIMIT = 2.0 ** 256
RESCALE_EXP = 256.0
NOISE_BLOCK = 64  # steps of predictor noise drawn per generator call

GRADIENT_MODES = ("semi", "full")
PREDICTOR_MODES = ("optimal", "noisy", "inner_solved")
LOSS_KINDS = ("squared", "l1", "cosine_eps")


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
    loss_kind: str = "squared"
    sigma: float = 0.0
    epsilon: float = 1e-8
    target_beta: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise InvalidInputError(f"eta must be positive and finite, got {self.eta}")
        if self.iters < 1:
            raise InvalidInputError("iters must be at least 1")
        if self.record_every < 1:
            raise InvalidInputError("record_every must be at least 1")
        if self.gradient_mode not in GRADIENT_MODES:
            raise InvalidInputError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.predictor_mode not in PREDICTOR_MODES:
            raise InvalidInputError(f"predictor_mode must be one of {PREDICTOR_MODES}")
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidInputError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.sigma < 0 or not np.isfinite(self.sigma):
            raise InvalidInputError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if self.sigma > 0 and self.predictor_mode != "noisy":
            raise InvalidInputError("sigma > 0 requires predictor_mode='noisy'")
        if self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        if self.target_beta is not None:
            if self.target_beta < 0 or not np.isfinite(self.target_beta):
                raise InvalidInputError("target_beta must be nonnegative and finite")
            if self.gradient_mode == "full":
                raise InvalidInputError("a separate target is undefined for the full gradient")
        if self.gradient_mode == "full" and self.loss_kind != "squared":
            raise InvalidInputError("the full gradient is implemented for the squared loss only")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics at one point of a run; step index or time in step_or_time."""

    step_or_time: float
    bundle: MetricBundle


def orthonormal_init(n: int, k: int, seed: int) -> np.ndarray:
    """Draw an (n, k) matrix with orthonormal columns, uniformly over frames.

    QR of a standard Gaussian block, with the usual sign fix on the R
    diagonal so the distribution is exactly rotation invariant.
    """
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * signs


def covariance_solve_batch(cov, rhs, run_offset: int = 0, step=None) -> np.ndarray:
    """Solve cov @ x = rhs for an (m, k, k) stack of symmetric PSD covariances.

    The answer is the eigh pseudoinverse's, which zeroes eigenvalues at or below
    1e-12 of the largest.  Runs whose inverse puts every eigenvalue CERTIFY_MARGIN
    above that (lambda_min >= 1/||cov^-1||_F, lambda_max <= trace) are solved
    through it, the rest through eigh, which raises NonFiniteStateError or
    DegenerateCovarianceError naming run run_offset + index (and step).
    """
    x, ok = np.empty_like(rhs), np.zeros(len(cov), dtype=bool)
    with np.errstate(all="ignore"), suppress(np.linalg.LinAlgError):
        inv = np.linalg.inv(cov)
        x = inv @ rhs
        bound = np.einsum("mii->m", cov) * np.sqrt(np.einsum("mij,mij->m", inv, inv))
        ok = (bound * (CERTIFY_MARGIN * COV_CUTOFF) < 1.0) & np.isfinite(x.sum(axis=(-2, -1)))
    if ok.all():
        return x
    bad = np.flatnonzero(~ok)
    cov, rhs = cov[bad], rhs[bad]
    at = "" if step is None else f" at step {step}"
    finite = np.isfinite(cov).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=(-2, -1))
    if not finite.all():
        raise NonFiniteStateError(
            f"non-finite predictor solve in run {run_offset + bad[~finite][0]}{at}")
    w, v = np.linalg.eigh(cov)
    top = np.abs(w).max(axis=1)
    if np.any(top == 0.0):
        raise DegenerateCovarianceError(
            f"covariance is identically zero in run {run_offset + bad[top == 0.0][0]}{at}")
    keep = np.abs(w) > COV_CUTOFF * top[:, None]
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    x[bad] = (v * inv[:, None, :]) @ (v.swapaxes(-1, -2) @ rhs)
    return x


def covariance_solve(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """covariance_solve_batch for one (k, k) covariance and its (k, j) rhs."""
    return covariance_solve_batch(*(np.asarray(a, dtype=float)[None] for a in (cov, rhs)))[0]


def _operands(p, phi, d, phi_target=None):
    """Checked (P, phi, d, target) of one run; the target defaults to phi."""
    a = _matrix(p)
    n = a.shape[0]
    v = _check_rep(phi, n)
    d = validate_distribution(d, n)
    return a, v, d, v if phi_target is None else _check_rep(phi_target, n, "phi_target")


def optimal_predictor(phi, p, d, phi_target=None) -> np.ndarray:
    """Least-squares predictor for the squared loss at fixed representations.

    Solves (phi^T D phi) pred = phi^T D P phi_target with D = diag(d),
    defaulting phi_target to phi.  Rank deficiency is handled by the
    pseudoinverse in covariance_solve.
    """
    a, v, d, t = _operands(p, phi, d, phi_target)
    if t.shape[1] != v.shape[1]:
        raise ShapeMismatchError("phi and phi_target must have the same number of columns")
    dv = d[:, None] * v
    return covariance_solve(v.T @ dv, dv.T @ (a @ t))


def noisy_predictor(phi, p, d, sigma: float, rng: np.random.Generator, phi_target=None) -> np.ndarray:
    """Optimal predictor plus iid Gaussian noise of scale sigma."""
    if sigma < 0:
        raise InvalidInputError("sigma must be nonnegative")
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
                    epsilon: float = 1e-8, phi_target=None) -> float:
    """Expected pairwise loss between predicted and frozen successor embeddings."""
    a, v, d, t = _operands(p, phi, d, phi_target)
    val, _ = _pair_loss_grad(v @ np.asarray(pred, dtype=float), t, d[:, None] * a,
                             loss_kind, epsilon)
    return val


def predictor_gradient(phi, pred, p, d, loss_kind: str = "squared",
                       epsilon: float = 1e-8, phi_target=None) -> np.ndarray:
    """Gradient of prediction_loss with respect to the predictor matrix."""
    a, v, d, t = _operands(p, phi, d, phi_target)
    _, gz = _pair_loss_grad(v @ np.asarray(pred, dtype=float), t, d[:, None] * a,
                            loss_kind, epsilon)
    return v.T @ gz


def semi_gradient_step(phi, pred, p, d, eta: float, loss_kind: str = "squared",
                       epsilon: float = 1e-8, phi_target=None) -> np.ndarray:
    """One semi-gradient update of phi at a fixed predictor.

    Only the input-side embedding carries gradients; the successor side is
    frozen at phi_target (phi itself by default).  For the squared loss the
    update is phi + 2 eta (D P phi_target - D phi pred) pred^T.
    """
    a, v, d, t = _operands(p, phi, d, phi_target)
    pred = np.asarray(pred, dtype=float)
    _, gz = _pair_loss_grad(v @ pred, t, d[:, None] * a, loss_kind, epsilon)
    return v - eta * (gz @ pred.T)


def full_gradient_step(phi, pred, p, d, eta: float) -> np.ndarray:
    """One full-gradient update for the squared loss (successor side included)."""
    a, v, d, _ = _operands(p, phi, d)
    pred = np.asarray(pred, dtype=float)
    dv = d[:, None] * v
    vp = dv @ pred
    grad = 2.0 * (vp - d[:, None] * (a @ v)) @ pred.T - 2.0 * (a.T @ vp - (a.T @ d)[:, None] * v)
    return v - eta * grad


GTOL_LADDER = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13)
SOLVE_RIDGE = 1e-13  # its gradient 2e-13 |pred| stays far below tol wherever the solves end


def solve_predictor(phi, p, d, loss_kind: str = "squared", epsilon: float = 1e-8,
                    tol: float = 1e-8, phi_target=None) -> np.ndarray:
    """Minimize prediction_loss over the predictor to max-norm stationarity tol.

    Quasi-Newton descent from the squared-loss optimum, retightening the
    gradient tolerance until both the gradient and the induced tangential
    step pred-gradient product are small; a couple of fixed restarts cover
    warm starts that sit in a flat basin.  The epsilon-regularized cosine
    loss has a scale direction along which curvature decays like 1/s**2,
    which is what the tolerance ladder is for: a single loose solve stops
    far up the valley.  The descent adds SOLVE_RIDGE |pred|^2, which moves
    that minimizer to a finite scale, so the result does not hang on the last
    bits of the warm start (the checks leave the ridge out).  Raises
    InnerSolveFailureError if no start reaches tol.
    """
    from scipy.optimize import minimize
    a, v, d, t = _operands(p, phi, d, phi_target)
    k = v.shape[1]
    w = d[:, None] * a

    def value_and_grad(x):
        val, gz = _pair_loss_grad(v @ x.reshape(k, k), t, w, loss_kind, epsilon)
        return val + SOLVE_RIDGE * (x @ x), (v.T @ gz).ravel() + 2.0 * SOLVE_RIDGE * x

    warm = optimal_predictor(v, a, d, t)
    starts = [warm.ravel(), (0.5 * np.eye(k)).ravel(), (-0.5 * np.eye(k)).ravel()]
    best = None
    for start in starts:
        x = start.copy()
        for gtol in GTOL_LADDER:
            res = minimize(value_and_grad, x, jac=True, method="L-BFGS-B",
                           options=dict(maxiter=20_000, maxfun=60_000, ftol=0.0,
                                        gtol=gtol, maxcor=20))
            x = res.x
            pred = x.reshape(k, k)
            _, gz = _pair_loss_grad(v @ pred, t, w, loss_kind, epsilon)
            grad = v.T @ gz
            gnorm = float(np.abs(grad).max())
            tang = float(np.abs(grad @ pred.T).max())
            if best is None or gnorm < best[0]:
                best = (gnorm, pred.copy())
            if gnorm <= tol and tang <= 50.0 * tol:
                return pred
    if best is not None and best[0] <= tol:
        return best[1]
    raise InnerSolveFailureError(
        f"stationarity {best[0]:.3e} did not reach tol={tol} for loss_kind={loss_kind!r}")


def _flow(a, left, right):
    """(I - L L^T) a R (L^T a R)^T for (..., n, k) stacks: L's flow with R as its target."""
    pr = a @ right
    fwd = left.swapaxes(-1, -2) @ pr
    return (pr - left @ fwd) @ fwd.swapaxes(-1, -2)


def ode_rhs(phi, p) -> np.ndarray:
    """Continuous-time flow of phi under the optimal predictor at uniform weights.

    Equal to (I - phi phi^T) P phi pred^T with pred = phi^T P phi; tangent
    to the orthonormality constraint, so phi^T phi is conserved exactly
    along exact solutions.
    """
    a = _matrix(p)
    v = _check_rep(phi, a.shape[0])
    return _flow(a, v, v)


def flow_residual(phi, p) -> float:
    """Frobenius norm of ode_rhs; zero exactly at critical points of the flow."""
    return float(_norm(ode_rhs(phi, p)))


def integrate_ode_batch(phi0_stack, tms, t_end: float = 100.0, n_records: int = 100,
                        rel_tol: float = 1e-9, abs_tol: float = 1e-9, run_offset: int = 0):
    """Integrate the flow for a stack of runs (phi0_stack, tms as in run_discrete_batch).

    Returns m lists of n_records + 1 records on a uniform grid over [0, t_end]
    and the (m, n, k) states at t_end; run_offset labels errors.
    """
    return _integrate(phi0_stack, tms, t_end, n_records, rel_tol, abs_tol, run_offset, solve_ivp)


def _integrate(phi0_stack, tms, t_end, n_records, rel_tol, abs_tol, run_offset, solve, r=1):
    """integrate_ode_batch for a stack of r-run groups (see _partner); a group is one
    run of solve (the caller's solve_ivp), so a pair shares one step control."""
    phi, tms = _rep_stack(phi0_stack, tms)
    if not (np.isfinite(t_end) and t_end > 0):
        raise InvalidInputError("t_end must be positive and finite")
    if n_records < 1:
        raise InvalidInputError("n_records must be at least 1")
    m, n, k = phi.shape
    p_stack = np.stack([t.entries for t in tms])
    norms = np.array([reference_normalizer(t, k) for t in tms[::r]])

    def rhs(y):
        v = y.reshape(m, n, k)
        return _flow(p_stack, v, _partner(v, r)).reshape(m // r, -1)

    t_eval = np.linspace(0.0, t_end, n_records + 1)
    sol = solve(rhs, t_end, phi.reshape(m // r, -1), t_eval, rel_tol, abs_tol, run_offset)
    v = sol.y.reshape(m // r, -1, r, n, k).swapaxes(1, 2).reshape(m, -1, n, k)
    c0 = phi.swapaxes(-1, -2) @ phi
    cols = _columns(v, np.zeros(v.shape[:2]), c0[:, None], p_stack[:, None], norms[:, None],
                    np.matmul, r)
    return _trajectories(t_eval.tolist(), *cols), v[:, -1]


def integrate_ode(phi0, tm: TransitionMatrix, t_end: float = 100.0, n_records: int = 100,
                  rel_tol: float = 1e-9, abs_tol: float = 1e-9):
    """Single-run wrapper around integrate_ode_batch; returns (records, phi_final)."""
    if not isinstance(tm, TransitionMatrix):
        raise InvalidInputError("integrate_ode needs a TransitionMatrix")
    records, final = integrate_ode_batch(_check_rep(phi0, tm.n)[None], tm, t_end, n_records,
                                         rel_tol, abs_tol)
    return records[0], final[0]


def _scaled(vals: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """vals * 2**exp, rounded once, so a representable product stays finite."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(vals, exp.astype(np.int64))


def _partner(x, r):
    """Each run's live target in a stack of r-run groups: the run itself for r = 1,
    the other member of its pair for r = 2 (a copy, so x may change after)."""
    return x if r == 1 else x.reshape(-1, 2, *x.shape[1:])[:, ::-1].reshape(x.shape)


def _metrics(phi, target, slog, c0, op, apply=np.matmul):
    """f against the target, covariance drift, cosine and flow residual of (..., n, k) stacks.

    The chain acts as apply(op, target) (P under matmul, eigenvalues under
    multiply).  phi and target carry a factor 2**-slog that the metrics fold
    back in; a diverged run reports inf, overflow in the intermediate products
    being the route.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pp = apply(op, target)
        pred = phi.swapaxes(-1, -2) @ pp
        f = _scaled(np.sum(pred * pred, axis=(-2, -1)), 4.0 * slog)
        c = phi.swapaxes(-1, -2) @ phi
        drift = np.abs(_scaled(c, 2.0 * slog[..., None, None]) - c0).max(axis=(-2, -1))
        # (2^(-2 slog) I - phi phi^T) P target pred^T without the (n, n) projector;
        # phi^T P target is pred itself.
        tangent = _scaled(pp, -2.0 * slog[..., None, None]) - phi @ pred
        resid = _scaled(_norm(tangent @ pred.swapaxes(-1, -2), axis=(-2, -1)), 5.0 * slog)
    return f, drift, _max_abs_cosine(c), resid


def _columns(phi, slog, c0, op, norms, apply, r=1):
    """MetricBundle columns of the r-run groups of a (m, ..., n, k) stack (see _metrics).

    A single run reports f over its ceiling norms.  A pair reports f of its left
    member, f_tilde = ||L^T P R||^2 over the singular value ceiling, the worse
    drift and cosine of its members and the hypot of their flow residuals.
    """
    f, drift, cos, resid = _metrics(phi, _partner(phi, r), slog, c0, op, apply)
    if r == 1:
        return f, f / norms, None, drift, cos, resid
    left = slice(None, None, 2)
    own = _metrics(phi[left], phi[left], slog[left], c0[left], op[left], apply)[0]
    drift, cos, resid = (x.reshape(-1, 2, *x.shape[1:]) for x in (drift, cos, resid))
    return (own, f[left] / norms, f[left], drift.max(axis=1), cos.max(axis=1),
            np.hypot(resid[:, 0], resid[:, 1]))


def _trajectories(times, f, f_ratio, f_tilde, drift, cos, resid) -> list:
    """One TrajectoryRecord list per run from (m, len(times)) metric columns."""
    ft = f_tilde.tolist() if f_tilde is not None else [[None] * len(times)] * len(f)
    return [[TrajectoryRecord(t, MetricBundle(*row)) for t, *row in zip(times, *cols)]
            for cols in zip(f.tolist(), f_ratio.tolist(), ft, drift.tolist(),
                            cos.tolist(), resid.tolist())]


def _record_batch(records, step, phi, slog, c0, op, norms, apply, r=1):
    cols = (None if c is None else c[:, None] for c in _columns(phi, slog, c0, op, norms, apply, r))
    for run, new in zip(records, _trajectories([step], *cols)):
        run.extend(new)


def _rep_stack(phi0_stack, tms):
    """Checked (m, n, k) float copy of a stack and its m chains."""
    phi = np.array(phi0_stack, dtype=float)
    if phi.ndim != 3:
        raise InvalidInputError(f"phi0_stack must be (m, n, k), got shape {phi.shape}")
    m, n, k = phi.shape
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    tms = [tms] * m if isinstance(tms, TransitionMatrix) else list(tms)
    if len(tms) != m:
        raise ShapeMismatchError(f"got {len(tms)} chains for {m} runs")
    if not all(isinstance(t, TransitionMatrix) for t in tms):
        raise InvalidInputError("tms must contain TransitionMatrix instances")
    if any(t.n != n for t in tms):
        raise ShapeMismatchError("every chain must match the representation row count")
    return phi, tms


def _eigenbasis(tms, d, config: DynamicsConfig):
    """Eigenvalues (m, n, 1) and cached eigenvectors of the chains, or None.

    None, keeping the dense P products, unless d is uniform, the loss squared,
    the predictor closed-form and every chain equal to its transpose bitwise.
    """
    if (config.loss_kind != "squared" or config.predictor_mode == "inner_solved"
            or np.any(d != d[0]) or not all(t.is_bitwise_symmetric for t in tms)):
        return None
    lam, vecs = zip(*(t.eigh for t in tms))
    return np.stack(lam)[:, :, None], vecs


def run_discrete_batch(phi0_stack, tms, d, config: DynamicsConfig,
                       noise_rngs=None, run_offset: int = 0):
    """Train a stack of runs in lockstep and collect per-run records.

    phi0_stack is (m, n, k); tms is one TransitionMatrix shared by every
    run or a sequence of m of them.  noise_rngs supplies one generator per
    run when predictor_mode="noisy".  run_offset only labels error
    messages.  Returns (records, phi_final) where records is a list of m
    record lists and phi_final is the (m, n, k) stack after the last step,
    with any blow-up rescaling folded back in (divergent runs report inf).
    """
    return _lockstep(phi0_stack, tms, d, config, noise_rngs, run_offset)


def _lockstep(phi0_stack, tms, d, config, noise_rngs=None, run_offset=0, r=1):
    """run_discrete_batch for a stack of r-run groups (see _partner): the blow-up
    guard rescales a group as one, and records come one list per group (_columns)."""
    phi, tms = _rep_stack(phi0_stack, tms)
    m, n, k = phi.shape
    d = validate_distribution(d, n)
    noisy = config.predictor_mode == "noisy"
    if noisy and (noise_rngs is None or len(noise_rngs) != m):
        raise InvalidInputError("predictor_mode='noisy' needs one noise rng per run")
    inner = config.predictor_mode == "inner_solved"

    basis = _eigenbasis(tms, d, config)
    full = config.gradient_mode == "full"
    two_eta = 2.0 * config.eta
    w = d[0] if np.all(d == d[0]) else d[:, None]  # the state weights, D = diag(d)
    if basis is None:  # BLAS forms P @ t fastest with P a view of a C-ordered P^T stack
        p_t = np.stack([t.entries.T for t in tms])
        apply, op, wop = np.matmul, p_t.transpose(0, 2, 1), (p_t * d).transpose(0, 2, 1)
        if full:  # 2 eta P^T and its column weights 2 eta P^T d
            op_t, colw = two_eta * p_t, np.repeat((two_eta * (p_t @ d))[:, :, None], k, axis=2)
    else:
        (op, vecs), apply = basis, np.multiply
        wop = np.repeat(w * op, k, axis=2)  # a contiguous operand multiplies fastest
        if full:  # here P^T d is the constant d
            op_t, colw = np.repeat(two_eta * op, k, axis=2), two_eta * w
        phi = np.stack([u.T @ v for u, v in zip(vecs, phi)])
    norms = np.array([reference_normalizer(t, k) for t in tms[::r]])
    dphi, dpt, dpp, g = (np.empty_like(phi) for _ in range(4))
    pred_t = np.empty((m, k, k))  # 2 eta pred^T, contiguous: a strided operand slows the product

    beta = config.target_beta
    tgt = phi.copy() if beta is not None else None
    guarded = (phi,) if tgt is None else (phi, tgt)
    slog = np.zeros(m)
    phi_t = phi.transpose(0, 2, 1)  # phi is updated in place, so the view stays current
    c0 = phi_t @ phi
    records: list[list[TrajectoryRecord]] = [[] for _ in range(m // r)]
    _record_batch(records, 0.0, phi, slog, c0, op, norms, apply, r)

    # A noisy run has no guard; its overflow reaches the solve, which raises.
    with np.errstate(**(dict(over="ignore", invalid="ignore") if noisy else {})):
        for step in range(1, config.iters + 1):
            t_mat = tgt if beta is not None else _partner(phi, r)
            apply(wop, t_mat, out=dpt)
            np.multiply(phi, w, out=dphi)  # a second buffer keeps the Gram off the syrk path
            if inner:
                pred = np.stack([
                    solve_predictor(phi[i], op[i], d, config.loss_kind,
                                    config.epsilon, phi_target=t_mat[i]) for i in range(m)])
            else:
                pred = covariance_solve_batch(phi_t @ dphi, phi_t @ dpt, run_offset, step)
                if noisy:  # a generator's stream is the same however many steps a call draws
                    if (step - 1) % NOISE_BLOCK == 0:
                        b = min(NOISE_BLOCK, config.iters - step + 1)
                        noise = np.stack([r.standard_normal((b, k, k)) for r in noise_rngs])
                    pred += config.sigma * noise[:, (step - 1) % NOISE_BLOCK]
            if config.loss_kind == "squared":
                # g = (D P t - D phi pred) 2 eta pred^T [+ 2 eta (P^T D phi pred - colw phi)]
                np.matmul(dphi, pred, out=dpp)
                np.subtract(dpt, dpp, out=dpt)
                np.multiply(pred.transpose(0, 2, 1), two_eta, out=pred_t)
                np.matmul(dpt, pred_t, out=g)
                if full:
                    apply(op_t, dpp, out=dpt)
                    np.multiply(phi, colw, out=dphi)
                    dpt -= dphi
                    g += dpt
            else:
                for i in range(m):
                    _, gz = _pair_loss_grad(phi[i] @ pred[i], t_mat[i], d[:, None] * op[i],
                                            config.loss_kind, config.epsilon)
                    g[i] = -config.eta * (gz @ pred[i].T)
            if beta is not None:
                np.subtract(phi, tgt, out=dpt)
                dpt *= config.eta * beta
                tgt += dpt
            phi += g
            # One global min and max, with no |x| buffer; past the limit, or NaN, per run.
            if not noisy and not all(-RESCALE_LIMIT <= x.min() and x.max() <= RESCALE_LIMIT
                                     for x in guarded):
                big = np.max([np.abs(x).max(axis=(1, 2)) for x in guarded], axis=0) > RESCALE_LIMIT
                big = np.repeat(big.reshape(-1, r).any(axis=1), r)  # a group rescales as one
                for x in guarded:
                    x[big] *= 2.0 ** -RESCALE_EXP
                slog[big] += RESCALE_EXP
            if step % config.record_every == 0 or step == config.iters:
                _record_batch(records, float(step), phi, slog, c0, op, norms, apply, r)

    if basis is not None:
        phi = np.stack([u @ v for u, v in zip(vecs, phi)])
    phi_final = _scaled(phi, slog[:, None, None])
    return records, phi_final


def run_discrete(phi0, tm: TransitionMatrix, d, config: DynamicsConfig, noise_rng=None):
    """Single-run wrapper around run_discrete_batch."""
    if not isinstance(tm, TransitionMatrix):
        raise InvalidInputError("run_discrete needs a TransitionMatrix")
    v0 = _check_rep(phi0, tm.n)
    rngs = [noise_rng] if noise_rng is not None else None
    records, final = run_discrete_batch(v0[None, :, :], tm, d, config, rngs)
    return records[0], final[0]
