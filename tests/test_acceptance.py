"""Acceptance checks for the whole package.

Each test prints one [PASS]/[FAIL] line; the terminal summary repeats them
as a block.  Population sizes, tolerances, and thresholds are fixed here on
purpose; the ablation thresholds come from tests/data/ablation_margins.json
(written by scripts/run_pilot.py), never from this file.

The per-record monotonicity checks integrate at 1e-11 instead of the 1e-9
default: once an objective saturates at its ceiling, default-tolerance
solver wobble is of the same order as the 1e-8 allowance being verified.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import REDUCED_SCENARIOS, central_fd, rel_err, report
from selfpredict import (
    BidirState,
    DynamicsConfig,
    TransitionMatrix,
    bidir_ode_rhs,
    fixed_example_2x2,
    fixed_example_3x3,
    flow_residual,
    full_gradient_step,
    gen_doubly_stochastic,
    gen_symmetric,
    integrate_bidir,
    integrate_ode,
    normalizers,
    optimal_predictor,
    orthonormal_init,
    prediction_loss,
    run_discrete_batch,
    run_discrete_bidir,
    semi_gradient_step,
    solve_predictor,
    spectral,
    stream_rng,
    stream_seed,
    svd_trace_objective,
    trace_objective,
    uniform_distribution,
)
from selfpredict.dynamics import eigen_stack
from selfpredict.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from selfpredict.seeding import (
    STREAM_INIT_LEFT,
    STREAM_INIT_RIGHT,
    STREAM_MATRIX,
    STREAM_NOISE,
)

MARGINS_PATH = Path(__file__).resolve().parent / "data" / "ablation_margins.json"

N_RUNS = 100
N_STATES = 20
K = 2
ODE_TOL = 1e-11


def sym_chain(i):
    return gen_symmetric(N_STATES, stream_seed(0, i, STREAM_MATRIX))


def ds_chain(i):
    return gen_doubly_stochastic(N_STATES, stream_seed(0, i, STREAM_MATRIX))


def left_init(i, n=N_STATES, k=K):
    return orthonormal_init(n, k, stream_seed(0, i, STREAM_INIT_LEFT))


def right_init(i, n=N_STATES, k=K):
    return orthonormal_init(n, k, stream_seed(0, i, STREAM_INIT_RIGHT))


def run_arm(gradient_mode="semi", predictor_mode="optimal", sigma=0.0,
            eta=1e-3, iters=10_000):
    """Final-record metrics for one discrete arm over the shared population."""
    tms = [sym_chain(i) for i in range(N_RUNS)]
    phi0 = np.stack([left_init(i) for i in range(N_RUNS)])
    cfg = DynamicsConfig(eta=eta, iters=iters, record_every=iters,
                         gradient_mode=gradient_mode,
                         predictor_mode=predictor_mode, sigma=sigma)
    rngs = None
    if predictor_mode == "noisy":
        rngs = [stream_rng(0, i, STREAM_NOISE) for i in range(N_RUNS)]
    # the symmetric chains step in their eigenbasis, as the scenario runner steps them
    spectra, psi0 = eigen_stack(tms, phi0)
    records, _ = run_discrete_batch(psi0, spectra, uniform_distribution(N_STATES),
                                    cfg, rngs)
    finals = [rs[-1].bundle for rs in records]
    return (np.array([b.max_abs_cosine for b in finals]),
            np.array([b.covariance_drift for b in finals]))


@pytest.fixture(scope="module")
def baseline_arm():
    t0 = time.perf_counter()
    cos, drift = run_arm()
    return {"cos": cos, "drift": drift, "seconds": time.perf_counter() - t0}


def test_criterion_01_non_collapse(baseline_arm):
    med_cos = float(np.median(baseline_arm["cos"]))
    med_drift = float(np.median(baseline_arm["drift"]))
    secs = baseline_arm["seconds"]
    ok = med_cos <= 0.05 and med_drift <= 5e-2 and secs < 120.0
    assert report(1, ok,
                  f"semi+optimal: median cosine {med_cos:.2e} <= 0.05, "
                  f"median drift {med_drift:.2e} <= 5e-2, {secs:.1f}s < 120s")


def test_criterion_02_collapse_ablations(baseline_arm):
    pilot = json.loads(MARGINS_PATH.read_text())
    base = float(np.median(baseline_arm["cos"]))
    full_cos, _ = run_arm(gradient_mode="full")
    noisy_cos, _ = run_arm(predictor_mode="noisy", sigma=pilot["noise_sigma"])
    med_full = float(np.median(full_cos))
    med_noisy = float(np.median(noisy_cos))
    ok = (med_full > base + pilot["margins"]["full_optimal"]
          and med_noisy > base + pilot["margins"]["semi_noisy"])
    assert report(2, ok,
                  f"full {med_full:.4f} and noisy(sigma={pilot['noise_sigma']:g}) "
                  f"{med_noisy:.4f} exceed baseline {base:.2e} by pilot margins "
                  f"({pilot['margins']['full_optimal']:.4f}, "
                  f"{pilot['margins']['semi_noisy']:.4f})")


def test_criterion_03_symmetric_trace_monotonicity():
    min_diff = np.inf
    strict_pairs = 0
    strict_violations = 0
    for i in range(N_RUNS):
        rec, _ = integrate_ode(left_init(i), sym_chain(i), t_end=100.0,
                               n_records=100, tol=ODE_TOL)
        f = np.array([r.bundle.f for r in rec])
        resid = np.array([r.bundle.residual for r in rec])
        diffs = np.diff(f)
        min_diff = min(min_diff, float(diffs.min()))
        moving = (resid[:-1] > 1e-6) & (resid[1:] > 1e-6)
        strict_pairs += int(moving.sum())
        strict_violations += int((diffs[moving] <= 0.0).sum())
    ok = min_diff >= -1e-8 and strict_pairs > 0 and strict_violations == 0
    assert report(3, ok,
                  f"symmetric ODE: min recorded df {min_diff:.2e} >= -1e-8; "
                  f"strict increase on all {strict_pairs} moving record pairs "
                  f"({strict_violations} violations)")


def test_criterion_04_maximizer_identities():
    worst_eigen = 0.0
    worst_svd = 0.0
    for i in range(10):
        tm = sym_chain(i)
        sp = spectral(tm, "eigen")
        f_star = trace_objective(sp.right_vectors[:, :K], tm)
        worst_eigen = max(worst_eigen,
                          abs(f_star - float(np.sum(sp.values[:K] ** 2))))
        dstm = ds_chain(i)
        sv = spectral(dstm, "svd")
        ft_star = svd_trace_objective(sv.left_vectors[:, :K],
                                      sv.right_vectors[:, :K], dstm)
        worst_svd = max(worst_svd,
                        abs(ft_star - float(np.sum(sv.values[:K] ** 2))))

    probe_tm = sym_chain(0)
    eigen_norm = normalizers(probe_tm, K).eigen_norm
    probe_ds = ds_chain(0)
    svd_norm = normalizers(probe_ds, K).svd_norm
    worst_over_eigen = -np.inf
    worst_over_svd = -np.inf
    for j in range(1000):
        worst_over_eigen = max(worst_over_eigen,
                               trace_objective(left_init(j), probe_tm) - eigen_norm)
        worst_over_svd = max(worst_over_svd,
                             svd_trace_objective(left_init(j), right_init(j),
                                                 probe_ds) - svd_norm)
    ok = (worst_eigen <= 1e-10 and worst_svd <= 1e-10
          and worst_over_eigen <= 1e-9 and worst_over_svd <= 1e-9)
    assert report(4, ok,
                  f"ceiling identities off by {worst_eigen:.1e}/{worst_svd:.1e} "
                  f"(<= 1e-10); 1000 probes exceed by at most "
                  f"{worst_over_eigen:.1e}/{worst_over_svd:.1e} (<= 1e-9)")


def bidir_residual(st, tm):
    rhs = bidir_ode_rhs(st, tm)
    return float(np.sqrt(np.sum(rhs.left ** 2) + np.sum(rhs.right ** 2)))


def test_criterion_05_critical_point_catalog():
    tm2 = fixed_example_2x2()
    basis = spectral(tm2, "eigen").right_vectors
    u1, u2 = basis[:, :1], basis[:, 1:]
    a, b = 2.0 / 3.0, np.sqrt(5.0) / 3.0
    catalog = [u1, -u1, u2, -u2, basis, basis[:, ::-1],
               a * u1 + b * u2, a * u1 - b * u2, -a * u1 + b * u2, -a * u1 - b * u2]
    worst_catalog = max(flow_residual(phi, tm2) for phi in catalog)

    tm3 = fixed_example_3x3()
    sv = spectral(tm3, "svd")
    U, V = sv.left_vectors, sv.right_vectors
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    refl = np.array([[0.0, 1.0], [1.0, 0.0]])
    pairs = [BidirState(U[:, :1], V[:, :1]),
             BidirState(U[:, :2], V[:, :2]),
             BidirState(U[:, :2] @ rot, V[:, :2] @ rot),
             BidirState(U[:, :2] @ refl, V[:, :2] @ refl),
             BidirState(U, V)]
    worst_catalog = max(worst_catalog, max(bidir_residual(st, tm3) for st in pairs))

    probe_floor = np.inf
    for j in range(100):
        probe_floor = min(probe_floor,
                          flow_residual(orthonormal_init(2, 1, stream_seed(0, j, STREAM_INIT_LEFT)), tm2))
        probe_floor = min(probe_floor,
                          bidir_residual(BidirState(orthonormal_init(3, 2, stream_seed(0, j, STREAM_INIT_LEFT)),
                                                    orthonormal_init(3, 2, stream_seed(0, j, STREAM_INIT_RIGHT))),
                                         tm3))
    ok = worst_catalog <= 1e-12 and probe_floor > 1e-3
    assert report(5, ok,
                  f"catalog residual max {worst_catalog:.1e} <= 1e-12; "
                  f"probe residual min {probe_floor:.2e} > 1e-3")


def test_criterion_06_bidirectional_beats_single():
    tm = fixed_example_3x3()
    single_final, bidir_final = [], []
    bidir_curves = []
    for i in range(N_RUNS):
        left = orthonormal_init(3, 2, stream_seed(0, i, STREAM_INIT_LEFT))
        right = orthonormal_init(3, 2, stream_seed(0, i, STREAM_INIT_RIGHT))
        rec_s, _ = integrate_ode(left, tm, t_end=100.0, n_records=100,
                                 tol=ODE_TOL)
        rec_b, _ = integrate_bidir(BidirState(left, right), tm, t_end=100.0,
                                   n_records=100, tol=ODE_TOL)
        single_final.append(rec_s[-1].bundle.f_ratio)
        bidir_final.append(rec_b[-1].bundle.f_ratio)
        bidir_curves.append([r.bundle.f_ratio for r in rec_b])
    med_single = float(np.median(single_final))
    med_bidir = float(np.median(bidir_final))
    median_curve = np.median(np.array(bidir_curves), axis=0)
    worst_step = float(np.diff(median_curve).min())
    ok = med_bidir > med_single and worst_step >= -1e-8
    assert report(6, ok,
                  f"fixed 3-state chain: median pair ratio {med_bidir:.4f} > "
                  f"median single ratio {med_single:.4f}; median curve min step "
                  f"{worst_step:.1e} >= -1e-8")


def test_criterion_07_svd_trace_monotonicity():
    min_diff = np.inf
    for i in range(N_RUNS):
        st = BidirState(left_init(i), right_init(i))
        rec, _ = integrate_bidir(st, ds_chain(i), t_end=100.0, n_records=100)
        ft = np.array([r.bundle.f_tilde for r in rec])
        min_diff = min(min_diff, float(np.diff(ft).min()))
    ok = min_diff >= -1e-8
    assert report(7, ok,
                  f"doubly stochastic pairs: min recorded df~ {min_diff:.2e} >= -1e-8")


def test_criterion_08_gradient_oracles():
    n, k = 10, 2
    worst = 0.0
    for i in range(20):
        tm = gen_symmetric(n, stream_seed(1, i, STREAM_MATRIX))
        phi = orthonormal_init(n, k, stream_seed(1, i, STREAM_INIT_LEFT))
        d = uniform_distribution(n) if i % 2 == 0 else \
            np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
        pred = optimal_predictor(phi, tm, d)
        frozen = phi.copy()

        semi_dir = (semi_gradient_step(phi, pred, tm, d, eta=1.0,
                                       phi_target=frozen) - phi)
        fd = central_fd(lambda x: prediction_loss(x, pred, tm, d,
                                                  phi_target=frozen), phi)
        worst = max(worst, rel_err(semi_dir, -fd))

        full_dir = full_gradient_step(phi, pred, tm, d, eta=1.0) - phi
        fd = central_fd(lambda x: prediction_loss(x, pred, tm, d,
                                                  phi_target=x), phi)
        worst = max(worst, rel_err(full_dir, -fd))

    for i in range(20):
        tm = gen_doubly_stochastic(n, stream_seed(2, i, STREAM_MATRIX))
        left = orthonormal_init(n, k, stream_seed(2, i, STREAM_INIT_LEFT))
        right = orthonormal_init(n, k, stream_seed(2, i, STREAM_INIT_RIGHT))
        d = uniform_distribution(n)
        eta = 1e-3
        cfg = DynamicsConfig(eta=eta, iters=1, record_every=1)
        _, stepped = run_discrete_bidir(BidirState(left, right), tm, d, cfg)
        fwd = left.T @ tm.entries @ right
        bwd = fwd.T
        tm_rev = TransitionMatrix.from_entries(tm.entries.T)

        fd = central_fd(lambda x: prediction_loss(x, fwd, tm, d,
                                                  phi_target=right), left)
        worst = max(worst, rel_err((stepped.left - left) / eta, -fd))
        fd = central_fd(lambda x: prediction_loss(x, bwd, tm_rev, d,
                                                  phi_target=left), right)
        worst = max(worst, rel_err((stepped.right - right) / eta, -fd))
    ok = worst <= 1e-6
    assert report(8, ok,
                  f"semi/full/pair step directions vs central differences: "
                  f"worst relative error {worst:.2e} <= 1e-6")


def test_criterion_09_general_loss_tangency():
    worst = 0.0
    d = uniform_distribution(N_STATES)
    for loss_kind in ("l1", "cosine_eps"):
        for i in range(20):
            tm = sym_chain(i)
            phi = left_init(i)
            pred = solve_predictor(phi, tm, d, loss_kind)
            stepped = semi_gradient_step(phi, pred, tm, d, eta=1.0,
                                         loss_kind=loss_kind)
            worst = max(worst, float(np.abs(phi.T @ (stepped - phi)).max()))
    ok = worst <= 1e-6
    assert report(9, ok,
                  f"l1/cosine inner-solved predictors: max tangency entry "
                  f"{worst:.2e} <= 1e-6")


def test_criterion_10_step_size_sweep():
    budget = 10_000.0
    medians = []
    for eta in (0.01, 0.1, 1.0, 10.0):
        cos, _ = run_arm(eta=eta, iters=max(1, int(round(budget / eta))))
        medians.append(float(np.median(cos)))
    diffs = np.diff(medians)
    ok = bool(np.all(diffs >= 0.0))
    detail = ", ".join(f"{m:.4f}" for m in medians)
    assert report(10, ok,
                  f"median final cosine non-decreasing over eta grid: [{detail}]")


def test_criterion_11_nonsymmetric_dip_exists():
    biggest_dip = np.inf
    for i in range(N_RUNS):
        rec, _ = integrate_ode(left_init(i), ds_chain(i), t_end=100.0,
                               n_records=100, tol=ODE_TOL)
        f = np.array([r.bundle.f for r in rec])
        biggest_dip = min(biggest_dip, float(np.diff(f).min()))
    ok = biggest_dip < -1e-10
    assert report(11, ok,
                  f"doubly stochastic single-representation runs: largest "
                  f"recorded dip {biggest_dip:.2e} < -1e-10")


def test_criterion_12_determinism(tmp_path):
    mismatches = []
    compared = 0
    for scenario, overrides in REDUCED_SCENARIOS.items():
        arts = []
        for tag, workers in (("serial", 1), ("pool", 2)):
            cfg = ScenarioConfig(scenario=scenario, master_seed=0, n_runs=30,
                                 out_dir=str(tmp_path / tag), workers=workers,
                                 **overrides)
            arts.append(run_scenario(cfg))
        files_a = sorted(arts[0].csv_paths.values()) + [arts[0].summary_path]
        files_b = sorted(arts[1].csv_paths.values()) + [arts[1].summary_path]
        for pa, pb in zip(files_a, files_b):
            compared += 1
            if not filecmp.cmp(pa, pb, shallow=False):
                mismatches.append(f"{scenario}/{pa.name}")
    ok = not mismatches and len(REDUCED_SCENARIOS) == len(SCENARIOS)
    assert report(12, ok,
                  f"all {len(SCENARIOS)} scenarios, serial vs worker pool: "
                  f"{compared} artifacts byte-identical"
                  + (f"; mismatches: {mismatches}" if mismatches else ""))
