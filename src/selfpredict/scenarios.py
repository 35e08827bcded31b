"""Named experiment scenarios with a deterministic parallel runner.

Each scenario expands into one or more variants (ablation arms or sweep
cells), runs n_runs independent trials per variant, and writes one CSV per
variant plus a summary.json under out_dir/<scenario>/.  A scenario has one
shape: discrete cells on symmetric chains, flows on one horizon, or the
example-1 catalog of critical points.

Determinism contract: every trial derives all of its randomness from
(master_seed, run_index, stream) through the seeding module, trials are
dispatched in fixed chunks of CHUNK_SIZE runs (one task runs a chunk for
every variant, building its chains and initial states once), and output is
assembled in submission order.  Byte-identical artifacts therefore do not
depend on the worker count.

CSV schema (one header line, then one row per record):

    run_id, step_or_time, f, f_ratio, f_tilde, covariance_drift,
    max_abs_cosine, residual

f_tilde is empty for single-representation runs.  Floats are written with
17 significant digits; divergent runs may carry inf.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, dynamics
# Unused integrate_ode/integrate_bidir stay importable for bench/tracing.py.
from .bidirectional import BidirState, integrate_bidir, integrate_flows_batch  # noqa: F401
from .dynamics import (DynamicsConfig, eigen_stack, flow_residual, integrate_ode,  # noqa: F401
                       orthonormal_init, run_discrete_batch)
from .errors import InvalidInputError, UnknownScenarioError, require_number
from .markov import (
    fixed_example_2x2,
    fixed_example_3x3,
    gen_doubly_stochastic,
    gen_symmetric,
    n_step_matrix,
    spectral,
    uniform_distribution,
)
from .metrics import trace_objective
from .seeding import (
    STREAM_INIT_LEFT,
    STREAM_INIT_RIGHT,
    STREAM_MATRIX,
    STREAM_NOISE,
    stream_rng,
    stream_seed,
)

CHUNK_SIZE = 25

FIG2_NOISE_SIGMA = 0.1
FINITE_LR_BUDGET = 10_000.0

SIGMA_GRID = (0.0, 0.01, 0.1, 1.0)
BETA_GRID = (0.0, 0.1, 1.0, 10.0, 100.0)
ETA_GRID = (0.01, 0.1, 1.0, 10.0)

SCENARIOS = {
    "fig2_collapse": "collapse diagnostics: semi vs full gradient and a noisy predictor",
    "fig4_trace_ratio": "continuous-time trace objective ratio on random chains",
    "fig5_failure_mode": "single vs paired dynamics on the fixed three-state chain",
    "example1_critical_points": "flow residuals over the two-state critical point catalog",
    "appendix_target_beta": "sweep of the slow-target tracking rate",
    "appendix_finite_lr": "step size sweep at a matched total step budget",
    "appendix_noisy_predictor": "sweep of the predictor noise scale",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Runner settings; None means the scenario default applies.

    For grid scenarios a concrete eta, sigma, or beta collapses the grid
    to that single cell.  appendix_finite_lr reads iters as the total step
    budget at unit step size and scales the per-cell iteration count as
    budget / eta.  Flags a scenario does not consume are ignored.
    """

    scenario: str
    master_seed: int = 0
    n_runs: int = 100
    out_dir: str = "artifacts"
    n_states: int = 20
    k: int = 2
    eta: float | None = None
    iters: int | None = None
    sigma: float | None = None
    beta: float | None = None
    n_step: int = 1
    t_end: float | None = None
    n_records: int | None = None
    record_every: int | None = None
    workers: int = 1

    def __post_init__(self):
        for name, low in dict(master_seed=0, n_runs=1, n_states=2, workers=1, n_step=1,
                              iters=1, n_records=1, record_every=1).items():
            require_number(getattr(self, name), name, low, integer=True,
                           optional=name in ("iters", "n_records", "record_every"))
        require_number(self.k, "k", 1, high=self.n_states, integer=True)
        for name, above in dict(eta=True, sigma=False, beta=False).items():
            require_number(getattr(self, name), name, 0, above=above, optional=True)
        require_number(self.t_end, "t_end", 0, above=True, high=dynamics.MAX_T_END, optional=True)
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise InvalidInputError(f"out_dir must be a path, got {self.out_dir!r}")


@dataclass(frozen=True)
class RunArtifact:
    scenario: str
    out_dir: Path
    csv_paths: dict
    summary_path: Path


def _resolve(cfg: ScenarioConfig) -> dict:
    """Expand a config into ordered variant parameter dicts, all of one shape: discrete
    cells on symmetric chains, flows sharing one horizon, or the example-1 catalog."""
    ode = dict(mode="ode", t_end=cfg.t_end if cfg.t_end is not None else dynamics.FLOW_T_END,
               n_records=cfg.n_records if cfg.n_records is not None else dynamics.FLOW_N_RECORDS)
    s = cfg.scenario
    # DynamicsConfig's defaults stand wherever the user set no flag; building it checks the cell.
    given = {f: getattr(cfg, f) for f in ("eta", "iters", "record_every")
             if getattr(cfg, f) is not None}

    def discrete(**cell):
        return dict(mode="discrete", chain="symmetric", **asdict(DynamicsConfig(**{**given, **cell})))

    if s == "fig2_collapse":
        sig = cfg.sigma if cfg.sigma is not None else FIG2_NOISE_SIGMA
        return {
            "semi_optimal": discrete(),
            "full_optimal": discrete(gradient_mode="full"),
            "semi_noisy": discrete(predictor_mode="noisy", sigma=sig),
        }
    if s == "fig4_trace_ratio":
        return {
            "symmetric": dict(ode, chain="symmetric"),
            "doubly_stochastic": dict(ode, chain="doubly_stochastic"),
        }
    if s == "fig5_failure_mode":
        require_number(cfg.k, "k on the fixed three-state chain", 1, high=3, integer=True)
        return {
            "single": dict(ode, chain="fixed3"),
            "bidir": dict(ode, mode="bidir_ode", chain="fixed3"),
        }
    if s == "example1_critical_points":
        return {"points": dict(mode="catalog")}
    if s == "appendix_target_beta":
        grid = (cfg.beta,) if cfg.beta is not None else BETA_GRID
        return {f"beta_{b:g}": discrete(target_beta=b) for b in grid}
    if s == "appendix_finite_lr":
        grid = (cfg.eta,) if cfg.eta is not None else ETA_GRID
        budget = float(cfg.iters) if cfg.iters is not None else FINITE_LR_BUDGET
        out = {}
        for e in grid:
            cell_iters = max(1, int(round(require_number(budget / e, "iters / eta", 0,
                                                         high=dynamics.MAX_ITERS))))
            out[f"eta_{e:g}"] = discrete(eta=e, iters=cell_iters, record_every=cell_iters)
        return out
    if s == "appendix_noisy_predictor":
        grid = (cfg.sigma,) if cfg.sigma is not None else SIGMA_GRID
        return {f"sigma_{v:g}": discrete(predictor_mode="noisy", sigma=v) for v in grid}
    raise UnknownScenarioError(
        f"unknown scenario {s!r}; available: {', '.join(sorted(SCENARIOS))}")


def _make_chain(kind: str, n: int, master_seed: int, run_index: int):
    if kind == "fixed3":
        return fixed_example_3x3()
    gen = gen_symmetric if kind == "symmetric" else gen_doubly_stochastic
    return gen(n, stream_seed(master_seed, run_index, STREAM_MATRIX))


def _run_chunk(cfg: ScenarioConfig, lo: int, hi: int) -> list:
    """Record columns of trials lo..hi-1 for each variant, in variant order: the unit
    of parallel dispatch.  A variant's entry is (times, f, f_ratio, f_tilde,
    covariance_drift, max_abs_cosine, residual), the shared (T,) times and (runs, T)
    arrays, f_tilde None for single runs.  Every variant shares the chunk's chains and
    initial states.  A discrete scenario steps its symmetric chains in the eigenbasis
    (d is uniform here), prepared once, chain by chain (eigen_stack), so the chunk holds
    O(n^2 + runs n k), not O(runs n^2); each cell draws fresh noise generators.  A flow
    scenario builds each chain kind's list once and integrates every variant in one
    integrate_flows_batch loop.
    """
    ms, k, idxs = cfg.master_seed, cfg.k, range(lo, hi)
    variants = list(_resolve(cfg).values())
    first = variants[0]  # every variant has its shape (_resolve)
    n = 3 if first["chain"] == "fixed3" else cfg.n_states

    def chains(kind):  # drawn one at a time
        return (n_step_matrix(tm, cfg.n_step) if cfg.n_step > 1 else tm
                for tm in (_make_chain(kind, n, ms, i) for i in idxs))

    def init(stream):
        return np.stack([orthonormal_init(n, k, stream_seed(ms, i, stream)) for i in idxs])

    left = init(STREAM_INIT_LEFT)
    if first["mode"] == "discrete":
        spectra, psi0 = eigen_stack(chains("symmetric"), left)
        d, out = uniform_distribution(n), []
        for params in variants:
            dcfg = DynamicsConfig(**{f: v for f, v in params.items() if f not in ("mode", "chain")})
            rngs = ([stream_rng(ms, i, STREAM_NOISE) for i in idxs]
                    if dcfg.predictor_mode == "noisy" else None)
            out.append(run_discrete_batch(psi0, spectra, d, dcfg, rngs, run_offset=lo)[0])
    else:  # "ode" and "bidir_ode" flows, which share the horizon
        tms = {kind: list(chains(kind)) for kind in {p["chain"] for p in variants}}
        flows = [(left if p["mode"] == "ode" else BidirState(left, init(STREAM_INIT_RIGHT)),
                  tms[p["chain"]]) for p in variants]
        out = [records for records, _ in integrate_flows_batch(
            flows, first["t_end"], first["n_records"], run_offset=lo)]
    return [(records.times, *records.columns) for records in out]


def _critical_points(cfg: ScenarioConfig):
    """Record columns (as _run_chunk's) and side data for the two-state critical point catalog.

    The catalog holds the four unit eigenvectors and the four mixed unit
    vectors with eigenbasis coordinates (plus or minus 2/3, plus or minus
    sqrt(5)/3); probe rows are random unit vectors for contrast.  All are
    stationary checks of the flow, so step_or_time is 0 throughout.
    """
    tm = fixed_example_2x2()
    basis = spectral(tm, "eigen").right_vectors
    u1, u2 = basis[:, :1], basis[:, 1:2]
    a, b = 2.0 / 3.0, math.sqrt(5.0) / 3.0
    catalog = [
        ("eigenvector", u1), ("eigenvector", -u1),
        ("eigenvector", u2), ("eigenvector", -u2),
        ("mixed", a * u1 + b * u2), ("mixed", a * u1 - b * u2),
        ("mixed", -a * u1 + b * u2), ("mixed", -a * u1 - b * u2),
    ]
    phis = [phi for _, phi in catalog] + [
        orthonormal_init(2, 1, stream_seed(cfg.master_seed, j, STREAM_INIT_LEFT))
        for j in range(cfg.n_runs)]
    resid = np.array([[flow_residual(phi, tm)] for phi in phis])
    f = np.array([[trace_objective(phi, tm)] for phi in phis])
    points = [{"run_id": rid, "kind": kind, "residual": float(resid[rid, 0]), "f": float(f[rid, 0])}
              for rid, (kind, _) in enumerate(catalog)]
    extras = {
        "points": points,
        "catalog_residual_max": max(p["residual"] for p in points),
        "probe_residual_min": float(resid[len(catalog):].min()),
    }
    zero = np.zeros_like(f)
    return (np.zeros(1), f, f, None, zero, zero, resid), extras


def _write_csv(path: Path, times, *cols) -> None:
    """One row per run and time from _run_chunk's columns; f_tilde None leaves its field empty."""
    row = "%d,%.17g,%.17g,%.17g," + ("" if cols[2] is None else "%.17g") + ",%.17g,%.17g,%.17g"
    runs, steps = cols[0].shape
    ids = np.repeat(np.arange(runs), steps).tolist()
    flat = [np.tile(times, runs).tolist()] + [c.ravel().tolist() for c in cols if c is not None]
    lines = ["run_id,step_or_time,f,f_ratio,f_tilde,covariance_drift,max_abs_cosine,residual"]
    lines += [row % values for values in zip(ids, *flat)]
    path.write_text("\n".join(lines) + "\n")


def _median(x):
    """np.median(x, axis=0), computed as numpy does but without the numpy.ma
    import its NaN check makes: partition at numpy's kth (the middle index or
    indices, and -1), mean of the middle, NaN wherever a column holds one."""
    n = len(x)
    part = np.partition(x, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1], axis=0)
    return np.where(np.isnan(part[-1]), part[-1], np.mean(part[(n - 1) // 2:n // 2 + 1], axis=0))


def _summarize(cfg: ScenarioConfig, variants: dict, per_variant: dict, extras=None) -> dict:
    out_variants = {}
    for key, params in variants.items():
        times, _, ratio, ftilde, drift, cos, _ = per_variant[key]
        curve = {
            "step_or_time": times.tolist(),
            "f_ratio": _median(ratio).tolist(),
            "max_abs_cosine": _median(cos).tolist(),
        }
        if ftilde is not None:
            curve["f_tilde"] = _median(ftilde).tolist()
        out_variants[key] = {
            "params": params,
            "n_runs": len(ratio),
            "median_curve": curve,
            "final": {
                "median_f_ratio": float(_median(ratio[:, -1])),
                "median_max_abs_cosine": float(_median(cos[:, -1])),
                "median_covariance_drift": float(_median(drift[:, -1])),
                "per_run_f_ratio": ratio[:, -1].tolist(),
                "per_run_max_abs_cosine": cos[:, -1].tolist(),
                "per_run_covariance_drift": drift[:, -1].tolist(),
            },
        }
    # The echo covers every field that determines artifact content; workers
    # and out_dir are execution details and would break the guarantee that
    # (scenario, master_seed) yields byte-identical artifacts.
    config_echo = asdict(cfg)
    config_echo.pop("workers")
    config_echo.pop("out_dir")
    summary = {
        "schema_version": 1,
        "package_version": __version__,
        "scenario": cfg.scenario,
        "config": config_echo,
        "variants": out_variants,
    }
    if extras:
        summary.update(extras)
    return summary


def run_scenario(cfg: ScenarioConfig) -> RunArtifact:
    """Execute one scenario end to end; its artifacts replace out_dir/<scenario> whole."""
    variants = _resolve(cfg)  # an unknown scenario raises here
    extras = None
    per_variant: dict = {}
    if cfg.scenario == "example1_critical_points":
        per_variant["points"], extras = _critical_points(cfg)
    else:
        tasks = [(lo, min(lo + CHUNK_SIZE, cfg.n_runs)) for lo in range(0, cfg.n_runs, CHUNK_SIZE)]
        # The pool starts all of its processes up front, so it never gets more
        # than there are tasks or CPUs this process may run on; chunking alone
        # fixes the artifacts.
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(cfg.workers, len(tasks), cpus)
        if workers == 1:
            results = [_run_chunk(cfg, *task) for task in tasks]
        else:  # imported here, so that a serial run loads no pool machinery
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_chunk, cfg, *task) for task in tasks]
                results = [f.result() for f in futures]
        for j, key in enumerate(variants):  # chunks concatenate along the run axis
            times, *cols = zip(*(chunk[j] for chunk in results))
            per_variant[key] = (times[0], *(c[0] if c[0] is None else np.concatenate(c)
                                            for c in cols))

    # Staged whole beside out_root, then swapped in: a failed run leaves the old tree untouched.
    out_root = Path(cfg.out_dir) / cfg.scenario
    out_root.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{cfg.scenario}.", dir=out_root.parent))
    new = stage / "new"
    try:
        new.mkdir()  # mkdir, not mkdtemp, gives the tree its usual permissions
        for key in variants:
            _write_csv(new / f"{key}.csv", *per_variant[key])
        summary = _summarize(cfg, variants, per_variant, extras)
        (new / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        if out_root.is_dir():
            os.replace(out_root, stage / "old")
        os.replace(new, out_root)
    finally:  # the staged files of a failed run, or the old tree after the swap
        shutil.rmtree(stage)
    return RunArtifact(cfg.scenario, out_root, {key: out_root / f"{key}.csv" for key in variants},
                       out_root / "summary.json")
