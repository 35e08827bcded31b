import concurrent.futures
import dataclasses
import filecmp
import importlib.util
import inspect
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from selfpredict import (BidirState, DynamicsConfig, InvalidInputError, MetricBundle,
                         TrajectoryRecord, UnknownScenarioError, fixed_example_2x2,
                         flow_residual, integrate_bidir_batch, integrate_ode_batch,
                         n_step_matrix, orthonormal_init, run_discrete_batch, stream_rng,
                         stream_seed, trace_objective, uniform_distribution)
from selfpredict import cli, dynamics, scenarios
from selfpredict.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from selfpredict.seeding import STREAM_INIT_LEFT, STREAM_INIT_RIGHT, STREAM_NOISE

CSV_HEADER = "run_id,step_or_time,f,f_ratio,f_tilde,covariance_drift,max_abs_cosine,residual"


def tiny(scenario, out, **kw):
    base = dict(scenario=scenario, master_seed=0, n_runs=4, out_dir=str(out),
                n_states=5, k=2)
    base.update(kw)
    return ScenarioConfig(**base)


def artifact_files(art):
    return sorted(art.csv_paths.values()) + [art.summary_path]


class TestArtifacts:
    def test_fig2_layout_and_schema(self, tmp_path):
        cfg = tiny("fig2_collapse", tmp_path, eta=0.01, iters=50, record_every=25)
        art = run_scenario(cfg)
        assert set(art.csv_paths) == {"semi_optimal", "full_optimal", "semi_noisy"}
        for path in art.csv_paths.values():
            lines = path.read_text().splitlines()
            assert lines[0] == CSV_HEADER
            # records at steps 0, 25, 50 for each of the 4 runs
            assert len(lines) == 1 + 4 * 3
            first = lines[1].split(",")
            assert first[0] == "0"
            assert first[4] == ""  # no f_tilde for single-representation runs

        summary = json.loads(art.summary_path.read_text())
        assert summary["schema_version"] == 1
        assert set(summary["variants"]) == set(art.csv_paths)
        assert "workers" not in summary["config"]
        assert "out_dir" not in summary["config"]
        curve = summary["variants"]["semi_optimal"]["median_curve"]
        assert curve["step_or_time"] == [0.0, 25.0, 50.0]
        assert len(curve["max_abs_cosine"]) == 3

    def test_fig5_pairs_have_f_tilde(self, tmp_path):
        cfg = tiny("fig5_failure_mode", tmp_path, n_runs=3, t_end=5.0, n_records=4)
        art = run_scenario(cfg)
        bidir_rows = art.csv_paths["bidir"].read_text().splitlines()[1:]
        assert all(row.split(",")[4] != "" for row in bidir_rows)
        single_rows = art.csv_paths["single"].read_text().splitlines()[1:]
        assert all(row.split(",")[4] == "" for row in single_rows)
        summary = json.loads(art.summary_path.read_text())
        assert "f_tilde" in summary["variants"]["bidir"]["median_curve"]

    def test_example1_extras(self, tmp_path):
        cfg = tiny("example1_critical_points", tmp_path, n_runs=6, n_states=2)
        art = run_scenario(cfg)
        summary = json.loads(art.summary_path.read_text())
        points = summary["points"]
        kinds = [p["kind"] for p in points]
        assert kinds.count("eigenvector") == 4
        assert kinds.count("mixed") == 4
        assert summary["catalog_residual_max"] <= 1e-12
        assert summary["probe_residual_min"] > 1e-3

    def test_finite_lr_budget_sets_step_counts(self, tmp_path):
        cfg = tiny("appendix_finite_lr", tmp_path, n_runs=2, iters=100)
        art = run_scenario(cfg)
        assert set(art.csv_paths) == {"eta_0.01", "eta_0.1", "eta_1", "eta_10"}
        last_fast = art.csv_paths["eta_10"].read_text().splitlines()[-1]
        assert last_fast.split(",")[1] == "10"
        last_slow = art.csv_paths["eta_0.01"].read_text().splitlines()[-1]
        assert last_slow.split(",")[1] == "10000"

    def test_noisy_grid_variant_keys(self, tmp_path):
        cfg = tiny("appendix_noisy_predictor", tmp_path, n_runs=2, iters=20,
                   record_every=20)
        art = run_scenario(cfg)
        assert set(art.csv_paths) == {"sigma_0", "sigma_0.01", "sigma_0.1", "sigma_1"}

    def test_target_beta_single_value_override(self, tmp_path):
        cfg = tiny("appendix_target_beta", tmp_path, n_runs=2, iters=20,
                   record_every=20, beta=0.5)
        art = run_scenario(cfg)
        assert set(art.csv_paths) == {"beta_0.5"}


def tree_bytes(root):
    """Every entry under root, directories included: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def load_artifact_diff():
    path = Path(__file__).resolve().parents[1] / "scripts" / "artifact_diff.py"
    spec = importlib.util.spec_from_file_location("artifact_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWholeArtifacts:
    """A scenario's directory holds one run's artifacts: a run is staged beside it and
    swapped in whole, and a failed run leaves the previous one as it was."""

    def test_a_collapsed_grid_leaves_only_its_own_variants(self, tmp_path):
        run_scenario(tiny("appendix_finite_lr", tmp_path, n_runs=2, n_states=4, iters=20))
        art = run_scenario(tiny("appendix_finite_lr", tmp_path, n_runs=2, n_states=4,
                                iters=20, eta=1.0))
        summary = json.loads(art.summary_path.read_text())
        want = {f"{key}.csv" for key in summary["variants"]} | {"summary.json"}
        assert set(tree_bytes(art.out_dir)) == want == {"eta_1.csv", "summary.json"}
        assert [p.name for p in tmp_path.iterdir()] == ["appendix_finite_lr"]  # no stage left
        assert art.out_dir == tmp_path / "appendix_finite_lr"
        assert art.csv_paths == {"eta_1": art.out_dir / "eta_1.csv"}

    def test_a_failed_run_leaves_the_previous_tree_untouched(self, tmp_path, monkeypatch):
        run_scenario(tiny("fig2_collapse", tmp_path, iters=20, record_every=10))
        before = tree_bytes(tmp_path)
        write_csv, written = scenarios._write_csv, []

        def failing(path, *cols):  # the second CSV fails after the first is written
            if written:
                raise OSError("disk full")
            written.append(path)
            write_csv(path, *cols)

        monkeypatch.setattr(scenarios, "_write_csv", failing)
        with pytest.raises(OSError, match="disk full"):
            run_scenario(tiny("fig2_collapse", tmp_path, master_seed=1, iters=20, record_every=10))
        assert written and tree_bytes(tmp_path) == before  # nor is a stage left beside it

    def test_artifact_diff_sees_a_leftover_directory(self, tmp_path, capsys):
        for side in ("old", "new"):
            (tmp_path / side / "run").mkdir(parents=True)
            (tmp_path / side / "run" / "a.csv").write_text("x\n")
        (tmp_path / "new" / ".run.stage").mkdir()
        module = load_artifact_diff()
        assert module.compare(tmp_path / "old", tmp_path / "new") == 1
        assert "only in new: .run.stage" in capsys.readouterr().out
        assert module.compare(tmp_path / "old", tmp_path / "old") == 0

    def test_artifact_diff_sees_a_changed_signature(self, tmp_path, capsys):
        for side, params in (("old", "raw, tol=1e-12"), ("new", "raw"), ("same", "raw")):
            (tmp_path / side / "selfpredict").mkdir(parents=True)
            (tmp_path / side / "selfpredict" / "__init__.py").write_text(
                f"__all__ = ['project']\ndef project({params}):\n    pass\n")
        module = load_artifact_diff()
        assert module.public_names(tmp_path / "old") == {"project": "(raw, tol=1e-12)"}
        assert not module.report_names(tmp_path / "old", tmp_path / "new")
        assert "signature of project:\n    old (raw, tol=1e-12)\n    new (raw)\n" in (
            capsys.readouterr().out)
        assert module.report_names(tmp_path / "new", tmp_path / "same")
        assert "signature of" not in capsys.readouterr().out


    def test_artifact_diff_measures_each_trees_import(self, tmp_path, monkeypatch):
        # a tree whose scenarios module sleeps 0.3 s and writes 64 MiB costs that much more: at
        # least 0.3 s, and 64 MiB of peak RSS to within 1 MiB, as the empty tree's peak is numpy's
        # import high-water, some tens of KiB above the RSS the blob is written on
        body = "import time\ntime.sleep(0.3)\nBLOB = b'x' * (64 << 20)\n"
        for side, body in (("old", ""), ("new", body)):
            (tmp_path / side / "selfpredict").mkdir(parents=True)
            (tmp_path / side / "selfpredict" / "__init__.py").write_text("")
            (tmp_path / side / "selfpredict" / "scenarios.py").write_text(body)
        module = load_artifact_diff()
        monkeypatch.setattr(module, "IMPORT_REPEATS", 1)
        (old_s, old_kib), (new_s, new_kib) = module.import_costs(tmp_path / "old", tmp_path / "new")
        assert new_s - old_s >= 0.3 and abs(new_kib - old_kib - (64 << 10)) < 1 << 10

    def test_artifact_diff_prints_each_trees_import_cost(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "selfpredict").mkdir()
        for name in ("__init__.py", "scenarios.py"):
            (tmp_path / "selfpredict" / name).write_text("")
        module = load_artifact_diff()
        monkeypatch.setattr(module, "IMPORT_REPEATS", 1)
        module.report_import_cost(tmp_path, tmp_path)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"cold import of selfpredict.scenarios, {side}" for side in ("old", "new")]
        assert all(line.endswith(" MB") and " ms, peak RSS " in line for line in lines)


class TestCrossScenarioIdentity:
    def test_fig2_semi_optimal_is_the_noisy_sweeps_sigma_0(self, tmp_path):
        # The same seeds, chains and predictor: sigma = 0 adds +-0 to it, so the bytes agree.
        flags = dict(n_runs=30, n_states=6, iters=40, record_every=20, eta=0.01)
        fig2 = run_scenario(tiny("fig2_collapse", tmp_path, **flags))
        noisy = run_scenario(tiny("appendix_noisy_predictor", tmp_path, **flags))
        assert set(noisy.csv_paths) == {"sigma_0", "sigma_0.01", "sigma_0.1", "sigma_1"}
        assert (fig2.csv_paths["semi_optimal"].read_bytes()
                == noisy.csv_paths["sigma_0"].read_bytes())


def record_rows(per_run):
    """CSV rows of per-run TrajectoryRecord lists, every number "%.17g"."""
    rows = []
    for rid, run in enumerate(per_run):
        for r in run:
            b = r.bundle
            head = ["%.17g" % v for v in (r.step_or_time, b.f, b.f_ratio)]
            tail = ["%.17g" % v for v in (b.covariance_drift, b.max_abs_cosine, b.residual)]
            ft = "" if b.f_tilde is None else "%.17g" % b.f_tilde
            rows.append(",".join([str(rid), *head, ft, *tail]))
    return rows


def critical_point_records(summary, cfg):
    """The catalog's records from its side data, then the probes' from the public functions."""
    tm = fixed_example_2x2()
    vals = [(p["f"], p["residual"]) for p in summary["points"]]
    for j in range(cfg.n_runs):
        phi = orthonormal_init(2, 1, stream_seed(cfg.master_seed, j, STREAM_INIT_LEFT))
        vals.append((trace_objective(phi, tm), flow_residual(phi, tm)))
    return [[TrajectoryRecord(0.0, MetricBundle(f, f, None, 0.0, 0.0, r))] for f, r in vals]


class TestColumnarArtifacts:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_csv_rows_format_the_public_records(self, tmp_path, monkeypatch, scenario):
        returned = []
        # run_discrete_batch returns one variant's (records, final), the flow
        # driver a list of them, one per flow variant
        for name, entries in (("run_discrete_batch", lambda out: [out]),
                              ("integrate_flows_batch", lambda out: out)):
            def spy(*args, _fn=getattr(scenarios, name), _entries=entries, **kwargs):
                out = _fn(*args, **kwargs)
                returned.extend(list(records) for records, _ in _entries(out))
                return out
            monkeypatch.setattr(scenarios, name, spy)
        # 27 runs are two chunks, so rows cross a chunk boundary
        cfg = tiny(scenario, tmp_path, n_runs=27, iters=20, record_every=10, t_end=2.0,
                   n_records=4)
        art = run_scenario(cfg)
        keys = list(art.csv_paths)
        if scenario == "example1_critical_points":
            summary = json.loads(art.summary_path.read_text())
            expected = {"points": critical_point_records(summary, cfg)}
        else:  # one record stack per chunk and variant, chunk by chunk
            assert len(returned) == 2 * len(keys)
            expected = {key: returned[j] + returned[len(keys) + j] for j, key in enumerate(keys)}
        for key, path in art.csv_paths.items():
            lines = path.read_text().splitlines()
            assert lines[0] == CSV_HEADER
            assert lines[1:] == record_rows(expected[key])


def one_shot_csv(path, times, *cols):
    """The CSV writer before it wrote a run at a time: every row formatted, joined, then written."""
    row = "%d,%.17g,%.17g,%.17g," + ("" if cols[2] is None else "%.17g") + ",%.17g,%.17g,%.17g"
    runs, steps = cols[0].shape
    ids = np.repeat(np.arange(runs), steps).tolist()
    flat = [np.tile(times, runs).tolist()] + [c.ravel().tolist() for c in cols if c is not None]
    path.write_text("\n".join([CSV_HEADER] + [row % values for values in zip(ids, *flat)]) + "\n")


FLOAT_MAX = np.finfo(float).max
CSV_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, FLOAT_MAX,
                      -FLOAT_MAX, np.nextafter(FLOAT_MAX, 0.0), 1.0])


def csv_columns(rng, runs, steps, ftilde):
    """One variant's (times, *cols) as _run_chunk gives them: random float64 bit patterns,
    about a quarter of them replaced by edge values."""
    def draw(*shape):
        bits = np.frombuffer(rng.bytes(8 * math.prod(shape)), dtype=np.float64).reshape(shape)
        return np.where(rng.random(shape) < 0.25, rng.choice(CSV_EDGES, shape), bits)
    return (draw(steps), *(draw(runs, steps) if j != 2 or ftilde else None for j in range(6)))


class TestStreamedCsv:
    @settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 30), steps=st.integers(1, 50),
           ftilde=st.booleans())
    def test_writes_the_one_shot_writers_bytes(self, seed, runs, steps, ftilde):
        cols = csv_columns(np.random.default_rng(seed), runs, steps, ftilde)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "streamed.csv", Path(tmp) / "one_shot.csv"
            scenarios._write_csv(got, *cols)
            one_shot_csv(want, *cols)
            assert got.read_bytes() == want.read_bytes()

    def test_writing_holds_one_run_at_a_time(self, tmp_path):
        # the one-shot writer peaked at 6.7 MB for 200 runs of 51 records, 64 KiB for 2
        def peak(runs):
            cols = csv_columns(np.random.default_rng(runs), runs, 51, True)
            scenarios._write_csv(tmp_path / "warm.csv", *cols)
            tracemalloc.start()
            try:
                scenarios._write_csv(tmp_path / f"{runs}.csv", *cols)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2), peak(200)
        assert large < 4 * small, (large, small)


class TestMergedFlows:
    # fig5's single runs ride as twin pairs beside its pairs, bitwise as they run alone
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scenario", ["fig4_trace_ratio", "fig5_failure_mode"])
    def test_chunk_matches_the_drivers_run_per_variant(self, tmp_path, scenario, k):
        cfg = tiny(scenario, tmp_path, n_runs=8, n_states=6, k=k, t_end=100.0, n_records=100)
        merged = scenarios._run_chunk(cfg, 0, cfg.n_runs)
        for (times, *cols), params in zip(merged, scenarios._resolve(cfg).values()):
            n = 3 if params["chain"] == "fixed3" else cfg.n_states
            tms = [scenarios._make_chain(params["chain"], n, 0, i) for i in range(cfg.n_runs)]
            left, right = (np.stack([orthonormal_init(n, cfg.k, stream_seed(0, i, stream))
                                     for i in range(cfg.n_runs)])
                           for stream in (STREAM_INIT_LEFT, STREAM_INIT_RIGHT))
            if params["mode"] == "bidir_ode":
                want, _ = integrate_bidir_batch(BidirState(left, right), tms, 100.0, 100)
            else:
                want, _ = integrate_ode_batch(left, tms, 100.0, 100)
            assert np.array_equal(times, want.times)
            for got, exp in zip(cols, want.columns):
                assert (got is None and exp is None) or np.array_equal(got, exp)


class TestPreparedChunks:
    @pytest.mark.parametrize("n_step", [1, 2])
    @pytest.mark.parametrize("scenario", ["fig2_collapse", "appendix_target_beta",
                                          "appendix_noisy_predictor", "appendix_finite_lr"])
    @given(seed=st.integers(0, 2**31), lo=st.integers(0, 3))
    @settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_chunk_matches_the_kernel_on_full_chains(self, scenario, n_step, seed, lo):
        n, hi = 7, lo + 4
        cfg = ScenarioConfig(scenario, master_seed=seed, n_runs=hi, n_states=n, k=2, iters=30,
                             record_every=10, n_step=n_step)
        seen = []

        def spy(phi0, tms, *args, **kwargs):
            seen.append(type(tms))
            return run_discrete_batch(phi0, tms, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "run_discrete_batch", spy)
            merged = scenarios._run_chunk(cfg, lo, hi)
        assert seen and all(t is dynamics.Spectra for t in seen)
        d, idxs = uniform_distribution(n), range(lo, hi)
        tms = [scenarios._make_chain("symmetric", n, seed, i) for i in idxs]
        tms = [n_step_matrix(t, n_step) for t in tms] if n_step > 1 else tms
        left = np.stack([orthonormal_init(n, 2, stream_seed(seed, i, STREAM_INIT_LEFT))
                         for i in idxs])
        spectra, psi0 = dynamics.eigen_stack(tms, left)  # the full chains, prepared at once
        for (times, *cols), params in zip(merged, scenarios._resolve(cfg).values()):
            dcfg = DynamicsConfig(**{f: v for f, v in params.items() if f not in ("mode", "chain")})
            rngs = ([stream_rng(seed, i, STREAM_NOISE) for i in idxs]
                    if dcfg.predictor_mode == "noisy" else None)
            want, _ = run_discrete_batch(psi0, spectra, d, dcfg, rngs, run_offset=lo)
            assert times.tobytes() == want.times.tobytes()
            for got, exp in zip(cols, want.columns):
                assert (got is None and exp is None) or got.tobytes() == exp.tobytes()

    def test_peak_memory_stays_below_runs_chains(self):
        # 25 chains and their eigenvectors at n = 200 are 50 n^2 floats; the prepared
        # chunk holds one chain and its eigenvectors beside the next chain's making
        n, runs = 200, 25
        cfg = ScenarioConfig("appendix_target_beta", n_runs=runs, n_states=n, k=2, iters=2)
        tracemalloc.start()
        try:
            scenarios._run_chunk(cfg, 0, runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n * 8, peak / (n * n * 8)


EDGE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e308, -1e308, 5e-324,
                               np.inf, -np.inf, np.nan, -np.nan])


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), runs=st.integers(1, 12), steps=st.integers(1, 5))
    def test_matches_numpy_bytewise(self, data, runs, steps):
        values = data.draw(st.lists(st.one_of(st.floats(), EDGE_VALUES),
                                    min_size=runs * steps, max_size=runs * steps))
        x = np.array(values).reshape(runs, steps)
        with np.errstate(all="ignore"):  # x[1:] has the other parity: both kth lists each time
            for a in (x, x[:, -1], x[:, 0].copy(), *((x[1:],) if runs > 1 else ())):
                got, want = scenarios._median(a), np.median(a, axis=0)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, got, want)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        arts = []
        for name in ("a", "b"):
            cfg = tiny("fig2_collapse", tmp_path / name, eta=0.01, iters=30,
                       record_every=10)
            arts.append(run_scenario(cfg))
        for pa, pb in zip(artifact_files(arts[0]), artifact_files(arts[1])):
            assert filecmp.cmp(pa, pb, shallow=False), (pa, pb)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # 30 runs split into chunks of 25, so two workers genuinely
        # interleave here.
        arts = []
        for name, workers in (("serial", 1), ("pool", 2)):
            cfg = tiny("fig4_trace_ratio", tmp_path / name, n_runs=30,
                       t_end=3.0, n_records=3, workers=workers)
            arts.append(run_scenario(cfg))
        for pa, pb in zip(artifact_files(arts[0]), artifact_files(arts[1])):
            assert filecmp.cmp(pa, pb, shallow=False), (pa, pb)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("scenario", ["fig2_collapse", "appendix_noisy_predictor",
                                          "appendix_target_beta", "appendix_finite_lr"])
    def test_noise_blocks_leave_noisy_artifacts_unchanged(self, tmp_path, monkeypatch,
                                                          scenario, dense):
        # A block of one step is the per-step draw; 150 steps cross a block boundary.  The
        # spy is also the runner's guard: every discrete scenario, --n-step 2 included, steps
        # its chains' (m, n) eigenvalues, unless the chains reach the driver unprepared.
        if dense:  # the runner hands the chains on unprepared, and the driver steps them on P
            monkeypatch.setattr(scenarios, "eigen_stack", lambda tms, phi0: (list(tms), phi0))
        stepped = []  # the chain operand's shape: (m, n) eigenvalues or the (m, n, n) P^T stack
        lockstep = dynamics._lockstep

        def spy(phi, op, *args, **kwargs):
            stepped.append(op.shape[1:])
            return lockstep(phi, op, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_lockstep", spy)
        # appendix_finite_lr trains eta_0.01 for iters / 0.01 steps
        size = dict(iters=2) if scenario == "appendix_finite_lr" else dict(
            eta=0.01, iters=150, record_every=50)
        arts = []
        for block, n_step in ((dynamics.NOISE_BLOCK, 1), (1, 1), (dynamics.NOISE_BLOCK, 2)):
            monkeypatch.setattr(dynamics, "NOISE_BLOCK", block)
            cfg = tiny(scenario, tmp_path / f"{block}_{n_step}", n_step=n_step, **size)
            arts.append(run_scenario(cfg))
        n = cfg.n_states
        assert stepped and set(stepped) == {(n, n) if dense else (n,)}
        for pa, pb in zip(artifact_files(arts[0]), artifact_files(arts[1])):
            assert filecmp.cmp(pa, pb, shallow=False), (pa, pb)


class TestWorkerCap:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Pool sizes requested from an inline stand-in for the process pool."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        # run_scenario imports the pool only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize("cpus, expected", [(8, [3]), (2, [2]), (1, []), (None, [])])
    def test_pool_capped_by_tasks_and_cpus(self, tmp_path, monkeypatch, pool_sizes,
                                           cpus, expected):
        # a platform that cannot tell the allowed CPUs falls back on cpu_count()
        monkeypatch.delattr(scenarios.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: cpus)
        # 75 runs make three 25-run chunks, one task each for every variant
        run_scenario(tiny("fig2_collapse", tmp_path, n_runs=75, eta=0.01, iters=10,
                          record_every=10, workers=1000))
        assert pool_sizes == expected

    @pytest.mark.parametrize("allowed, expected", [({0}, []), ({0, 5}, [2]), (set(range(6)), [3])])
    def test_pool_capped_by_allowed_cpus(self, tmp_path, monkeypatch, pool_sizes,
                                         allowed, expected):
        # an affinity mask (taskset) allows fewer CPUs than cpu_count() reports
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(scenarios.os, "sched_getaffinity", lambda pid: allowed,
                            raising=False)
        run_scenario(tiny("fig2_collapse", tmp_path, n_runs=75, eta=0.01, iters=10,
                          record_every=10, workers=1000))
        assert pool_sizes == expected

    def test_single_task_runs_serially(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(scenarios.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        run_scenario(tiny("appendix_target_beta", tmp_path, n_runs=2, iters=10,
                          record_every=10, beta=0.5, workers=1000))
        assert pool_sizes == []


class TestChunkSharing:
    def test_chains_and_inits_built_once_per_run(self, tmp_path, monkeypatch):
        built = Counter()
        for name in ("gen_symmetric", "orthonormal_init"):
            def counted(*args, _fn=getattr(scenarios, name), _name=name, **kwargs):
                built[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(scenarios, name, counted)
        # 30 runs are two chunks; each builds its runs' chains and inits once for all 5 cells
        art = run_scenario(tiny("appendix_target_beta", tmp_path, n_runs=30, iters=5,
                                record_every=5))
        assert len(art.csv_paths) == 5
        assert built == {"gen_symmetric": 30, "orthonormal_init": 30}

    def test_ceiling_is_computed_once_per_chain(self):
        from selfpredict import gen_symmetric, reference_normalizer
        tm = gen_symmetric(6, 0)
        assert reference_normalizer(tm, 2) == reference_normalizer(tm, 2)
        assert tm.singular_values is tm.singular_values
        assert not tm.singular_values.flags.writeable


SHAPE_FLAGS = [dict(), dict(eta=0.5), dict(sigma=0.0), dict(beta=2.0),
               dict(eta=0.5, sigma=0.5, beta=0.0), dict(t_end=5.0, n_records=3)]


class TestOneShape:
    """Each scenario is one shape (_resolve), so a chunk branches once (_run_chunk)."""

    @pytest.mark.parametrize("flags", SHAPE_FLAGS, ids=repr)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_resolve_gives_each_scenario_one_shape(self, scenario, flags):
        variants = list(scenarios._resolve(ScenarioConfig(scenario, n_states=4, **flags)).values())
        modes = {p["mode"] for p in variants}
        if modes == {"discrete"}:
            assert {p["chain"] for p in variants} == {"symmetric"}
        elif modes == {"catalog"}:
            assert len(variants) == 1
        else:  # flows, on one horizon
            assert modes <= {"ode", "bidir_ode"}
            assert len({(p["t_end"], p["n_records"]) for p in variants}) == 1

    @pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - {"example1_critical_points"}))
    def test_a_chunk_prepares_or_integrates_once(self, monkeypatch, scenario):
        # a discrete chunk prepares its chains once and steps each cell once; a flow chunk
        # builds each run's chain once per kind and integrates every variant in one call
        cfg = ScenarioConfig(scenario, n_runs=3, n_states=4, iters=4, record_every=2,
                             t_end=1.0, n_records=2)
        calls, made = Counter(), Counter()
        for name in ("eigen_stack", "run_discrete_batch", "integrate_flows_batch"):
            def counted(*args, _fn=getattr(scenarios, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(scenarios, name, counted)
        make = scenarios._make_chain
        monkeypatch.setattr(scenarios, "_make_chain",
                            lambda kind, *args: made.update([kind]) or make(kind, *args))
        variants = scenarios._resolve(cfg).values()
        assert len(scenarios._run_chunk(cfg, 0, 3)) == len(variants)
        assert made == {p["chain"]: 3 for p in variants}
        if all(p["mode"] == "discrete" for p in variants):
            assert calls == {"eigen_stack": 1, "run_discrete_batch": len(variants)}
        else:
            assert calls == {"integrate_flows_batch": 1}


class TestValidation:
    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(UnknownScenarioError):
            run_scenario(tiny("fig9_imaginary", tmp_path))

    def test_bad_counts(self, tmp_path):
        with pytest.raises(InvalidInputError):
            tiny("fig2_collapse", tmp_path, n_runs=0)
        with pytest.raises(InvalidInputError):
            tiny("fig2_collapse", tmp_path, workers=0)
        with pytest.raises(InvalidInputError):
            tiny("fig2_collapse", tmp_path, k=6)

    def test_integer_fields_take_integers_only(self, tmp_path):
        tiny("fig2_collapse", tmp_path, n_runs=np.int64(2), k=np.int32(1), iters=np.int64(5),
             record_every=None)
        DynamicsConfig(iters=np.int64(3), record_every=np.int64(1))
        for kw in (dict(k=1.5), dict(n_runs=2.0), dict(master_seed=1.5), dict(n_step=1.5),
                   dict(workers=True), dict(record_every=2.5), dict(iters="10")):
            with pytest.raises(InvalidInputError, match=next(iter(kw))):
                tiny("fig2_collapse", tmp_path, **kw)
        for kw in (dict(iters=10.0), dict(record_every=np.float64(2.0))):
            with pytest.raises(InvalidInputError, match=next(iter(kw))):
                DynamicsConfig(**kw)

    @pytest.mark.parametrize("field", ["eta", "sigma", "beta", "t_end"])
    def test_real_fields_take_finite_real_numbers_only(self, tmp_path, field):
        # "beta": true used to run and echo true into summary.json
        for value in (True, "0.1", [0.1], 10**400):
            with pytest.raises(InvalidInputError, match=field):
                tiny("appendix_target_beta", tmp_path, **{field: value})
        for value in (np.float32(0.5), np.int64(2)):
            assert getattr(tiny("appendix_target_beta", tmp_path, **{field: value}), field) == value

    def test_fig5_width_capped_by_fixed_chain(self, tmp_path):
        # n_states is ignored for the fixed chain but k must still fit it
        with pytest.raises(InvalidInputError):
            run_scenario(tiny("fig5_failure_mode", tmp_path, n_states=8, k=4))

    def test_unset_flags_take_dynamics_config_defaults(self):
        default = DynamicsConfig()
        for scenario in ("fig2_collapse", "appendix_target_beta", "appendix_noisy_predictor"):
            for params in scenarios._resolve(ScenarioConfig(scenario)).values():
                assert ((params["eta"], params["iters"], params["record_every"])
                        == (default.eta, default.iters, default.record_every))

    @pytest.mark.parametrize("scenario, flags", [
        ("fig2_collapse", dict(eta=0.01, iters=20, record_every=10)),
        ("appendix_target_beta", dict(iters=20)),
        ("appendix_finite_lr", dict(iters=20)),
        ("appendix_noisy_predictor", dict(iters=20, record_every=5, eta=np.float64(0.5))),
    ])
    def test_echoed_params_are_the_trained_config(self, tmp_path, monkeypatch, scenario, flags):
        trained, real = [], scenarios.run_discrete_batch

        def spy(phi0, tms, d, config, *args, **kw):
            trained.append(config)
            return real(phi0, tms, d, config, *args, **kw)

        monkeypatch.setattr(scenarios, "run_discrete_batch", spy)
        cfg = tiny(scenario, tmp_path, **flags)
        variants = json.loads(run_scenario(cfg).summary_path.read_text())["variants"]
        echoed = [variants[key]["params"] for key in scenarios._resolve(cfg)]  # one chunk
        assert echoed == [dict(mode="discrete", chain="symmetric", **dataclasses.asdict(c))
                          for c in trained]

    def test_catalog_lists_every_scenario(self):
        assert set(SCENARIOS) == {
            "fig2_collapse", "fig4_trace_ratio", "fig5_failure_mode",
            "example1_critical_points", "appendix_target_beta",
            "appendix_finite_lr", "appendix_noisy_predictor",
        }

    def test_artifact_diff_runs_every_scenario(self):
        # a scenario missing there would escape the byte-identity check
        assert sorted(load_artifact_diff().SCENARIOS) == sorted(SCENARIOS)

    @pytest.mark.parametrize("scenario", ["fig4_trace_ratio", "fig5_failure_mode"])
    def test_echoed_horizon_is_the_flow_drivers_default(self, tmp_path, scenario):
        defaults = inspect.signature(integrate_ode_batch).parameters
        cfg = tiny(scenario, tmp_path, n_runs=1, n_states=4)
        variants = json.loads(run_scenario(cfg).summary_path.read_text())["variants"]
        for variant in variants.values():
            for field in ("t_end", "n_records"):
                echoed = variant["params"][field]
                assert echoed == defaults[field].default
                assert type(echoed) is type(defaults[field].default)


NUMERIC_FIELDS = ["master_seed", "n_runs", "n_states", "k", "eta", "iters", "sigma", "beta",
                  "n_step", "t_end", "n_records", "record_every", "workers"]
HOSTILE = st.one_of(
    st.sampled_from([None, True, False, 0, 0.0, -1, -0.5, 2**70, 10**400, math.nan, math.inf,
                     -math.inf, 1e-320, 1e308, "0.1", "1", [0.1], []]),
    st.integers(-3, 40), st.floats(allow_nan=True, allow_infinity=True))


class TestCli:
    def run_cli(self, argv, capsys):
        from selfpredict.cli import main
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_list(self, capsys):
        code, out, _ = self.run_cli(["--list"], capsys)
        assert code == 0
        for name in SCENARIOS:
            assert name in out

    def test_run_prints_artifact_paths(self, tmp_path, capsys):
        code, out, _ = self.run_cli(
            ["--scenario", "fig2_collapse", "--runs", "2", "--n-states", "4",
             "--iters", "10", "--record-every", "10", "--out", str(tmp_path)],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "fig2_collapse"
        assert set(payload["csv"]) == {"semi_optimal", "full_optimal", "semi_noisy"}
        assert (tmp_path / "fig2_collapse" / "summary.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "scenario": "appendix_noisy_predictor", "n_runs": 2, "n_states": 4,
            "iters": 10, "record_every": 10, "sigma": 0.5,
            "out_dir": str(tmp_path / "from_config"),
        }))
        code, out, _ = self.run_cli(
            ["--config", str(cfg_path), "--sigma", "0.25"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["csv"]) == {"sigma_0.25"}

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["--scenario", "nope", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "UnknownScenarioError"

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"scenario": "fig2_collapse", "nstates": 4}))
        code, _, err = self.run_cli(["--config", str(cfg_path)], capsys)
        assert code == 2
        assert "nstates" in json.loads(err)["message"]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json")
        code, _, err = self.run_cli(["--config", str(cfg_path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("body", [
        b'{"scenario": "fig2_collapse", "n_runs": 1' + b"0" * 5000 + b"}",  # past the digit limit
        b'{"scenario": "fig2_collapse", "n_runs": 1}\xff',  # not UTF-8
    ], ids=["long_int", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, body):
        # a 5000-digit integer used to end in a ValueError traceback
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(body)
        code, stdout, err = self.run_cli(["--config", str(cfg_path), "--out", str(tmp_path)],
                                         capsys)
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert "config file" in payload["message"]

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_a_config_that_cannot_be_read_exits_2_before_any_work(self, tmp_path, capsys, where):
        # a missing file exited 1 with FileNotFoundError, a directory with IsADirectoryError
        cfg_path, out = tmp_path / "cfg", tmp_path / "out"
        if where == "directory":
            cfg_path.mkdir()
        code, stdout, err = self.run_cli(
            ["--scenario", "fig2_collapse", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert f"config file {cfg_path} cannot be read" in payload["message"]

    def test_width_past_the_state_count_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = self.run_cli(
            ["--scenario", "fig2_collapse", "--k", "5", "--n-states", "4", "--out", str(out)],
            capsys)
        assert code == 2
        assert json.loads(err)["error"] == "InvalidInputError"
        assert stdout == "" and not out.exists()

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["--scenario", "fig2_collapse", "--runs", "0", "--out", str(tmp_path)],
            capsys)
        assert code == 2
        assert json.loads(err)["error"] == "InvalidInputError"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        argv = ["--scenario", "fig4_trace_ratio", "--runs", "2", "--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"master_seed": -1}))
            argv += ["--config", str(cfg_path)]
        code, stdout, err = self.run_cli(argv, capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert "master_seed" in payload["message"]
        assert stdout == "" and not out.exists()

    def test_a_fractional_record_cadence_exits_2_before_any_work(self, tmp_path, capsys):
        # step % 2.5 == 0 used to record steps 5 and 10 and echo 2.5 in summary.json
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"scenario": "fig2_collapse", "n_runs": 2, "n_states": 4,
                                        "iters": 10, "record_every": 2.5, "out_dir": str(out)}))
        code, stdout, err = self.run_cli(["--config", str(cfg_path)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert "record_every" in payload["message"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("eta", ["1e-320", "1e-300"])
    def test_a_finite_lr_step_count_past_the_float_range_exits_2(self, tmp_path, capsys, eta):
        # int(round(budget / eta)) used to raise OverflowError at 1e-320, and 1e-300
        # started cells of 1e304 steps
        out = tmp_path / "out"
        code, stdout, err = self.run_cli(
            ["--scenario", "appendix_finite_lr", "--eta", eta, "--runs", "1",
             "--n-states", "3", "--out", str(out)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert "iters / eta" in payload["message"]
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("scenario, field", [("fig2_collapse", "iters"),
                                                 ("appendix_finite_lr", "iters / eta")])
    def test_a_step_count_past_max_iters_exits_2(self, tmp_path, capsys, scenario, field):
        # --iters 10**30 used to start a run of 10**30 steps
        out = tmp_path / "out"
        code, stdout, err = self.run_cli(
            ["--scenario", scenario, "--iters", str(10**30), "--runs", "1", "--n-states", "3",
             "--out", str(out)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"].startswith(f"{field} must be at least")
        assert f"at most {dynamics.MAX_ITERS}" in payload["message"]
        assert stdout == "" and not out.exists()

    def test_a_flow_horizon_past_its_bound_exits_2_before_any_work(self, tmp_path, capsys,
                                                                   monkeypatch):
        # --t-end 1e308 used to integrate until killed: a flow's work grows with t_end
        monkeypatch.setattr(scenarios, "_run_chunk", lambda *a: pytest.fail("a chunk ran"))
        out = tmp_path / "out"
        code, stdout, err = self.run_cli(
            ["--scenario", "fig4_trace_ratio", "--runs", "1", "--n-states", "3", "--records",
             "2", "--t-end", "1e308", "--out", str(out)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError"
        assert payload["message"].startswith("t_end must be above 0")
        assert f"at most {dynamics.MAX_T_END}" in payload["message"]
        assert stdout == "" and not out.exists()

    def test_an_out_dir_that_is_not_a_path_exits_2_before_any_work(self, tmp_path, capsys):
        # "out_dir": 5 used to compute the whole scenario, then exit 2 as a TypeError
        with pytest.raises(InvalidInputError, match="out_dir"):
            ScenarioConfig("fig5_failure_mode", out_dir=5)
        assert ScenarioConfig("fig5_failure_mode", out_dir=tmp_path).out_dir == tmp_path
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"scenario": "fig5_failure_mode", "out_dir": 5}))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "_run_chunk", lambda *a: pytest.fail("a chunk ran"))
            code, stdout, err = self.run_cli(["--config", str(cfg_path)], capsys)
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidInputError" and "out_dir" in payload["message"]

    def test_a_type_error_inside_a_run_is_not_bad_usage(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise TypeError("a fault inside the run")

        monkeypatch.setattr(cli, "run_scenario", broken)
        with pytest.raises(TypeError, match="a fault inside the run"):
            cli.main(["--scenario", "fig2_collapse", "--out", str(tmp_path)])

    @settings(max_examples=300, deadline=None)
    @given(scenario=st.sampled_from(sorted(SCENARIOS)),
           values=st.dictionaries(st.sampled_from(NUMERIC_FIELDS), HOSTILE, max_size=4))
    def test_hostile_numeric_fields_exit_0_or_2(self, tmp_path_factory, scenario, values):
        """Any numeric config value ends in a typed exit 2, or a run on finite numbers."""
        tmp = tmp_path_factory.mktemp("cli")
        seen = []

        def resolve_only(cfg):  # no chain, pool or file work
            seen.append(cfg)
            scenarios._resolve(cfg)
            return scenarios.RunArtifact(cfg.scenario, tmp, {}, tmp / "summary.json")

        path = tmp / "run.json"
        path.write_text(json.dumps(dict(values, scenario=scenario, out_dir=str(tmp))))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), redirect_stderr(err):
            mp.setattr(cli, "run_scenario", resolve_only)
            code = cli.main(["--config", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert json.loads(err.getvalue())["error"] in ("InvalidInputError", "UnknownScenarioError")
        else:
            for field in ("eta", "sigma", "beta", "t_end"):
                v = getattr(seen[0], field)
                assert v is None or (isinstance(v, (int, float)) and not isinstance(v, bool)
                                     and math.isfinite(v))
            assert seen[0].t_end is None or seen[0].t_end <= dynamics.MAX_T_END

    def test_sigma_0_runs_the_grids_noiseless_cell(self, tmp_path, capsys):
        # --sigma 0 used to exit 2 ("sigma must be above 0") though the grid has sigma_0
        base = ["--scenario", "appendix_noisy_predictor", "--runs", "30", "--n-states", "5",
                "--iters", "40", "--record-every", "10"]
        code, out, _ = self.run_cli(base + ["--sigma", "0", "--out", str(tmp_path / "one")],
                                    capsys)
        assert code == 0
        cell = json.loads(out)["csv"]
        assert set(cell) == {"sigma_0"}
        code, out, _ = self.run_cli(base + ["--out", str(tmp_path / "grid")], capsys)
        assert code == 0
        assert filecmp.cmp(cell["sigma_0"], json.loads(out)["csv"]["sigma_0"], shallow=False)

    def test_a_diverging_noisy_run_exits_0_without_nan(self, tmp_path, capsys):
        # eta=50, sigma=1 overflows a noisy run by step 100; the blow-up guard rescales it,
        # so the scenario writes its artifacts, inf where a value overflowed and no NaN
        code, out, err = self.run_cli(
            ["--scenario", "appendix_noisy_predictor", "--eta", "50", "--sigma", "1",
             "--runs", "2", "--iters", "3000", "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        paths = json.loads(out)
        assert "nan" not in Path(paths["csv"]["sigma_1"]).read_text()
        rows = np.genfromtxt(paths["csv"]["sigma_1"], delimiter=",", names=True)
        overflowed = ["f", "f_ratio", "covariance_drift", "residual"]
        assert np.isfinite(rows[rows["step_or_time"] == 0][overflowed].tolist()).all()
        assert np.isinf(rows[rows["step_or_time"] > 0][overflowed].tolist()).all()
        assert ((rows["max_abs_cosine"] >= 0) & (rows["max_abs_cosine"] <= 1)).all()
        summary = Path(paths["summary"]).read_text()
        assert "NaN" not in summary and "Infinity" in summary

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "selfpredict", "--scenario",
             "example1_critical_points", "--runs", "2", "--n-states", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["scenario"] == "example1_critical_points"
