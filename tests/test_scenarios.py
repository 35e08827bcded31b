import filecmp
import json
import subprocess
import sys
from collections import Counter
from concurrent.futures import Future

import pytest

from selfpredict import InvalidInputError, UnknownScenarioError
from selfpredict import scenarios
from selfpredict.scenarios import SCENARIOS, ScenarioConfig, run_scenario

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

        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize("cpus, expected", [(8, [3]), (2, [2]), (1, []), (None, [])])
    def test_pool_capped_by_tasks_and_cpus(self, tmp_path, monkeypatch, pool_sizes,
                                           cpus, expected):
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: cpus)
        # 75 runs make three 25-run chunks, one task each for every variant
        run_scenario(tiny("fig2_collapse", tmp_path, n_runs=75, eta=0.01, iters=10,
                          record_every=10, workers=1000))
        assert pool_sizes == expected

    def test_single_task_runs_serially(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 8)
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

    def test_fig5_width_capped_by_fixed_chain(self, tmp_path):
        # n_states is ignored for the fixed chain but k must still fit it
        with pytest.raises(InvalidInputError):
            run_scenario(tiny("fig5_failure_mode", tmp_path, n_states=8, k=4))

    def test_catalog_lists_every_scenario(self):
        assert set(SCENARIOS) == {
            "fig2_collapse", "fig4_trace_ratio", "fig5_failure_mode",
            "example1_critical_points", "appendix_target_beta",
            "appendix_finite_lr", "appendix_noisy_predictor",
        }


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

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["--scenario", "fig2_collapse", "--runs", "0", "--out", str(tmp_path)],
            capsys)
        assert code == 2
        assert json.loads(err)["error"] == "InvalidInputError"

    def test_non_finite_noisy_run_exits_1(self, tmp_path, capsys):
        # eta=50, sigma=1 overflows the unguarded noisy run; it used to write NaN rows
        code, out, err = self.run_cli(
            ["--scenario", "appendix_noisy_predictor", "--eta", "50", "--sigma", "1",
             "--runs", "2", "--iters", "3000", "--out", str(tmp_path)], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "NonFiniteStateError"
        assert "run 0 at step" in payload["message"]
        assert out == ""

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "selfpredict", "--scenario",
             "example1_critical_points", "--runs", "2", "--n-states", "2",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["scenario"] == "example1_critical_points"
