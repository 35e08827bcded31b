"""Scenario benchmark for selfpredict.

Usage, from the root of a checkout:

    python3 bench/run.py --workload flow_paired_n3 --seed 0 --seconds 55 --trace 0

Each repetition runs selfpredict.scenarios.run_scenario in a fresh process
(child.py) with BLAS and OpenMP pinned to one thread, the checkout's src/ on
PYTHONPATH and the workload seed as master_seed.  Repetitions continue until
--seconds have passed (at least MIN_REPS of them).  After each one this
process checks the artifacts: every record finite, the workload's own check,
and byte-identical files across repetitions.

--trace 0 reports the end-to-end metrics as medians over repetitions.
--trace 1 alternates untraced and traced repetitions (traced ones run with
one worker) and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See GLOSSARY.md for every name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, inspect_artifacts, trials

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
MIN_REPS = 3
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RepFailed(Exception):
    """A repetition's process did not finish cleanly."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
    }


def start_child(job: dict, env: dict, cpu: int | None = None):
    """Start one repetition, optionally pinned to one CPU."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(job)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    return proc, t_spawn


def finish_child(proc, t_spawn: float, timeout: float) -> dict:
    """Wait for a repetition; adds setup_s (spawn to `import selfpredict` done)."""
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition killed after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RepFailed(f"exit code {proc.returncode}: {err.strip()[-2000:]}")
    rep = json.loads(out.splitlines()[-1])
    if not Path(rep["module"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"selfpredict was imported from {rep['module']}, not from {ROOT / 'src'}")
    rep["setup_s"] = rep["ready"] - t_spawn
    return rep


class Session:
    """Repetitions of one workload at one seed, with their output checks."""

    def __init__(self, name: str, seed: int, env: dict, work: Path, deadline: float):
        self.name, self.spec, self.seed = name, WORKLOADS[name], seed
        self.env, self.work, self.deadline = env, work, deadline
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.artifact_bytes = 0
        self.count = 0

    def reps(self, trace: bool, workers: int, cpus=(None,)) -> list:
        """Checked repetitions, one per entry of cpus, run at the same time.

        A repetition whose process failed is counted and left out."""
        started = []
        try:
            for cpu in cpus:
                self.count += 1
                out_dir = self.work / f"rep{self.count}"
                job = {"scenario": self.spec["scenario"], "params": self.spec["params"],
                       "seed": self.seed, "workers": workers, "out_dir": str(out_dir),
                       "trace": trace}
                started.append((self.count, out_dir, start_child(job, self.env, cpu)))
            done = [self._check(count, out_dir, trace, proc, t_spawn)
                    for count, out_dir, (proc, t_spawn) in started]
        finally:
            # only reached with live processes when interrupted
            for _, _, (proc, _) in started:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        return [rep for rep in done if rep is not None]

    def _check(self, count, out_dir, trace, proc, t_spawn) -> dict | None:
        n = trials(self.spec)
        self.attempted += n
        try:
            rep = finish_child(proc, t_spawn, self.deadline - time.monotonic())
            digest, size, problems = inspect_artifacts(out_dir / self.spec["scenario"], self.spec)
        except (RepFailed, OSError, ValueError, KeyError) as exc:
            print(f"{self.name}: repetition {count} failed: {exc}", file=sys.stderr)
            self.failed += n
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.digest is None:
            self.digest, self.artifact_bytes = digest, size
        elif digest != self.digest:
            problems.append("artifacts differ from the first repetition's")
        if trace and not rep["restored"]:
            problems.append("tracing wrappers were not restored")
        if problems:
            print(f"{self.name}: repetition {count}: " + "; ".join(problems), file=sys.stderr)
            self.failed += n
        return rep


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def measure_end_to_end(s: Session, seconds: float) -> list:
    """Untraced repetitions until `seconds` have passed.

    A serial workload runs one repetition on each of the first two CPUs at
    the same time.  On a shared host the speed of each virtual CPU drifts on
    its own; sampling both equally keeps that drift out of the median, and
    doubles the samples.  A pooled workload runs one repetition at a time
    and spreads over every CPU itself.
    """
    cpus = (None,) if s.spec["workers"] > 1 else tuple(sorted(os.sched_getaffinity(0))[:2])
    start = time.monotonic()
    reps = []
    while True:
        t = time.monotonic()
        reps += s.reps(False, s.spec["workers"], cpus)
        now = time.monotonic()
        last = now - t
        enough = len(reps) >= MIN_REPS or s.count >= 2 * MIN_REPS
        if (enough and now - start + last > seconds) or now + last > s.deadline:
            return reps


def measure_layers(s: Session, seconds: float) -> tuple[list, list, list]:
    """Rounds of one untraced repetition at the workload's worker count, one
    untraced serial repetition when that count is above one, and one traced
    serial repetition.  Returns (untraced, untraced serial, traced)."""
    start = time.monotonic()
    plain, serial, traced = [], [], []
    pooled = s.spec["workers"] > 1
    while True:
        t = time.monotonic()
        plain += s.reps(False, s.spec["workers"])
        if pooled:
            serial += s.reps(False, 1)
        traced += s.reps(True, 1)
        now = time.monotonic()
        if (traced and now - start + (now - t) > seconds) or now + (now - t) > s.deadline:
            return plain, serial if pooled else plain, traced


def layer_report(s: Session, plain: list, serial: list, traced: list) -> dict:
    per_rep = [tracing.layer_metrics(r["spans"], r["counts"]) for r in traced]
    metrics = {key: _median([m[key] for m in per_rep]) for key in per_rep[0]}
    traced_wall = [r["spans"][tracing.ROOT]["total_s"] for r in traced]
    compute = [r["spans"][tracing.ROOT]["total_s"] - r["spans"][tracing.ROOT]["self_s"]
               for r in traced]
    metrics["scenarios.tasks"] = traced[0]["tasks"]
    metrics["scenarios.artifact_bytes"] = s.artifact_bytes
    metrics["scenarios.pool_efficiency"] = _median(compute) / (
        s.spec["workers"] * _median([r["wall_s"] for r in plain]))
    metrics["bench.trace_overhead_frac"] = (
        _median([r["wall_s"] for r in traced]) / _median([r["wall_s"] for r in serial]) - 1.0)
    shares = [sum(r["spans"].get(name, {}).get(field, 0.0) for name, field in s.spec["focus"])
              / wall for r, wall in zip(traced, traced_wall)]
    metrics["bench.focus_share"] = _median(shares)
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "selfpredict" / "__init__.py").is_file():
        print(f"no selfpredict sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    env = child_env()
    print("environment " + json.dumps(environment(env), sort_keys=True))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        s = Session(args.workload, args.seed, env, work, deadline)
        if args.trace:
            plain, serial, traced = measure_layers(s, args.seconds)
            e2e_reps = plain
        else:
            e2e_reps = measure_end_to_end(s, args.seconds)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not e2e_reps or (args.trace and not traced):
        print(f"{args.workload}: no repetition finished", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: seed {args.seed}, {s.count} repetitions, "
          f"{s.attempted} trials, {s.failed} failed, failed_frac {s.failed / s.attempted:g}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {}
    for m in declared["end_to_end"]:
        values = [r[m["name"]] for r in e2e_reps]
        e2e[m["name"]] = {"value": _median(values), "unit": m["unit"]}
        print(f"  {m['name']:<52} {_median(values):14.6g} {m['unit']:<8} "
              f"median; {_spread(values)}")
    metrics = e2e
    if args.trace:
        layers = layer_report(s, plain, serial, traced)
        print(f"  per layer: median of {len(traced)} traced repetitions at workers=1")
        metrics = {}
        for m in declared["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<52} {layers[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
