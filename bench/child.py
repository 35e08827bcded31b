"""One repetition of a workload, in a process of its own.

Usage: python3 child.py '<json job>'

The job names the scenario, its parameters, the master seed, the worker
count, the output directory and whether to trace.  The process imports
selfpredict, runs run_scenario once, and prints one JSON line with the
monotonic time at which the import finished, the wall and CPU time of the
run_scenario call and the peak resident memory.  A traced job adds the
span summary and counters.  run.py starts this with BLAS and OpenMP pinned
to one thread and PYTHONPATH pointing at the checkout's src/.
"""

import json
import resource
import sys
import time

import selfpredict
from selfpredict.scenarios import CHUNK_SIZE, ScenarioConfig, run_scenario

READY = time.monotonic()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(job: dict) -> dict:
    cfg = ScenarioConfig(scenario=job["scenario"], master_seed=job["seed"],
                         out_dir=job["out_dir"], workers=job["workers"], **job["params"])
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        before = tracing.snapshot()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer is None:
        art = run_scenario(cfg)
    else:
        art = tracing.traced_run(run_scenario, cfg, tracer)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest child.
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "ready": READY,
        "module": selfpredict.__file__,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024.0,
        "tasks": len(art.csv_paths) * -(-cfg.n_runs // CHUNK_SIZE),
    }
    if tracer is not None:
        out["restored"] = all(a is b for a, b in
                              zip(tracing.snapshot().values(), before.values()))
        out["spans"] = tracer.summary()
        out["counts"] = tracer.counts
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
