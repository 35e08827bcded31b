"""Span tracing of selfpredict from outside the package.

A traced run swaps timing wrappers onto the module-level names that the
package's own functions look up at call time, runs the scenario, and puts
the original objects back.  Nothing under src/ knows about it.

Spans are kept in memory as flat lists (name, parent index, start, end).
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import flops

# (module, attribute) -> span name.  solve_ivp additionally wraps the RHS it
# is handed, under the span name in RHS_SPANS.
TARGETS = {
    ("scenarios", "run_discrete_batch"): "dynamics.run_discrete_batch",
    ("scenarios", "integrate_ode"): "dynamics.integrate_ode",
    ("scenarios", "integrate_bidir"): "bidirectional.integrate_bidir",
    ("scenarios", "gen_symmetric"): "markov.chain_gen",
    ("scenarios", "gen_doubly_stochastic"): "markov.chain_gen",
    ("scenarios", "orthonormal_init"): "dynamics.orthonormal_init",
    # stream_rng derives its seed through stream_seed, so both count as seeding
    ("scenarios", "stream_seed"): "seeding.stream_seed",
    ("scenarios", "stream_rng"): "seeding.stream_seed",
    ("scenarios", "flow_residual"): "dynamics.flow_residual",
    ("dynamics", "solve_ivp"): "dynamics.solve_ivp",
    ("dynamics", "reference_normalizer"): "metrics.normalizer",
    ("dynamics", "flow_residual"): "dynamics.flow_residual",
    ("bidirectional", "solve_ivp"): "bidirectional.solve_ivp",
    ("bidirectional", "normalizers"): "metrics.normalizer",
    ("bidirectional", "bidir_ode_rhs"): "bidirectional.bidir_ode_rhs",
}
RHS_SPANS = {"dynamics.solve_ivp": "dynamics.rhs",
             "bidirectional.solve_ivp": "bidirectional.rhs"}
ROOT = "scenarios.run_scenario"


class Tracer:
    """In-memory span recorder plus the counters the wrappers take."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""
        names, parents, starts, ends, opened = (
            self.names, self.parents, self.starts, self.ends, self._open)
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(opened[-1] if opened else -1)
            ends.append(0.0)
            opened.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                opened.pop()

        return traced

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        return self_times(self.names, self.parents, self.starts, self.ends)


def self_times(names, parents, starts, ends) -> dict:
    """Aggregate calls, total and self time per span name.

    parents[i] is the index of span i's parent, or -1 for a root.
    """
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    out: dict = {}
    for i, name in enumerate(names):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur[i]
        agg["self_s"] += dur[i] - child[i]
    return out


def _wrappers(tracer: Tracer, modules: dict) -> dict:
    """Replacement object for every (module, attribute) in TARGETS."""
    out = {}
    for (mod, attr), name in TARGETS.items():
        fn = getattr(modules[mod], attr)
        if attr == "solve_ivp":
            out[(mod, attr)] = _solve_ivp_wrapper(tracer, name, fn)
        elif attr == "run_discrete_batch":
            out[(mod, attr)] = _kernel_wrapper(tracer, name, fn)
        elif attr in ("integrate_ode", "integrate_bidir"):
            out[(mod, attr)] = _flow_wrapper(tracer, name, fn)
        else:
            out[(mod, attr)] = tracer.wrap(name, fn)
    return out


def _solve_ivp_wrapper(tracer: Tracer, name: str, fn):
    rhs_name = RHS_SPANS[name]

    def call(fun, *args, **kwargs):
        sol = fn(tracer.wrap(rhs_name, fun), *args, **kwargs)
        tracer.count(name + ".nfev", sol.nfev)
        return sol

    return tracer.wrap(name, call)


def _kernel_wrapper(tracer: Tracer, name: str, fn):
    def call(phi0_stack, tms, d, config, *args, **kwargs):
        m, n, k = phi0_stack.shape
        if config.loss_kind != "squared" or config.predictor_mode == "inner_solved":
            raise ValueError("the kernel flop model covers the squared loss with an "
                             "optimal or noisy predictor only")
        f, b = flops.kernel_step(n, k, full=config.gradient_mode == "full",
                                 target=config.target_beta is not None,
                                 noisy=config.predictor_mode == "noisy")
        steps = m * config.iters
        tracer.count(name + ".run_steps", steps)
        tracer.count("dynamics.kernel.flops", steps * f)
        tracer.count("dynamics.kernel.bytes", steps * b)
        return fn(phi0_stack, tms, d, config, *args, **kwargs)

    return tracer.wrap(name, call)


def _flow_wrapper(tracer: Tracer, name: str, fn):
    """Records the flow's (n, k) so the RHS flop model can be evaluated."""
    prefix = name.split(".")[0]

    def call(state0, *args, **kwargs):
        rep = state0.left if prefix == "bidirectional" else state0
        n, k = rep.shape
        tracer.counts[prefix + ".rhs.n"] = n
        tracer.counts[prefix + ".rhs.k"] = k
        return fn(state0, *args, **kwargs)

    return tracer.wrap(name, call)


def _modules() -> dict:
    from selfpredict import bidirectional, dynamics, scenarios
    return {"scenarios": scenarios, "dynamics": dynamics, "bidirectional": bidirectional}


def snapshot() -> dict:
    """The objects currently bound to every target name."""
    modules = _modules()
    return {key: getattr(modules[key[0]], key[1]) for key in TARGETS}


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in for the duration of the block, then restore."""
    modules = _modules()
    originals = snapshot()
    wrappers = _wrappers(tracer, modules)
    try:
        for (mod, attr), w in wrappers.items():
            setattr(modules[mod], attr, w)
        yield
    finally:
        for (mod, attr), orig in originals.items():
            setattr(modules[mod], attr, orig)


def traced_run(run_scenario, cfg, tracer: Tracer):
    """run_scenario(cfg) under the wrappers, inside a root span."""
    with installed(tracer):
        return tracer.wrap(ROOT, run_scenario)(cfg)


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(spans: dict, counts: dict) -> dict:
    """Per-layer metric values from a span summary and the tracer's counters.

    Layers a workload does not reach report 0.
    """
    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {}
    kern = "dynamics.run_discrete_batch"
    steps = counts.get(kern + ".run_steps", 0)
    out[kern + ".calls"] = get(kern, "calls")
    out[kern + ".run_steps"] = steps
    out[kern + ".self_s"] = get(kern, "self_s")
    out[kern + ".us_per_run_step"] = _per(get(kern, "self_s"), steps, 1e6)
    out["dynamics.kernel.flops_per_run_step"] = _per(counts.get("dynamics.kernel.flops", 0), steps)
    out["dynamics.kernel.bytes_per_run_step"] = _per(counts.get("dynamics.kernel.bytes", 0), steps)
    out["dynamics.kernel.gflops"] = _per(counts.get("dynamics.kernel.flops", 0),
                                         get(kern, "self_s"), 1e-9)
    for name in ("metrics.normalizer", "markov.chain_gen"):
        out[name + ".calls"] = get(name, "calls")
        out[name + ".us_per_call"] = _per(get(name, "total_s"), get(name, "calls"), 1e6)
    out["dynamics.orthonormal_init.us_per_call"] = _per(
        get("dynamics.orthonormal_init", "total_s"), get("dynamics.orthonormal_init", "calls"), 1e6)
    out["seeding.stream_seed.calls"] = get("seeding.stream_seed", "calls")
    out["seeding.stream_seed.s"] = get("seeding.stream_seed", "total_s")

    for prefix, driver, model in (("dynamics", "integrate_ode", flops.flow_rhs),
                                  ("bidirectional", "integrate_bidir", flops.bidir_rhs)):
        ivp, rhs = prefix + ".solve_ivp", prefix + ".rhs"
        out[ivp + ".s"] = get(ivp, "total_s")
        out[ivp + ".nfev"] = counts.get(ivp + ".nfev", 0)
        out[rhs + ".us_per_call"] = _per(get(rhs, "total_s"), get(rhs, "calls"), 1e6)
        shape = (counts.get(rhs + ".n"), counts.get(rhs + ".k"))
        out[rhs + ".flops_per_call"] = model(*shape)[0] if None not in shape else 0
        out[prefix + ".integrator_overhead_frac"] = _per(get(ivp, "self_s"), get(ivp, "total_s"))
        out[f"{prefix}.{driver}.self_s"] = get(f"{prefix}.{driver}", "self_s")
    out["dynamics.flow_residual.calls"] = get("dynamics.flow_residual", "calls")
    out["dynamics.flow_residual.s"] = get("dynamics.flow_residual", "total_s")
    out["bidirectional.bidir_ode_rhs.calls"] = get("bidirectional.bidir_ode_rhs", "calls")
    out["bidirectional.bidir_ode_rhs.s"] = get("bidirectional.bidir_ode_rhs", "total_s")
    out[ROOT + ".self_s"] = get(ROOT, "self_s")
    return out
