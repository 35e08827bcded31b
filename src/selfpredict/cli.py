"""Command line front end for running scenarios.

Exit codes: 0 on success, 2 for invalid usage or inputs (unknown scenario,
bad flag values, malformed config file), 1 for runtime failures such as IO
errors.  Failures print a one-object JSON diagnostic to stderr with the
error class name and message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import InvalidInputError, SelfPredictError, UnknownScenarioError
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario

# flags whose ScenarioConfig field has another name; the rest share theirs
FLAG_FIELDS = {"seed": "master_seed", "runs": "n_runs", "out": "out_dir", "records": "n_records"}

CONFIG_FIELDS = {f.name for f in ScenarioConfig.__dataclass_fields__.values()}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="selfpredict",
        description="Run self-predictive representation dynamics scenarios.")
    p.add_argument("--scenario", help="scenario name; see --list")
    p.add_argument("--list", action="store_true", help="list scenarios and exit")
    p.add_argument("--config", type=Path,
                   help="JSON file of config fields; explicit flags override it")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--runs", type=int, help="trials per variant (default 100)")
    p.add_argument("--out", help="artifact root directory (default ./artifacts)")
    p.add_argument("--n-states", type=int, dest="n_states",
                   help="chain size for generated chains (default 20)")
    p.add_argument("--k", type=int, help="representation columns (default 2)")
    p.add_argument("--eta", type=float, help="step size, or the single sweep cell")
    p.add_argument("--iters", type=int,
                   help="training steps; the total budget for appendix_finite_lr")
    p.add_argument("--sigma", type=float, help="predictor noise scale override")
    p.add_argument("--beta", type=float, help="target tracking rate override")
    p.add_argument("--n-step", type=int, dest="n_step",
                   help="train against the n_step-fold composed chain")
    p.add_argument("--t-end", type=float, dest="t_end", help="integration horizon")
    p.add_argument("--records", type=int, help="record count for integrated runs")
    p.add_argument("--record-every", type=int, dest="record_every",
                   help="record cadence in steps for discrete runs")
    p.add_argument("--workers", type=int, help="parallel worker processes (default 1)")
    return p


def _error_json(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name, blurb in SCENARIOS.items():
            print(f"{name}: {blurb}")
        return 0

    fields: dict = {}
    try:
        if args.config is not None:
            raw = json.loads(args.config.read_text())
            if not isinstance(raw, dict):
                raise InvalidInputError("config file must hold a JSON object")
            unknown = sorted(set(raw) - CONFIG_FIELDS)
            if unknown:
                raise InvalidInputError(f"unknown config fields: {', '.join(unknown)}")
            fields.update(raw)
        for flag, value in vars(args).items():
            if flag not in ("list", "config") and value is not None:
                fields[FLAG_FIELDS.get(flag, flag)] = value
        if "scenario" not in fields:
            raise UnknownScenarioError("no scenario given; pass --scenario or --list")
        cfg = ScenarioConfig(**fields)
        artifact = run_scenario(cfg)
    except (json.JSONDecodeError, InvalidInputError, UnknownScenarioError, TypeError) as exc:
        _error_json(exc)
        return 2
    except (SelfPredictError, OSError) as exc:
        _error_json(exc)
        return 1

    print(json.dumps({
        "scenario": artifact.scenario,
        "out_dir": str(artifact.out_dir),
        "summary": str(artifact.summary_path),
        "csv": {key: str(path) for key, path in artifact.csv_paths.items()},
    }, indent=2, sort_keys=True))
    return 0
