"""Command line entry point.

Subcommands:
  run      one closed-loop scenario; writes traces.csv and summary.json
  sweep    one architecture over a list of commanded velocities
  compare  all four architecture combinations, max no-fall velocity each

Exit codes: 0 success, 2 configuration error, 3 footstep plan infeasible,
4 run ended in a fall or a controller failure, 1 anything else. Errors are
printed to stderr as a single JSON object with a `category` field.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from .harness import (compare_architectures, dump_comparison, run_scenario,
                      scenario_from_dict)
from .kinematics import YAML_LOADER
from .unicycle import PlanInfeasibleError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_PLAN = 3
EXIT_RUN = 4


def _fail(category, message, code):
    json.dump({"category": category, "message": str(message)}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _load_scenario(path):
    if path is None:
        return scenario_from_dict({})
    with open(path) as f:
        return scenario_from_dict(yaml.load(f, Loader=YAML_LOADER) or {})


def _cmd_run(args):
    scenario = _load_scenario(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(scenario, seed=args.seed)
    result.dump_csv(out / "traces.csv")
    result.dump_summary(out / "summary.json")
    print(json.dumps(result.summary, sort_keys=True))
    if not result.metrics.get("completed"):
        return _fail("run_failed", result.summary.get("error") or "fall detected",
                     EXIT_RUN)
    return EXIT_OK


def _cmd_sweep(args):
    scenario = _load_scenario(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for v in args.velocities:
        result = run_scenario(replace(scenario, forward_velocity=v), seed=args.seed)
        rows.append(result.summary)
        print(json.dumps(result.summary, sort_keys=True))
    with open(out / "sweep.json", "w") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK


def _cmd_compare(args):
    scenario = _load_scenario(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = compare_architectures(scenario, args.velocities, seed=args.seed)
    dump_comparison(rows, out / "comparison.csv")
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="dcmwalk",
                                     description="DCM walking control benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one closed-loop scenario")
    run_p.add_argument("--config", default=None, help="scenario YAML file")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep commanded velocities")
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--velocities", type=float, nargs="+", required=True)
    sweep_p.add_argument("--out", default="out")
    sweep_p.set_defaults(func=_cmd_sweep)

    cmp_p = sub.add_parser("compare", help="rank the four architectures")
    cmp_p.add_argument("--config", default=None)
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--velocities", type=float, nargs="+", required=True)
    cmp_p.add_argument("--out", default="out")
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, FileNotFoundError, yaml.YAMLError) as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except PlanInfeasibleError as exc:
        return _fail("plan_infeasible", exc, EXIT_PLAN)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail("internal", exc, EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
