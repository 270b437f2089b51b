"""Command-line front end.

Subcommands:
    example  run a named example and print its result record as JSON
    export   canonicalize a named example and write the cone-program JSON
    solve    solve a cone-program JSON file produced by export
    list     show example names and their parameters

Exit codes: 0 solved to optimality, 1 iteration limit reached, 2 infeasible
or unbounded, 3 composition-rule rejection, 4 bad input (a malformed
parameter or file, an impossible size, a path that cannot be read or
written).
"""
from __future__ import annotations

import argparse
import json
import sys

from .canon import canonicalize, export_json, import_json
from .errors import (ConeDSLError, DCPError, InputError, SchemaError,
                     ShapeError)
from .examples import (ExampleConfig, _jsonify, build_example,
                       describe_examples, emit_series, run_example)
from .solver import SolverSettings, solve_cone_program

_STATUS_EXIT = {
    "optimal": 0,
    "max_iters_reached": 1,
    "primal_infeasible": 2,
    "dual_infeasible": 2,
}


def _parse_params(pairs):
    params = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise InputError(f"--param expects key=value, got {raw!r}")
        key, val = raw.split("=", 1)
        if not key:
            raise InputError(f"--param expects key=value, got {raw!r}")
        params[key] = val
    return params


def _cmd_example(args):
    cfg = ExampleConfig(args.name, seed=args.seed,
                        params=_parse_params(args.param))
    record = run_example(cfg)
    text = record.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if args.csv:
        emit_series(record, args.csv)
    return _STATUS_EXIT.get(record.status, 1)


def _cmd_export(args):
    cfg = ExampleConfig(args.name, seed=args.seed,
                        params=_parse_params(args.param))
    text = export_json(*canonicalize(build_example(cfg).problem))
    with open(args.out, "w") as f:
        f.write(text + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_solve(args):
    with open(args.file) as f:
        text = f.read()
    cp, _vmap = import_json(text)
    settings = SolverSettings(eps_abs=args.eps, eps_rel=args.eps,
                              max_iters=args.max_iters)
    sol = solve_cone_program(cp, settings)
    record = _jsonify({"file": args.file, "status": sol.status,
                       "objective": cp.user_objective(sol.objective),
                       **sol.metrics()})
    print(json.dumps(record, indent=2))
    return _STATUS_EXIT.get(sol.status, 1)


def _cmd_list(_args):
    print(describe_examples())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conedsl",
        description="model, canonicalize and solve convex cone programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("example", help="run a named example")
    p_ex.add_argument("name")
    p_ex.add_argument("--seed", type=int, default=0)
    p_ex.add_argument("--param", action="append", metavar="KEY=VALUE",
                      help="override an example parameter (repeatable)")
    p_ex.add_argument("--out", help="also write the JSON record to a file")
    p_ex.add_argument("--csv", metavar="DIR",
                      help="write any series output as CSV files in DIR")
    p_ex.set_defaults(func=_cmd_example)

    p_exp = sub.add_parser("export",
                           help="write an example's cone program as JSON")
    p_exp.add_argument("name")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--param", action="append", metavar="KEY=VALUE")
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=_cmd_export)

    p_sol = sub.add_parser("solve", help="solve an exported cone program")
    p_sol.add_argument("file")
    p_sol.add_argument("--eps", type=float, default=1e-6)
    p_sol.add_argument("--max-iters", type=int, default=50000)
    p_sol.set_defaults(func=_cmd_solve)

    p_list = sub.add_parser("list", help="list examples and parameters")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DCPError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    # an OSError names the file it could not read or write
    except (InputError, SchemaError, ShapeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ConeDSLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
