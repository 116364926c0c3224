"""Command-line front end for the defective-eigenvalue benchmark suite.

Commands: verify, find-params, convergence, sensitivity, adaptive,
eigenfunction.  Each declares only the flags it reads.  Exit codes:
0 success, 1 computation failure, 2 usage error.  Usage errors are caught
before any computation but the certification of a study's parameter set,
which exits 2 when the certified ascent is not the case's ascent.
A study whose level failed writes its good rows, names each failed level
on stderr and exits 1; so does a study that fits no rate.  Any exception
outside COMPUTATION_ERRORS is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from functools import partial

from .analytic1d import (ContourNotConvergedError, DegenerateParametrizationError,
                         NoRootHereError)
from .bench import (CASES, RootCountError, adaptive_loop,
                    eigenfunction_convergence, run_convergence, sensitivity_study,
                    write_rates_csv, write_table_csv)
from .bench.adaptive import initial_mesh
from .bench.cases import BenchmarkCase
from .bench.convergence import LEVEL_ERRORS, check_levels
from .paramfind import (DEFECT_ORDERS, LeftAdmissibleRegionError,
                        RankDeficientJacobianError, SolverDivergedError,
                        config_to_json, solve_defect_system, verify_configuration)

__all__ = ["COMPUTATION_ERRORS", "main", "parse_complex", "run"]

# the library's declared numerical failures: exit 1, anything else propagates
COMPUTATION_ERRORS = (ContourNotConvergedError, NoRootHereError,
                      DegenerateParametrizationError, SolverDivergedError,
                      LeftAdmissibleRegionError, RankDeficientJacobianError,
                      RootCountError) + LEVEL_ERRORS

_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT = rf"[+-]?{_UNSIGNED}"
# the imaginary part of a full a+bi literal must carry an explicit sign,
# otherwise "-0.5i" would split greedily into re="-0." and im="5"
_CPLX_RE = re.compile(
    rf"({_FLOAT})([+-]{_UNSIGNED})i|({_FLOAT})i|({_FLOAT})"
)


def parse_complex(text: str) -> complex:
    """Parse `a+bi`, `a`, or `bi` literals (no spaces)."""
    m = _CPLX_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed complex literal: {text!r}")
    re_part, im_part, pure_im, pure_re = m.groups()
    if pure_re is not None:
        return complex(float(pure_re), 0.0)
    if pure_im is not None:
        return complex(0.0, float(pure_im))
    return complex(float(re_part), float(im_part))


def _number(kind, value):
    """A flag's text, or a JSON number of `kind` but not a bool, as `kind`."""
    if isinstance(value, bool) or not isinstance(value, (str, int, kind)):
        raise ValueError(f"not {kind.__name__}: {value!r}")
    return kind(value)


_real, _integer = partial(_number, float), partial(_number, int)


def _complex(value) -> complex:
    """`a+bi` text, a real number, or the {"re", "im"} object find-params writes."""
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return complex(_real(value["re"]), _real(value["im"]))
    return parse_complex(value) if isinstance(value, str) else complex(_real(value))


# the parameter set: config-file key (= argparse dest) -> flag, parser of a
# flag's text or a config file's value
PARAMETERS = {"b": ("--b", _real), "a_R": ("--a-R", _complex),
              "c": ("--c", _complex), "lambda": ("--lambda", _complex),
              "ascent": ("--defect", _integer)}


def float_list(text: str) -> list:
    values = [float(v) for v in text.split(",") if v]
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("must list positive values")
    return values


def fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


class UsageError(Exception):
    pass


def _resolve_case(args) -> BenchmarkCase:
    """The named case with the parameters of the config file, then the flags."""
    if args.case not in CASES:
        raise UsageError(f"unknown case {args.case!r}; choose from "
                         f"{sorted(CASES)}")
    given = {}
    if args.config:
        with open(args.config) as f:
            given = json.load(f)
        if not isinstance(given, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        given.pop("residuals", None)
        unknown = sorted(set(given) - set(PARAMETERS))
        if unknown:
            raise UsageError(f"{args.config}: unknown keys {unknown}, "
                             f"not in {list(PARAMETERS)} or residuals")
    given.update((key, getattr(args, key)) for key in PARAMETERS
                 if getattr(args, key) is not None)
    values = {}
    for key, value in given.items():
        try:
            values[key] = PARAMETERS[key][1](value)
        except ValueError as exc:  # name the flag, or else the config key
            where = (PARAMETERS[key][0] if getattr(args, key) is not None
                     else f"{args.config}: {key}")
            raise UsageError(f"{where}: {exc}") from None
    cfg = CASES[args.case].config
    params = replace(cfg.params, **{k: values[k] for k in ("b", "a_R", "c")
                                    if k in values})
    return replace(CASES[args.case], config=replace(
        cfg, params=params, lam=values.get("lambda", cfg.lam),
        ascent=values.get("ascent", cfg.ascent)))


# mesh family each study command needs; convergence runs on every family
_STUDY_FAMILY = {"convergence": None, "sensitivity": "interval",
                 "adaptive": "tri", "eigenfunction": "interval"}


def _check_study(args, case: BenchmarkCase):
    """Reject a case, degree, level count or DOF budget the study cannot run,
    and a parameter set not certified at the case's ascent."""
    family = _STUDY_FAMILY[args.command]
    if family is not None and case.family != family:
        raise UsageError(f"{args.command} needs a {family} case, not {case.id}")
    if args.p not in case.degrees:
        raise UsageError(f"case {case.id} assembles degrees "
                         f"{case.degrees}, not --p {args.p}")
    if args.command == "adaptive":
        initial_mesh(args.max_dofs, args.p)
    else:
        check_levels(args.levels)
    report = verify_configuration(case.config)
    if not report.converged:
        raise UsageError(f"case {case.id}: certified ascent "
                         f"{report.certified_ascent}, not {case.config.ascent}")


def _rates(table) -> str:
    return ", ".join(f"{k}={v:.3f}" for k, v in table.fitted_rates.items())


def _finish(tables, out) -> int:
    """Write the good rows, name failed levels and rateless tables, exit code."""
    if out:
        write_table_csv(out, tables)
        write_rates_csv(os.path.splitext(out)[0] + ".rates.csv", tables)
    errors = [f"{t.case_id} level {r.level} failed: {r.reason}"
              for t in tables for r in t.rows if r.failed]
    errors += [f"{t.case_id}: no rate fitted from {len(t.ok_rows)} good levels"
               for t in tables if not t.fitted_rates]
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


def _verify(args, case) -> int:
    report = verify_configuration(case.config)
    print(f"case {case.id}: ascent {report.certified_ascent}, residual "
          f"{report.residual_norm:.3e}, converged {report.converged}")
    return 0 if report.converged else 1


def _find_params(args, case) -> int:
    cfg = case.config
    report = solve_defect_system(cfg.params.b, cfg.ascent,
                                 (cfg.params.a_R, cfg.params.c, cfg.lam))
    text = config_to_json(report.solution)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    print(f"defect {cfg.ascent}: residual {report.residual_norm:.3e} "
          f"in {report.iterations} iterations, "
          f"certified ascent {report.certified_ascent}", file=sys.stderr)
    return 0 if report.converged else 1


def _convergence(args, case) -> int:
    table = run_convergence(case, args.p, args.levels)
    print(f"case {case.id} p={args.p}: rates {_rates(table)}")
    return _finish([table], args.out)


def _sensitivity(args, case) -> int:
    report = sensitivity_study(case, args.deltas, args.p, args.levels)
    for d in args.deltas:
        print(f"delta={d:g}: separation {report.separations[d]:.3f}, "
              + _rates(report.tables[d]))
    return _finish(list(report.tables.values()), args.out)


def _adaptive(args, case) -> int:
    table = adaptive_loop(case, theta=args.theta, max_dofs=args.max_dofs,
                          p=args.p)
    print(f"case {case.id} adaptive: rates {_rates(table)}")
    return _finish([table], args.out)


def _eigenfunction(args, case) -> int:
    table = eigenfunction_convergence(case, args.p, args.levels)
    print(f"case {case.id} eigenfunction p={args.p}: rates {_rates(table)}")
    return _finish([table], args.out)


# every flag outside the case and its parameter set
_FLAGS = {"p": dict(type=int, default=1, choices=(1, 2, 3)),
          "levels": dict(type=int, default=8), "out": dict(default=None),
          "deltas": dict(type=float_list, default="1e-2,1e-6"),
          "theta": dict(type=fraction, default=0.5),
          "max-dofs": dict(type=int, default=100_000)}

# each command's function and flags beyond --case, --config and the parameters
_COMMANDS = {"verify": (_verify, ()),
             "find-params": (_find_params, ("out",)),
             "convergence": (_convergence, ("p", "levels", "out")),
             "sensitivity": (_sensitivity, ("p", "levels", "out", "deltas")),
             "adaptive": (_adaptive, ("p", "out", "theta", "max-dofs")),
             "eigenfunction": (_eigenfunction, ("p", "levels", "out"))}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="defectbench", description="benchmarks "
                                 "for defective eigenvalues of non-selfadjoint "
                                 "transmission problems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--case", default="regular1d")
        p.add_argument("--config", default=None)
        for key, (flag, _) in PARAMETERS.items():
            p.add_argument(flag, dest=key, default=None)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        case = _resolve_case(args)
        if args.command in _STUDY_FAMILY:
            _check_study(args, case)
        if args.command == "find-params" and case.config.ascent not in DEFECT_ORDERS:
            raise UsageError(f"--defect must be one of {DEFECT_ORDERS}")
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, case)
    except COMPUTATION_ERRORS as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
