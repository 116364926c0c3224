"""Command-line front end for the defective-eigenvalue benchmark suite.

Commands: verify, find-params, convergence, sensitivity, adaptive,
eigenfunction.  Exit codes: 0 success, 1 computation failure, 2 usage error.
Usage errors are caught before any computation.  A study whose level failed
writes its good rows, names each failed level on stderr and exits 1.  Any
exception outside COMPUTATION_ERRORS is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .analytic1d import (ContourNotConvergedError, DegenerateParametrizationError,
                         EigenConfig, ModelParams, NoRootHereError)
from .bench import (CASES, PairingAmbiguityError, adaptive_loop,
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
                      PairingAmbiguityError) + LEVEL_ERRORS

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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defectbench",
        description="benchmarks for defective eigenvalues of "
        "non-selfadjoint transmission problems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, case=True):
        if case:
            p.add_argument("--case", default="regular1d")
        p.add_argument("--p", type=int, default=1, choices=(1, 2, 3))
        p.add_argument("--levels", type=int, default=8)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--a-R", dest="a_R", default=None)
        p.add_argument("--c", default=None)
        p.add_argument("--lambda", dest="lam", default=None)
        # None lets a config file's "ascent" apply; run() falls back to 3
        p.add_argument("--defect", type=int, default=None)

    common(sub.add_parser("verify"))
    common(sub.add_parser("find-params", help="forge a defective parameter set"))
    common(sub.add_parser("convergence"))
    ps = sub.add_parser("sensitivity")
    common(ps)
    ps.add_argument("--deltas", type=float_list, default="1e-2,1e-6")
    pa = sub.add_parser("adaptive")
    common(pa)
    pa.add_argument("--theta", type=fraction, default=0.5)
    pa.add_argument("--max-dofs", dest="max_dofs", type=int, default=100_000)
    common(sub.add_parser("eigenfunction"))
    return ap


def _apply_config_file(args):
    """JSON config supplies defaults; explicit flags win."""
    if not args.config:
        return
    with open(args.config) as f:
        data = json.load(f)
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr == "lambda":
            attr = "lam"
        if attr == "ascent":
            attr = "defect"
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            value = complex(value["re"], value["im"])
        if getattr(args, attr, None) in (None,) and hasattr(args, attr):
            setattr(args, attr, value)


def _as_complex(value) -> complex:
    if isinstance(value, (complex, float, int)):
        return complex(value)
    return parse_complex(str(value))


def _resolve_case(args) -> BenchmarkCase:
    if args.case not in CASES:
        raise UsageError(f"unknown case {args.case!r}; choose from "
                         f"{sorted(CASES)}")
    case = CASES[args.case]
    overrides = (args.b, args.a_R, args.c, args.lam)
    if all(v is None for v in overrides):
        return case
    par = case.config.params
    b = par.b if args.b is None else float(args.b)
    a_R = par.a_R if args.a_R is None else _as_complex(args.a_R)
    c = par.c if args.c is None else _as_complex(args.c)
    lam = case.config.lam if args.lam is None else _as_complex(args.lam)
    cfg = EigenConfig(params=ModelParams(b=b, a_R=a_R, c=c), lam=lam,
                      ascent=args.defect)
    return BenchmarkCase(id=case.id, config=cfg, dimension=case.dimension,
                         family=case.family, aligned=case.aligned)


class UsageError(Exception):
    pass


# mesh family each study command needs; convergence runs on every family
_STUDY_FAMILY = {"convergence": None, "sensitivity": "interval",
                 "adaptive": "tri", "eigenfunction": "interval"}


def _check_study(args, case: BenchmarkCase):
    """Reject a case, degree, level count or DOF budget the study cannot run."""
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


def _rates_path(out: str) -> str:
    root, _ = os.path.splitext(out)
    return root + ".rates.csv"


def _rates(table) -> str:
    return ", ".join(f"{k}={v:.3f}" for k, v in table.fitted_rates.items())


def _finish(tables, out) -> int:
    """Write the good rows, name every failed level on stderr, exit code."""
    if out:
        write_table_csv(out, tables)
        write_rates_csv(_rates_path(out), tables)
    failed = [(t.case_id, r) for t in tables for r in t.rows if r.failed]
    for case_id, row in failed:
        print(f"{case_id} level {row.level} failed: {row.reason}",
              file=sys.stderr)
    return 1 if failed else 0


def run(argv) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _apply_config_file(args)
        if args.defect is None:
            args.defect = 3
        case = _resolve_case(args)
        if args.command in _STUDY_FAMILY:
            _check_study(args, case)
        if args.command == "find-params" and args.defect not in DEFECT_ORDERS:
            raise UsageError(f"--defect must be one of {DEFECT_ORDERS}")
    except (UsageError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            report = verify_configuration(case.config)
            print(
                f"case {case.id}: ascent {report.certified_ascent}, "
                f"residual {report.residual_norm:.3e}, "
                f"converged {report.converged}"
            )
            return 0 if report.converged else 1

        if args.command == "find-params":
            b = case.config.params.b if args.b is None else float(args.b)
            init = (case.config.params.a_R, case.config.params.c,
                    case.config.lam)
            report = solve_defect_system(b, args.defect, init)
            text = config_to_json(report.solution)
            if args.out:
                with open(args.out, "w") as f:
                    f.write(text + "\n")
            else:
                print(text)
            print(
                f"defect {args.defect}: residual {report.residual_norm:.3e} "
                f"in {report.iterations} iterations, "
                f"certified ascent {report.certified_ascent}",
                file=sys.stderr,
            )
            return 0 if report.converged else 1

        if args.command == "convergence":
            table = run_convergence(case, args.p, args.levels)
            print(f"case {case.id} p={args.p}: rates {_rates(table)}")
            return _finish([table], args.out)

        if args.command == "sensitivity":
            report = sensitivity_study(case, args.deltas, args.p, args.levels)
            for d in args.deltas:
                print(f"delta={d:g}: separation {report.separations[d]:.3f}, "
                      + _rates(report.tables[d]))
            return _finish(list(report.tables.values()), args.out)

        if args.command == "adaptive":
            table = adaptive_loop(case, theta=args.theta,
                                  max_dofs=args.max_dofs, p=args.p)
            print(f"case {case.id} adaptive: rates {_rates(table)}")
            return _finish([table], args.out)

        if args.command == "eigenfunction":
            table = eigenfunction_convergence(case, args.p, args.levels)
            print(f"case {case.id} eigenfunction p={args.p}: rates "
                  f"{_rates(table)}")
            return _finish([table], args.out)
    except COMPUTATION_ERRORS as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
