"""CSV emission for convergence tables; files are written atomically."""

from __future__ import annotations

import os
import tempfile

from .convergence import K_LAST, ConvergenceTable

__all__ = ["write_table_csv", "write_rates_csv", "format_float"]

HEADER = "case,p,level,N,h,idx,lambda_re,lambda_im,abs_err,mean_abs_err,eta_total"
RATES_HEADER = "case,p,column,slope,k_last"


def format_float(x) -> str:
    """17 significant digits: lossless round trip for doubles."""
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def table_rows(table: ConvergenceTable):
    """Data rows: one per cluster eigenvalue plus one `mean` row per level."""
    out = []
    for row in table.ok_rows:
        eta = format_float(row.eta_total) if row.eta_total is not None else ""
        if len(row.errors) == len(row.values):
            errs = sorted(
                ((abs(table.target - v), v) for v in row.values),
                key=lambda t: -t[0],
            )
        else:
            # tables whose error columns are not eigenvalue errors (for
            # example H1 distances) report the cluster mean as the value
            errs = [(e, row.mean_value) for e in row.errors]
        for i, (err, val) in enumerate(errs, start=1):
            out.append(
                f"{table.case_id},{table.p},{row.level},{row.N},"
                f"{format_float(row.h)},{i},{format_float(val.real)},"
                f"{format_float(val.imag)},{format_float(err)},"
                f"{format_float(row.mean_error)},{eta}"
            )
        out.append(
            f"{table.case_id},{table.p},{row.level},{row.N},"
            f"{format_float(row.h)},mean,{format_float(row.mean_value.real)},"
            f"{format_float(row.mean_value.imag)},"
            f"{format_float(row.mean_error)},{format_float(row.mean_error)},"
            f"{eta}"
        )
    return out


def write_table_csv(path: str, tables):
    if isinstance(tables, ConvergenceTable):
        tables = [tables]
    lines = [HEADER]
    for t in tables:
        lines += table_rows(t)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_rates_csv(path: str, tables):
    if isinstance(tables, ConvergenceTable):
        tables = [tables]
    lines = [RATES_HEADER]
    for t in tables:
        for column, slope in t.fitted_rates.items():
            lines.append(
                f"{t.case_id},{t.p},{column},{format_float(slope)},{K_LAST}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")
