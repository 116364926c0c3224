"""Per-layer tracing of the study benchmark.

A traced run replaces public functions of ``defectbench`` by wrappers that
record one span per call (name, start, end, parent) and the work the call
returned.  The drivers import their callees by name, so a function is
replaced in every module that looks it up.  Spans stay in memory and are
written out when the run ends; the untraced run wraps nothing.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

import defectbench.bench.adaptive as adaptive
import defectbench.bench.convergence as convergence
import defectbench.bench.eigenfunction as eigenfunction
import defectbench.bench.sensitivity as sensitivity
import defectbench.eigensolve as eigensolve
import defectbench.paramfind as paramfind
from defectbench import bench

_DRIVERS = ("run_convergence", "sensitivity_study", "adaptive_loop",
            "eigenfunction_convergence")


# work recorders: (call args, call kwargs, result) -> counts for the span
def _nnz(_args, _kwargs, pencil):
    return {"nnz": pencil.A.nnz + pencil.B.nnz}


def _triangles(_args, _kwargs, mesh):
    return {"triangles": mesh.n_triangles}


def _factor_bytes(_args, _kwargs, fact):
    return {"factor_bytes": 16 * fact.lu.nnz}


def _marked(_args, _kwargs, marked):
    return {"marked": len(marked)}


def _csv_bytes(args, kwargs, _out):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


# (modules that look the name up, attribute, span name, work recorder);
# ShiftedFactorization.solve is patched on its class
PATCHES = [
    ((convergence, adaptive), "nvb_refine", "meshing.nvb_refine", _triangles),
    ((convergence,), "assemble_interval", "fem.assemble_interval", _nnz),
    ((convergence, adaptive), "assemble_triangles", "fem.assemble_triangles", _nnz),
    ((convergence,), "assemble_tensor", "fem.assemble_tensor", _nnz),
    ((eigenfunction,), "h1_error", "fem.h1_error", None),
    # the drivers' calls only: a shift retry inside eigs_near stays in the
    # outer span, so factorize_calls > eigs_near_calls shows it
    ((convergence, adaptive, sensitivity, eigenfunction), "eigs_near",
     "eigensolve.eigs_near", None),
    ((eigensolve,), "factorize_shifted", "eigensolve.factorize", _factor_bytes),
    ((eigensolve.ShiftedFactorization,), "solve", "eigensolve.solve", None),
    ((adaptive,), "residual_estimator", "adaptive.residual_estimator", None),
    ((adaptive,), "dorfler_mark", "adaptive.dorfler_mark", _marked),
    ((sensitivity,), "compute_reference_cluster", "sensitivity.reference_cluster",
     None),
    ((paramfind,), "verify_configuration", "paramfind.verify_configuration", None),
    ((eigenfunction,), "eigenfunction_jet", "analytic1d.eigenfunction_jet", None),
    ((bench,), "write_table_csv", "io.write_csv", _csv_bytes),
    ((bench,), "write_rates_csv", "io.write_csv", _csv_bytes),
] + [((bench,), d, f"bench.{d}", None) for d in _DRIVERS]

# per-layer metrics derived from one round's spans
SPAN_TIMES = {
    "meshing.nvb_refine_s": "meshing.nvb_refine",
    "fem.assemble_interval_s": "fem.assemble_interval",
    "fem.assemble_triangles_s": "fem.assemble_triangles",
    "fem.assemble_tensor_s": "fem.assemble_tensor",
    "fem.h1_error_s": "fem.h1_error",
    "eigensolve.eigs_near_s": "eigensolve.eigs_near",
    "eigensolve.factorize_s": "eigensolve.factorize",
    "eigensolve.solve_s": "eigensolve.solve",
    "adaptive.residual_estimator_s": "adaptive.residual_estimator",
    "adaptive.dorfler_mark_s": "adaptive.dorfler_mark",
    "sensitivity.reference_cluster_s": "sensitivity.reference_cluster",
    "analytic1d.eigenfunction_jet_s": "analytic1d.eigenfunction_jet",
    "io.write_csv_s": "io.write_csv",
}
SPAN_CALLS = {
    "meshing.nvb_refine_calls": ("meshing.nvb_refine",),
    "fem.assemble_calls": ("fem.assemble_interval", "fem.assemble_triangles",
                           "fem.assemble_tensor"),
    "eigensolve.eigs_near_calls": ("eigensolve.eigs_near",),
    "eigensolve.factorize_calls": ("eigensolve.factorize",),
    "eigensolve.solve_calls": ("eigensolve.solve",),
    "adaptive.residual_estimator_calls": ("adaptive.residual_estimator",),
}
WORK_SUMS = {
    "meshing.triangles_out": "triangles",
    "fem.pencil_nnz": "nnz",
    "adaptive.marked_triangles": "marked",
    "io.csv_bytes": "bytes",
}


class Tracer:
    """Records spans while active, after install() has wrapped the layers."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, start, end, parent index, work dict]
        self.rounds = []  # (first span index, end index) per round
        self.active = False
        self._stack = []

    def _wrap(self, fn, name, work):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if work is not None:
                span[4] = work(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owners, attr, name, work in PATCHES:
            for owner in owners:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, work))

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def round(self):
        start = len(self.spans)
        with self.recording():
            yield
        self.rounds.append((start, len(self.spans)))

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def _round_metrics(self, lo, hi, self_times):
        spans = self.spans[lo:hi]
        out = {}
        for metric, name in SPAN_TIMES.items():
            out[metric] = sum(s[2] - s[1] for s in spans if s[0] == name)
        for metric, names in SPAN_CALLS.items():
            out[metric] = sum(1 for s in spans if s[0] in names)
        for metric, key in WORK_SUMS.items():
            out[metric] = sum(s[4][key] for s in spans if s[4] and key in s[4])
        out["eigensolve.factor_bytes_max"] = max(
            [s[4]["factor_bytes"] for s in spans if s[4] and "factor_bytes" in s[4]],
            default=0,
        )
        out["eigensolve.eigs_near_self_s"] = sum(
            t for s, t in zip(spans, self_times[lo:hi])
            if s[0] == "eigensolve.eigs_near"
        )
        out["bench.driver_self_s"] = sum(
            t for s, t in zip(spans, self_times[lo:hi]) if s[0].startswith("bench.")
        )
        return out

    def metrics(self):
        """Per-layer metrics: the median over rounds of each round's value,
        and the set-up time of verify_configuration (spans before round 1)."""
        self_times = self._self_times()
        per_round = [self._round_metrics(lo, hi, self_times) for lo, hi in self.rounds]
        out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        first = self.rounds[0][0]
        out["paramfind.verify_configuration_s"] = sum(
            s[2] - s[1] for s in self.spans[:first]
            if s[0] == "paramfind.verify_configuration"
        )
        return out

    def write(self, path: str, metrics: dict):
        doc = {
            "rounds": self.rounds,
            "metrics": metrics,
            "spans": [
                {"name": n, "start": s - self.t0, "end": e - self.t0,
                 "parent": p, **(w or {})}
                for n, s, e, p, w in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f)
