"""Spans recorded from outside the program, and the traced twin of each command.

A traced command calls the same public carnotpde functions as ``carnotpde.cli``
does for that command, in the same order, and writes the same files, with a
span around each call. Calls the program makes internally are reached by
wrapping the callables it is handed (the frame ``sigma``, the right-hand side
``f`` and the Dirichlet data) and, for the Holder verifier, by temporarily
replacing module attributes of ``carnotpde.holder``. The program itself is
not modified.

Span names are ``<module>.<call>``; the module part names the layer a span's
self time is charged to. The root span of each command is ``cli.<command>``;
its self time is the glue and JSON writing no layer accounts for.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from carnotpde import holder
from carnotpde.ccdist import cc_distance_estimate
from carnotpde.config import build_setup, load_config
from carnotpde.grids import to_csv
from carnotpde.solver import DiscreteOperator, manufactured_rhs, solve

LAYERS = ("config", "structures", "operators", "solver", "holder", "ccdist", "grids")


class Tracer:
    """Spans kept in memory: name, start, end (ns), parent span and operation id."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.op = -1
        self._open: list = []

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    def start(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def stop(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.start(name)
        try:
            yield
        finally:
            self.stop(idx)

    def wrap(self, name: str, fn):
        """fn with a span around every call."""

        def traced(*args, **kwargs):
            idx = self.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stop(idx)

        return traced

    def summary(self, first: int, last: int) -> dict:
        """Per-name call counts and inclusive seconds, per-layer self seconds and
        the root spans' total, over the spans with index in [first, last)."""
        start = np.array(self.starts[first:last], dtype=np.int64)
        dur = (np.array(self.ends[first:last], dtype=np.int64) - start) / 1e9
        parent = np.array(self.parents[first:last], dtype=np.int64)
        names = self.names[first:last]
        nested = parent >= 0
        children = np.bincount(parent[nested] - first, weights=dur[nested], minlength=dur.size)
        own = dur - children
        calls: dict = {}
        inclusive: dict = {}
        self_s: dict = {}
        root_s = 0.0
        for k, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + dur[k]
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + own[k]
            if not nested[k]:
                root_s += dur[k]
        return {"calls": calls, "inclusive": inclusive, "self": self_s, "root_s": root_s}

    def dump(self, path: Path) -> None:
        """Write every span as gzipped columns; times are ns from the first span."""
        origin = self.starts[0] if self.starts else 0
        vocab = sorted(set(self.names))
        index = {n: k for k, n in enumerate(vocab)}
        columns = {
            "names": vocab,
            "name": [index[n] for n in self.names],
            "start_ns": [t - origin for t in self.starts],
            "end_ns": [t - origin for t in self.ends],
            "parent": self.parents,
            "op": self.ops,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(columns, fh)


_HOLDER_CALLS = {
    "fit_alpha": "holder.fit_alpha",
    "max_quotient_violation": "holder.violation",
    "binned_increments": "holder.increments",
    "pair_count": "holder.count_pairs",
    "lipschitz_sigma_estimate": "structures.lipschitz",
}


@contextlib.contextmanager
def holder_spans(tr: Tracer):
    """Span the calls verify_theorem and bundle_for_instance make internally."""
    saved = {attr: getattr(holder, attr) for attr in _HOLDER_CALLS}
    try:
        for attr, name in _HOLDER_CALLS.items():
            setattr(holder, attr, tr.wrap(name, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(holder, attr, fn)


def _instrumented(tr: Tracer, setup):
    """The setup's spec, coefficients and solve config with spanned callables.

    The manufactured f is rebuilt on the spanned frame, so the frame calls
    inside it are counted too; every generated config uses f = manufactured.
    """
    if setup.raw.get("coefficients", {}).get("f", "manufactured") != "manufactured":
        raise ValueError("traced runs need f = 'manufactured'")
    structure = replace(setup.structure, sigma=tr.wrap("structures.sigma", setup.structure.sigma))
    spec = replace(setup.spec, structure=structure)
    f = manufactured_rhs(spec, setup.coeffs.c, setup.ustar)
    coeffs = replace(setup.coeffs, f=tr.wrap("operators.f", f))
    cfg = replace(setup.solve_cfg, boundary=tr.wrap("solver.boundary", setup.solve_cfg.boundary))
    return spec, coeffs, cfg


def _write_json(out: Path, name: str, payload: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w") as fh:
        json.dump({"schema_version": 1, **payload}, fh, indent=2, default=float)
        fh.write("\n")


def _solve(tr: Tracer, config: Path, out: Path) -> int:
    with tr.span("config.load"):
        raw = load_config(config)
    with tr.span("config.build"):
        setup = build_setup(raw, need_solve=True)
    spec, coeffs, cfg = _instrumented(tr, setup)
    with tr.span("solver.solve"):
        u, report = solve(spec, coeffs, setup.grid, cfg)
    out.mkdir(parents=True, exist_ok=True)
    with tr.span("grids.csv"):
        to_csv(u, out / "solution.csv")
    _write_json(out, "solve_report.json", {"seed": setup.seed, **report.to_dict()})
    return 0 if report.converged else 3


def _verify(tr: Tracer, config: Path, out: Path) -> int:
    with tr.span("config.load"):
        raw = load_config(config)
    with tr.span("config.build"):
        setup = build_setup(raw, need_solve=True)
    spec, coeffs, cfg = _instrumented(tr, setup)
    with tr.span("solver.solve"):
        u, report = solve(spec, coeffs, setup.grid, cfg)
    if not report.converged:
        return 3
    seed = setup.seed
    with holder_spans(tr):
        with tr.span("holder.bundle"):
            bundle = holder.bundle_for_instance(spec, coeffs, u, eta=setup.eta, seed=seed)
        growth_radii = setup.raw.get("analysis", {}).get("growth_radii")
        with tr.span("holder.verify"):
            hreport = holder.verify_theorem(
                spec, coeffs, u, bundle, report, seed=seed, growth_radii=growth_radii
            )
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "increments.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance", "max_increment", "pairs"])
            for row in holder.binned_increments(u, seed):
                writer.writerow([row["distance"], row["max_increment"], row["pairs"]])
    _write_json(
        out,
        "holder_report.json",
        {"solve": report.to_dict(), "bundle": bundle.to_dict(), **hreport.to_dict()},
    )
    if not hreport.hypotheses_pass or hreport.max_violation > 0.0:
        return 4
    return 0


def _cc_distance(tr: Tracer, config: Path, out: Path) -> int:
    with tr.span("config.load"):
        raw = load_config(config)
    with tr.span("config.build"):
        setup = build_setup(raw, need_solve=False)
    cc = raw["cc"]
    structure = replace(setup.structure, sigma=tr.wrap("structures.sigma", setup.structure.sigma))
    with tr.span("ccdist.query"):
        dist = cc_distance_estimate(
            structure,
            np.array(cc["a"], dtype=float),
            np.array(cc["b"], dtype=float),
            float(cc["resolution"]),
            box=cc.get("box"),
        )
    _write_json(
        out,
        "cc_report.json",
        {
            "structure": setup.structure.name,
            "a": list(map(float, cc["a"])),
            "b": list(map(float, cc["b"])),
            "resolution": float(cc["resolution"]),
            "distance": dist,
        },
    )
    return 0


_COMMANDS = {"solve": _solve, "verify": _verify, "cc-distance": _cc_distance}


def run_traced(tr: Tracer, command: str, config: Path, out: Path) -> int:
    """Run the traced twin of ``carnotpde <command>`` as one operation."""
    tr.begin_op()
    with tr.span(f"cli.{command}"):
        return _COMMANDS[command](tr, config, out)


def _sparse_nnz(obj) -> int:
    if sp.issparse(obj):
        return int(obj.nnz)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_sparse_nnz(o) for o in obj)
    return 0


def assembly_probe(config: Path) -> tuple[float, int]:
    """Seconds for one DiscreteOperator build as solve makes it, and the stored
    nonzeros of every sparse stencil the operator keeps."""
    setup = build_setup(load_config(config), need_solve=True)
    cells = setup.solve_cfg.h_eff_cells
    h_eff = None if cells is None else cells * setup.grid.h
    t0 = time.perf_counter()
    op = DiscreteOperator(setup.spec, setup.coeffs, setup.grid, h_eff=h_eff)
    elapsed = time.perf_counter() - t0
    return elapsed, sum(_sparse_nnz(v) for v in vars(op).values())


def layer_metrics(summary: dict, counts: dict, assembly: tuple | None) -> dict:
    """The per-layer figures of one traced round, keyed by metric name."""
    calls, inc, own = summary["calls"], summary["inclusive"], summary["self"]
    solve_s = inc.get("solver.solve", 0.0)
    query_s = inc.get("ccdist.query", 0.0)
    expanded = counts.get("ccdist.nodes_expanded", 0)
    assembly_s, nnz = assembly if assembly else (0.0, 0)
    metrics = {
        "config.load_s": inc.get("config.load", 0.0),
        "config.build_s": inc.get("config.build", 0.0),
        "structures.sigma_calls": calls.get("structures.sigma", 0),
        "structures.sigma_s": inc.get("structures.sigma", 0.0),
        "structures.lipschitz_s": inc.get("structures.lipschitz", 0.0),
        "operators.f_calls": calls.get("operators.f", 0),
        "operators.f_s": inc.get("operators.f", 0.0),
        "solver.assembly_s": assembly_s,
        "solver.nnz": nnz,
        "solver.solve_s": solve_s,
        "solver.iterate_s": solve_s - assembly_s if solve_s else 0.0,
        "solver.iterations": counts.get("solver.iterations", 0),
        "solver.boundary_calls": calls.get("solver.boundary", 0),
        "holder.bundle_s": inc.get("holder.bundle", 0.0),
        "holder.verify_s": inc.get("holder.verify", 0.0),
        "holder.fit_alpha_s": inc.get("holder.fit_alpha", 0.0),
        "holder.violation_s": inc.get("holder.violation", 0.0),
        "holder.increments_s": inc.get("holder.increments", 0.0),
        "holder.pair_count": counts.get("holder.pair_count", 0),
        "ccdist.query_s": query_s,
        "ccdist.nodes_expanded": expanded,
        "ccdist.nodes_per_s": expanded / query_s if query_s else 0.0,
        "grids.csv_s": inc.get("grids.csv", 0.0),
        "grids.csv_bytes": counts.get("grids.csv_bytes", 0),
        "cli.unattributed_s": own.get("cli", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    return metrics


def nodes_expanded(tr: Tracer, first: int, last: int) -> int:
    """Frame evaluations made directly by cc queries among spans [first, last)."""
    query = {k for k in range(first, last) if tr.names[k] == "ccdist.query"}
    return sum(
        1
        for k in range(first, last)
        if tr.names[k] == "structures.sigma" and tr.parents[k] in query
    )
