"""Replay of the sweep harness through socialcell's public builders.

`replay` runs every (sweep point, replication) cell of an ExperimentSpec in
the same order and with the same seeds as `harness.run_experiment`, calling
one public function per layer:

    scenario_from_config -> social_graph_from_config -> edge_betweenness
    -> similarity -> social_distance -> build_problem -> report
    -> anneal_on_problem -> greedy_stabilize

and `audit_cells` then runs `audit_stability` on every social-aware
matching.  With a `Tracer` each call is recorded as a span, and each
problem's bound `evaluate` method is wrapped so its calls become spans too.
With `NO_TRACE` the same calls run bare.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from socialcell import config as cfgmod
from socialcell import harness, matching, socialgraph


@dataclass(frozen=True)
class Span:
    """One timed call.  `parent` indexes the enclosing span (-1 at top)."""

    name: str
    start: float
    end: float
    parent: int
    replication: int | None


class Tracer:
    """Records nested spans in memory; write_spans() dumps them at the end."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.replication: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.replication)

    def instrument(self, problem: matching.AssociationProblem) -> None:
        """Time every evaluate() call made on this problem instance."""
        inner = problem.evaluate
        span = self.span

        def evaluate(assign):
            with span("matching.evaluate"):
                return inner(assign)

        problem.evaluate = evaluate


class _NoTrace:
    """Tracer stand-in for untraced runs: no spans, no wrapped methods."""

    replication = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def instrument(self, problem) -> None:
        pass


NO_TRACE = _NoTrace()


@dataclass
class Cell:
    """A social-aware matching kept for the audit pass."""

    replication: int
    problem: matching.AssociationProblem
    assign: np.ndarray
    stabilized: bool


@dataclass
class Replay:
    """What one replay produced: rows, kept matchings, failures, emitted
    files and the layer counters (filled in untraced runs too)."""

    rows: list[harness.ReplicationRow] = field(default_factory=list)
    cells: list[Cell] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    attempted: int = 0
    emitted: dict[str, str] = field(default_factory=dict)
    edge_visits: int = 0
    anneal_iterations: int = 0
    anneal_accepted: int = 0
    best_iterations: list[int] = field(default_factory=list)
    stabilize_applied: int = 0


def replay(spec: harness.ExperimentSpec, out_dir, tracer=NO_TRACE) -> Replay:
    """Run every replication of `spec` as the harness does, then emit."""
    out = Replay()
    rid = 0
    for pi, x in enumerate(spec.sweep_values):
        for ri in range(spec.replications):
            tracer.replication = rid
            out.attempted += 1
            try:
                with tracer.span("harness.replication"):
                    _replicate(spec, pi, int(x), ri, rid, tracer, out)
            except Exception:  # a failed replication is counted, not fatal
                out.failed.append(f"replication x={x} r={ri} raised:\n"
                                  + traceback.format_exc())
            rid += 1
    tracer.replication = None
    with tracer.span("harness.aggregate"):
        result = harness.ExperimentResult(spec=spec, rows=tuple(out.rows),
                                          aggregates=tuple(harness.aggregate(out.rows)))
    with tracer.span("harness.emit"):
        out.emitted = harness.emit_results(result, out_dir)
    return out


def _replicate(spec, pi: int, x: int, ri: int, rid: int, tracer, out: Replay) -> None:
    base = spec.base
    cfg = dataclasses.replace(base, **{spec.sweep_variable: x})

    def seed(stream):
        return harness.replication_seed(base.seed, pi, ri, stream)

    with tracer.span("radio.topology"):
        scenario = cfgmod.scenario_from_config(cfg, seed=seed(harness.STREAM_TOPOLOGY))
    with tracer.span("socialgraph.graph"):
        graph = cfgmod.social_graph_from_config(cfg, scenario,
                                                seed=seed(harness.STREAM_SOCIAL))
    with tracer.span("socialgraph.betweenness"):
        b = socialgraph.edge_betweenness(graph)
    with tracer.span("socialgraph.similarity"):
        s = socialgraph.similarity(graph, normalization=cfg.similarity_normalization)
    with tracer.span("socialgraph.distance"):
        xmat = socialgraph.social_distance(b, s, alpha=cfg.alpha, beta=cfg.beta)
    engine = cfgmod.engine_config_from_config(cfg, seed=seed(harness.STREAM_ENGINE))
    with tracer.span("matching.build"):
        problem = matching.build_problem(scenario, graph, xmat, engine)
    tracer.instrument(problem)
    # Brandes does one BFS per source, each touching both directions of every edge.
    out.edge_visits += graph.n_vertices * int(graph.adjacency.sum())

    for method in spec.methods:
        if method == harness.METHOD_BASELINE:
            with tracer.span("matching.report"):
                report = problem.report(problem.rssi_assignment)
            iters = 0
        else:
            with tracer.span("matching.anneal"):
                result = matching.anneal_on_problem(problem)
            assign = result.matching.assign
            # The stage span exists on every workload so that the stage's
            # cost reads as (near) zero where stabilize is off.
            with tracer.span("matching.stabilize"):
                if cfg.stabilize:
                    settled = matching.greedy_stabilize(problem, assign)
                    assign = settled.assign
                    out.stabilize_applied += settled.applied
            with tracer.span("matching.report"):
                report = problem.report(assign)
            iters = result.best_iteration
            out.anneal_iterations += result.iterations_run
            out.anneal_accepted += sum(row.accepted for row in result.trace)
            out.best_iterations.append(result.best_iteration)
            out.cells.append(Cell(rid, problem, assign, cfg.stabilize))
        out.rows.append(harness.ReplicationRow(
            x=x, method=method, replication=ri,
            avg_rate_bps=float(report.ue_rates.mean()),
            welfare=float(report.welfare),
            iterations=int(iters),
            unserved=len(report.unserved)))


def audit_cells(cells: list[Cell], tracer=NO_TRACE) -> list[int]:
    """Approvable swaps found in each cell's matching."""
    found = []
    for cell in cells:
        tracer.replication = cell.replication
        with tracer.span("matching.audit"):
            found.append(len(matching.audit_stability(cell.problem, cell.assign)))
    tracer.replication = None
    return found


def write_spans(path, groups: dict[str, list[Span]]) -> None:
    """One CSV row per span; `parent` indexes spans of the same group."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group,index,name,start_s,end_s,parent,replication\n")
        for group, spans in groups.items():
            for i, sp in enumerate(spans):
                rep = "" if sp.replication is None else sp.replication
                fh.write(f"{group},{i},{sp.name},{sp.start!r},{sp.end!r},"
                         f"{sp.parent},{rep}\n")


# --------------------------------------------------------------------------
# per-layer metrics from one traced pass
# --------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for sp, t in zip(spans, self_times(spans)):
        out[sp.name] = out.get(sp.name, 0.0) + t
    return out


def layer_metrics(tracer: Tracer, rep: Replay) -> dict[str, float]:
    """Per-layer figures of one traced replay and audit.  The cli, trace and
    welfare figures need the CLI sweep and are added by the caller."""
    spans = tracer.spans
    own = self_time_by_name(spans)
    evals = [sp for sp in spans if sp.name == "matching.evaluate"]
    under: dict[str, int] = {}
    for sp in evals:
        parent = spans[sp.parent].name if sp.parent >= 0 else ""
        under[parent] = under.get(parent, 0) + 1
    anneal_evals = under.get("matching.anneal", 0)
    eval_us = [(sp.end - sp.start) * 1e6 for sp in evals]
    emit_bytes = sum(os.path.getsize(p) for p in rep.emitted.values())
    return {
        "config.load_s": own.get("config.load", 0.0),
        "radio.topology_s": own.get("radio.topology", 0.0),
        "socialgraph.graph_s": own.get("socialgraph.graph", 0.0),
        "socialgraph.betweenness_s": own.get("socialgraph.betweenness", 0.0),
        "socialgraph.betweenness_edge_visits": float(rep.edge_visits),
        "socialgraph.similarity_s": own.get("socialgraph.similarity", 0.0),
        "socialgraph.distance_s": own.get("socialgraph.distance", 0.0),
        "matching.build_s": own.get("matching.build", 0.0),
        "matching.evaluate_calls": float(len(evals)),
        "matching.evaluate_s": own.get("matching.evaluate", 0.0),
        "matching.evaluate_us_p50": statistics.median(eval_us) if eval_us else 0.0,
        "matching.anneal_s": own.get("matching.anneal", 0.0),
        "matching.anneal_iterations": float(rep.anneal_iterations),
        "matching.anneal_evaluated_ratio": anneal_evals / max(rep.anneal_iterations, 1),
        "matching.anneal_accept_ratio": rep.anneal_accepted / max(anneal_evals, 1),
        "matching.best_iteration_mean": (statistics.mean(rep.best_iterations)
                                         if rep.best_iterations else 0.0),
        "matching.stabilize_s": own.get("matching.stabilize", 0.0),
        "matching.stabilize_applied": float(rep.stabilize_applied),
        "matching.stabilize_evaluate_calls": float(under.get("matching.stabilize", 0)),
        "matching.audit_s": own.get("matching.audit", 0.0),
        "matching.audit_evaluate_calls": float(under.get("matching.audit", 0)),
        "harness.emit_s": own.get("harness.emit", 0.0),
        "harness.emit_bytes": float(emit_bytes),
        "harness.self_s": (own.get("harness.replication", 0.0)
                           + own.get("harness.aggregate", 0.0)),
    }
