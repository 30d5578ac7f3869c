"""Seeded Monte Carlo sweeps comparing social-aware matching with max-RSSI.

Every (sweep point, replication) cell derives its own seeds from the base
seed through numpy's SeedSequence, so single replications can be re-run in
isolation and parallel execution cannot change any number.  Aggregation is
plain mean / sample standard deviation per point and method, plus the rate
gain of each method over the max-RSSI rows.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import (ScenarioConfig, config_as_dict, engine_config_from_config,
                     scenario_from_config, social_graph_from_config)
from .errors import ConfigError
from .matching import (AnnealResult, AssociationProblem, anneal_on_problem,
                       build_problem, greedy_stabilize)
from .radio import RadioScenario
from .socialgraph import social_pipeline

METHOD_SOCIAL = "social-aware"
METHOD_BASELINE = "max-rssi"
_KNOWN_METHODS = (METHOD_SOCIAL, METHOD_BASELINE)

#: Human-readable statement of the seed derivation, echoed into summaries.
SEED_DERIVATION = ("numpy SeedSequence([base_seed, point_index, replication_index, "
                   "stream]).generate_state(1, uint64); stream 0 = topology, "
                   "1 = social graph, 2 = swap engine")

STREAM_TOPOLOGY = 0
STREAM_SOCIAL = 1
STREAM_ENGINE = 2


def replication_seed(base_seed: int, point_index: int, replication: int,
                     stream: int) -> int:
    """Deterministic per-replication seed for one of the three streams."""
    if base_seed < 0:
        raise ConfigError(f"seed must be non-negative, got {base_seed}")
    ss = np.random.SeedSequence([base_seed, point_index, replication, stream])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep over one deployment variable, replicated and seeded."""

    base: ScenarioConfig
    sweep_variable: str
    sweep_values: tuple[int, ...]
    replications: int
    methods: tuple[str, ...]
    base_seed: int
    workers: int = 1

    def __post_init__(self):
        if self.sweep_variable not in ("n_scbs", "n_ues"):
            raise ConfigError(
                f"sweep_variable must be n_scbs or n_ues, got {self.sweep_variable!r}")
        if not self.sweep_values:
            raise ConfigError("sweep_values must not be empty")
        if any(v < 1 for v in self.sweep_values):
            raise ConfigError("sweep values must be >= 1")
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ConfigError(f"sweep_values repeats a value: {self.sweep_values}")
        if self.base_seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.base_seed}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        for m in self.methods:
            if m not in _KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {_KNOWN_METHODS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "ExperimentSpec":
        if not cfg.sweep_variable:
            raise ConfigError("config has no sweep_variable; nothing to sweep")
        return cls(base=cfg, sweep_variable=cfg.sweep_variable,
                   sweep_values=tuple(cfg.sweep_values),
                   replications=cfg.replications, methods=tuple(cfg.methods),
                   base_seed=cfg.seed, workers=cfg.workers)


@dataclass(frozen=True)
class ReplicationRow:
    """Metrics of one method on one replication of one sweep point.

    avg_rate_bps averages the achieved rate over every UE in the scenario,
    unserved UEs counting as zero.  iterations is the search iteration at
    which the best welfare was first reached (0 for the baseline).
    """

    x: int
    method: str
    replication: int
    avg_rate_bps: float
    welfare: float
    iterations: int
    unserved: int


@dataclass(frozen=True)
class PointAggregate:
    x: int
    method: str
    n: int
    mean_rate: float
    std_rate: float
    mean_welfare: float
    std_welfare: float
    mean_iters: float
    gain_pct: float | None


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    rows: tuple[ReplicationRow, ...]
    aggregates: tuple[PointAggregate, ...]


def build_replication(cfg: ScenarioConfig, point_index: int,
                      replication: int) -> tuple[RadioScenario, AssociationProblem]:
    """Scenario and association problem of one (sweep point, replication) cell.

    `cfg` already holds the point's value of the swept variable.  Topology,
    social graph and engine each draw from their own stream of cfg.seed.
    """
    def seed(stream: int) -> int:
        return replication_seed(cfg.seed, point_index, replication, stream)

    scenario = scenario_from_config(cfg, seed=seed(STREAM_TOPOLOGY))
    graph = social_graph_from_config(cfg, scenario, seed=seed(STREAM_SOCIAL))
    xmat = social_pipeline(graph, alpha=cfg.alpha, beta=cfg.beta,
                           normalization=cfg.similarity_normalization)
    engine = engine_config_from_config(cfg, seed=seed(STREAM_ENGINE))
    return scenario, build_problem(scenario, graph, xmat, engine)


def social_aware_assignment(problem: AssociationProblem,
                            stabilize: bool) -> tuple[AnnealResult, np.ndarray]:
    """Anneal, then apply the greedy stable-swap pass when `stabilize` is set.

    Returns the search result and the final assignment.
    """
    result = anneal_on_problem(problem)
    assign = result.matching.assign
    if stabilize:
        assign = greedy_stabilize(problem, assign).assign
    return result, assign


def _replication_task(args) -> list[ReplicationRow]:
    base, sweep_variable, x, point_index, replication, methods = args
    cfg = dataclasses.replace(base, **{sweep_variable: int(x)})
    _, problem = build_replication(cfg, point_index, replication)

    rows = []
    for method in methods:
        if method == METHOD_BASELINE:
            report = problem.report(problem.rssi_assignment)
            iters = 0
        else:
            result, assign = social_aware_assignment(problem, cfg.stabilize)
            report = problem.report(assign)
            iters = result.best_iteration
        rows.append(ReplicationRow(
            x=int(x), method=method, replication=replication,
            avg_rate_bps=float(report.ue_rates.mean()),
            welfare=float(report.welfare),
            iterations=int(iters),
            unserved=len(report.unserved)))
    return rows


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (point, replication) cell, in parallel when asked.

    Results are ordered by (point, replication, method) regardless of the
    execution schedule, so parallel and sequential runs aggregate to the
    same bytes.
    """
    tasks = [(spec.base, spec.sweep_variable, x, pi, ri, spec.methods)
             for pi, x in enumerate(spec.sweep_values)
             for ri in range(spec.replications)]
    if spec.workers > 1:
        # imported here: it costs about a tenth of `import socialcell`
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            chunks = list(pool.map(_replication_task, tasks))
    else:
        chunks = [_replication_task(t) for t in tasks]
    rows = tuple(row for chunk in chunks for row in chunk)
    return ExperimentResult(spec=spec, rows=rows, aggregates=tuple(aggregate(rows)))


def aggregate(rows) -> list[PointAggregate]:
    """Mean / sample-std per (point, method), plus rate gain over max-RSSI."""
    groups: dict[tuple[int, str], list[ReplicationRow]] = {}
    for row in rows:
        groups.setdefault((row.x, row.method), []).append(row)

    def stats(values):
        arr = np.array(values, dtype=float)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        return float(arr.mean()), std

    baseline_rate = {x: stats([r.avg_rate_bps for r in sub])[0]
                     for (x, method), sub in groups.items() if method == METHOD_BASELINE}

    out = []
    for (x, method), sub in groups.items():
        mean_rate, std_rate = stats([r.avg_rate_bps for r in sub])
        mean_w, std_w = stats([r.welfare for r in sub])
        mean_it = float(np.mean([r.iterations for r in sub]))
        gain = None
        if method != METHOD_BASELINE and baseline_rate.get(x, 0.0) > 0.0:
            gain = 100.0 * (mean_rate - baseline_rate[x]) / baseline_rate[x]
        out.append(PointAggregate(x=x, method=method, n=len(sub),
                                  mean_rate=mean_rate, std_rate=std_rate,
                                  mean_welfare=mean_w, std_welfare=std_w,
                                  mean_iters=mean_it, gain_pct=gain))
    return out


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def sweep_csv_name(sweep_variable: str) -> str:
    return "sweep_N.csv" if sweep_variable == "n_scbs" else "sweep_M.csv"


def emit_results(result: ExperimentResult, out_dir) -> dict[str, str]:
    """Write the aggregate CSV, the per-replication CSV and a JSON summary.

    CSV content is a pure function of the experiment spec (no timestamps), so repeat
    runs produce byte-identical files; the only volatile field is the
    `generated_at` key of the JSON summary.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    agg_path = os.path.join(out_dir, sweep_csv_name(result.spec.sweep_variable))
    with open(agg_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,method,mean_rate,std_rate,mean_welfare,std_welfare,"
                 "mean_iters,gain_pct\n")
        for a in result.aggregates:
            gain = "" if a.gain_pct is None else repr(a.gain_pct)
            fh.write(f"{a.x},{a.method},{a.mean_rate!r},{a.std_rate!r},"
                     f"{a.mean_welfare!r},{a.std_welfare!r},{a.mean_iters!r},{gain}\n")
    paths["aggregates"] = agg_path

    rep_path = os.path.join(out_dir, "replications.csv")
    with open(rep_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,method,replication,avg_rate_bps,welfare,iterations,unserved\n")
        for r in result.rows:
            fh.write(f"{r.x},{r.method},{r.replication},{r.avg_rate_bps!r},"
                     f"{r.welfare!r},{r.iterations},{r.unserved}\n")
    paths["replications"] = rep_path

    summary = {
        "config": config_as_dict(result.spec.base),
        "sweep_variable": result.spec.sweep_variable,
        "sweep_values": list(result.spec.sweep_values),
        "replications": result.spec.replications,
        "methods": list(result.spec.methods),
        "base_seed": result.spec.base_seed,
        "seed_derivation": SEED_DERIVATION,
        "points": [dataclasses.asdict(a) for a in result.aggregates],
        "rows": [dataclasses.asdict(r) for r in result.rows],
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    sum_path = os.path.join(out_dir, "summary.json")
    with open(sum_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    paths["summary"] = sum_path
    return paths
