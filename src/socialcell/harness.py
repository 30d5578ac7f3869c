"""Seeded Monte Carlo sweeps comparing social-aware matching with max-RSSI.

There is one path from a cell to its matchings.  A point's stages pass
plain lists: `build_replications` takes the point's replications and
returns their problems in the same order, and `METHODS` maps each method
name to the function that takes those problems and returns their
matchings in the same order.  `point_cells` builds a point, runs each
configured method and evaluates every (replication, method) cell in one
`reports` pass.  A sweep maps it over its points; `cli run` is its cell
(0, 0).

Every (sweep point, replication) cell derives its own seeds from the base
seed through numpy's SeedSequence, so single replications can be re-run in
isolation and parallel execution cannot change any number.  A point's
stream seeds, and the subcarrier offset of every node of each of its
topologies, are computed in one bulk pass each (`socialcell.seeds`), bit
for bit equal to numpy's own.  Aggregation is plain mean / sample standard
deviation per point and method, plus the rate gain of each method over the
max-RSSI rows.
"""

from __future__ import annotations

import dataclasses
import datetime
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import (METHOD_BASELINE, METHOD_SOCIAL, ScenarioConfig, config_as_dict,
                     engine_config_from_config, scenario_from_config,
                     social_graph_from_config)
from .errors import ConfigError, SocialCellError
from .matching import (AssociationProblem, anneal_problems, build_problem,
                       greedy_stabilize, reports)
from .radio import scbs_reception, subcarrier_offsets
from .socialgraph import social_pipelines

#: Human-readable statement of the seed derivation, echoed into summaries.
SEED_DERIVATION = ("numpy SeedSequence([base_seed, point_index, replication_index, "
                   "stream]).generate_state(1, uint64); stream 0 = topology, "
                   "1 = social graph, 2 = swap engine")

STREAM_TOPOLOGY = 0
STREAM_SOCIAL = 1
STREAM_ENGINE = 2
_STREAMS = 3


def replication_seed(base_seed: int, point_index: int, replication: int,
                     stream: int) -> int:
    """Deterministic per-replication seed for one of the three streams: the
    one-item case of `replication_seeds`, from numpy's own SeedSequence."""
    return int(np.random.SeedSequence([base_seed, point_index, replication, stream])
               .generate_state(1, np.uint64)[0])


def replication_seeds(base_seed: int, point_index: int,
                      replications: Sequence[int]) -> np.ndarray:
    """The seeds of all three streams of each replication of one point, in
    one bulk pass: a (len(replications), 3) uint64 array, indexed by
    replication then stream."""
    from .seeds import generate_states
    reps = np.repeat(np.asarray(replications, dtype=np.int64), _STREAMS)
    streams = np.tile(np.arange(_STREAMS), len(replications))
    return generate_states([base_seed, point_index, reps, streams],
                           1, np.uint64).reshape(-1, _STREAMS)


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep over one deployment variable, replicated and seeded.

    The sweep fields are written into `base`, which checks them as it checks
    every key, so `base` is the config the sweep runs.
    """

    base: ScenarioConfig
    sweep_variable: str
    sweep_values: tuple[int, ...]
    replications: int
    methods: tuple[str, ...]
    workers: int = 1

    def __post_init__(self):
        if not self.sweep_variable:
            raise ConfigError("config has no sweep_variable; nothing to sweep")
        object.__setattr__(self, "base", dataclasses.replace(
            self.base, sweep_variable=self.sweep_variable, sweep_values=self.sweep_values,
            replications=self.replications, methods=self.methods, workers=self.workers))

    @property
    def base_seed(self) -> int:
        """The seed every replication's streams derive from: `base.seed`."""
        return self.base.seed

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "ExperimentSpec":
        return cls(base=cfg, sweep_variable=cfg.sweep_variable,
                   sweep_values=cfg.sweep_values, replications=cfg.replications,
                   methods=cfg.methods, workers=cfg.workers)


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


def build_replications(cfg: ScenarioConfig, point_index: int, replications: Sequence[int]
                       ) -> list[AssociationProblem]:
    """The association problem of each (sweep point, replication) cell of
    one point, in the order of `replications`; each keeps its drop as
    `problem.scenario`.

    `cfg` already holds the point's value of the swept variable.  Topology,
    social graph and engine each draw from their own stream of cfg.seed.
    The point is built in plain stages.  All the cells' stream seeds come
    first, in one bulk pass (`replication_seeds`), and so do the subcarrier
    offsets of every SCBS and UE of every cell's topology, which depend on
    the topology seed alone (`radio.subcarrier_offsets`).  Then come the
    scenarios, each scenario's SCBS reception (computed once, for its graph
    and its problem) and the social graphs.  Their X come from one
    `social_pipelines` stream, which lays out the Brandes passes the graphs
    share; each graph's X equals the X it gets alone, so each problem
    equals the one built alone.  Each X is taken as its problem is built
    and dropped once it is.
    """
    stream_seeds = replication_seeds(cfg.seed, point_index, replications)
    offsets = subcarrier_offsets(stream_seeds[:, STREAM_TOPOLOGY], cfg.n_scbs, cfg.n_ues,
                                 cfg.subcarriers)
    stream_seeds = stream_seeds.tolist()
    scenarios = [scenario_from_config(cfg, seed=seeds[STREAM_TOPOLOGY])
                 for seeds in stream_seeds]
    receptions = [scbs_reception(scenario) for scenario in scenarios]
    graphs = [social_graph_from_config(cfg, scenario, seed=seeds[STREAM_SOCIAL],
                                       reception=reception)
              for seeds, scenario, reception in zip(stream_seeds, scenarios, receptions)]
    xs = social_pipelines(graphs, alpha=cfg.alpha, beta=cfg.beta,
                          normalization=cfg.similarity_normalization)

    def cell(scenario, graph, xmat, reception, offset, seeds):
        engine = engine_config_from_config(cfg, seed=seeds[STREAM_ENGINE])
        return build_problem(scenario, graph, xmat, engine, reception=reception,
                             offsets=offset)

    # map: a comprehension's loop variable would keep one X alive into the next
    return list(map(cell, scenarios, graphs, xs, receptions, offsets, stream_seeds))


def _social_aware(problems: Sequence[AssociationProblem], cfg: ScenarioConfig) -> list:
    """The searches side by side (`anneal_problems`), each matching settled
    by `greedy_stabilize` when cfg.stabilize is set."""
    return [(greedy_stabilize(problem, result.matching.assign).assign if cfg.stabilize
             else result.matching.assign, result.best_iteration, result)
            for problem, result in zip(problems, anneal_problems(problems))]


#: The matchings of a point's problems under each of `config.METHOD_NAMES`, as
#: `point_cells` runs them: (assignment, iterations to the best welfare,
#: search result or None) of each problem, in the order of the problems.
METHODS = {METHOD_SOCIAL: _social_aware,
           METHOD_BASELINE: lambda problems, cfg: [(p.rssi_assignment, 0, None)
                                                   for p in problems]}


def point_cells(cfg: ScenarioConfig, point_index: int,
                replications: Sequence[int]) -> list[tuple]:
    """The cells of a run of replications of one sweep point, ordered by
    (replication, method): (replication, method, problem, assignment,
    iterations to the best welfare, search result or None, report) each.

    Its problems are built by `build_replications`, each method of
    cfg.methods finds the matchings of all of them (`METHODS`, so the
    anneal's chains share kernel calls), and one `reports` pass evaluates
    every cell's (problem, assignment) pair, each report equal to that of
    its pair alone.
    """
    problems = build_replications(cfg, point_index, replications)
    found = {method: METHODS[method](problems, cfg) for method in cfg.methods}
    cells = [(replication, method, problem, *found[method][i])
             for i, (replication, problem) in enumerate(zip(replications, problems))
             for method in cfg.methods]
    return [(*cell, report) for cell, report in zip(cells, reports(c[2:4] for c in cells))]


def _point_task(args) -> list[ReplicationRow]:
    """Rows of a run of replications of one sweep point: its `point_cells`."""
    base, x, point_index, replications = args
    cfg = dataclasses.replace(base, **{base.sweep_variable: int(x)})
    return [ReplicationRow(x=int(x), method=method, replication=replication,
                           avg_rate_bps=float(report.ue_rates.mean()),
                           welfare=float(report.welfare), iterations=int(iterations),
                           unserved=len(report.unserved))
            for replication, method, _, _, iterations, _, report
            in point_cells(cfg, point_index, replications)]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (point, replication) cell, in parallel when asked.

    Each task is one run of a point's replications: the whole point with
    one worker, or one of `workers` contiguous runs of it, so that a sweep
    of one point still spreads over the workers.  Results are ordered by
    (point, replication, method) regardless of the execution schedule, so
    parallel and sequential runs aggregate to the same bytes.
    """
    R, W = spec.replications, spec.workers
    runs = [range(R * c // W, R * (c + 1) // W) for c in range(W)]
    tasks = [(spec.base, x, pi, run) for pi, x in enumerate(spec.sweep_values)
             for run in runs if run]
    if W > 1:
        # imported here: it costs about a tenth of `import socialcell`
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=W) as pool:
            chunks = list(pool.map(_point_task, tasks))
    else:
        chunks = [_point_task(t) for t in tasks]
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


def check_finite(fields: Mapping[str, object], where: str) -> None:
    """Raise SocialCellError naming the field if a float, a tuple or an array
    in `fields` holds a NaN or an infinity; other values are skipped.  Both
    commands check every number they would write with it before any file."""
    for name, value in fields.items():
        if isinstance(value, (float, tuple, np.ndarray)):
            values = np.ravel(value)
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise SocialCellError(f"non-finite {name} = {float(bad[0])!r} at {where}; "
                                      "no result written")


def emit_results(result: ExperimentResult, out_dir) -> dict[str, str]:
    """Write the aggregate CSV, the per-replication CSV and a JSON summary.

    CSV content is a pure function of the experiment spec (no timestamps), so repeat
    runs produce byte-identical files; the only volatile field is the
    `generated_at` key of the JSON summary.  A NaN or infinite number in a
    row or an aggregate raises SocialCellError, naming its column, before
    any file is written.
    """
    for record in (*result.rows, *result.aggregates):
        check_finite(dataclasses.asdict(record), f"x = {record.x}, method {record.method}")
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
    import json
    sum_path = os.path.join(out_dir, "summary.json")
    with open(sum_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    paths["summary"] = sum_path
    return paths
