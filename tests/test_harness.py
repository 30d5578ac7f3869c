"""Monte Carlo sweep harness: seeding, aggregation, parallelism, emission."""

import dataclasses
import hashlib
import json
import statistics
import weakref
from pathlib import Path

import numpy as np
import pytest

from socialcell import harness, matching, socialgraph
from socialcell.config import (METHOD_NAMES, ScenarioConfig, engine_config_from_config,
                               scenario_from_config, social_graph_from_config)
from socialcell.errors import ConfigError, SocialCellError
from socialcell.harness import (METHOD_BASELINE, METHOD_SOCIAL,
                                STREAM_ENGINE, STREAM_SOCIAL, STREAM_TOPOLOGY,
                                ExperimentSpec, aggregate, build_replications,
                                emit_results, replication_seed, run_experiment,
                                sweep_csv_name)
from socialcell.matching import anneal_on_problem, build_problem, greedy_stabilize
from socialcell.socialgraph import social_pipeline

SMALL_CFG = ScenarioConfig(n_scbs=2, n_ues=6, seed=9, macro_radius_m=80.0,
                           max_iterations=120, stall_window=0,
                           sweep_variable="n_ues", sweep_values=(4, 6),
                           replications=3)


# --------------------------------------------------------------------------
# seed derivation
# --------------------------------------------------------------------------

def test_replication_seeds_are_distinct_and_stable():
    seeds = {}
    for point in range(3):
        for rep in range(3):
            for stream in (STREAM_TOPOLOGY, STREAM_SOCIAL, STREAM_ENGINE):
                seeds[(point, rep, stream)] = replication_seed(1, point, rep, stream)
    assert len(set(seeds.values())) == 27
    for (point, rep, stream), value in seeds.items():
        assert replication_seed(1, point, rep, stream) == value


def test_base_seed_changes_every_stream():
    a = [replication_seed(1, p, r, s)
         for p in range(2) for r in range(2) for s in range(3)]
    b = [replication_seed(2, p, r, s)
         for p in range(2) for r in range(2) for s in range(3)]
    assert not set(a) & set(b)


# --------------------------------------------------------------------------
# experiment spec validation
# --------------------------------------------------------------------------

def test_spec_validation_rejects_bad_fields():
    base = ScenarioConfig()
    good = dict(base=base, sweep_variable="n_scbs", sweep_values=(4, 8),
                replications=2, methods=(METHOD_SOCIAL, METHOD_BASELINE))
    ExperimentSpec(**good)
    for bad in (dict(good, sweep_variable="n_noise"),
                dict(good, sweep_values=()),
                dict(good, sweep_values=(0, 4)),
                dict(good, replications=0),
                dict(good, methods=()),
                dict(good, methods=("social-aware", "round-robin")),
                dict(good, workers=0)):
        with pytest.raises(ConfigError):
            ExperimentSpec(**bad)


def test_the_method_table_names_exactly_the_config_methods():
    # the config decides which names are valid, the table what each one runs
    assert tuple(harness.METHODS) == METHOD_NAMES


def test_spec_from_config_requires_a_sweep_variable():
    with pytest.raises(ConfigError):
        ExperimentSpec.from_config(ScenarioConfig())
    spec = ExperimentSpec.from_config(SMALL_CFG)
    assert spec.sweep_variable == "n_ues"
    assert spec.sweep_values == (4, 6)
    assert spec.replications == 3
    assert spec.base_seed == 9


# --------------------------------------------------------------------------
# running and aggregating
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_result():
    return run_experiment(ExperimentSpec.from_config(SMALL_CFG))


def test_rows_cover_the_grid_in_deterministic_order(small_result):
    spec = small_result.spec
    expected = [(x, rep, method)
                for x in spec.sweep_values
                for rep in range(spec.replications)
                for method in spec.methods]
    got = [(r.x, r.replication, r.method) for r in small_result.rows]
    assert got == expected


def test_baseline_rows_report_zero_iterations(small_result):
    for row in small_result.rows:
        if row.method == METHOD_BASELINE:
            assert row.iterations == 0
        assert 0 <= row.unserved <= row.x
        assert row.avg_rate_bps >= 0.0
        assert row.welfare >= 0.0


def test_aggregates_recompute_from_rows(small_result):
    rows = small_result.rows
    base_mean = {}
    for agg in small_result.aggregates:
        vals = [r for r in rows if (r.x, r.method) == (agg.x, agg.method)]
        rates = [r.avg_rate_bps for r in vals]
        welfs = [r.welfare for r in vals]
        assert agg.n == len(vals) == small_result.spec.replications
        assert agg.mean_rate == pytest.approx(statistics.fmean(rates), rel=1e-12)
        assert agg.mean_welfare == pytest.approx(statistics.fmean(welfs), rel=1e-12)
        assert agg.std_rate == pytest.approx(statistics.stdev(rates), rel=1e-9)
        assert agg.std_welfare == pytest.approx(statistics.stdev(welfs), rel=1e-9)
        assert agg.mean_iters == pytest.approx(
            statistics.fmean([r.iterations for r in vals]), rel=1e-12)
        if agg.method == METHOD_BASELINE:
            base_mean[agg.x] = agg.mean_rate
    for agg in small_result.aggregates:
        if agg.method == METHOD_BASELINE:
            assert agg.gain_pct is None
        else:
            expect = 100.0 * (agg.mean_rate - base_mean[agg.x]) / base_mean[agg.x]
            assert agg.gain_pct == pytest.approx(expect, rel=1e-12)


def test_single_replication_reports_zero_std():
    cfg = dataclasses.replace(SMALL_CFG, replications=1, sweep_values=(4,))
    result = run_experiment(ExperimentSpec.from_config(cfg))
    for agg in result.aggregates:
        assert agg.n == 1
        assert agg.std_rate == 0.0
        assert agg.std_welfare == 0.0


def manual_problem(cfg, point_index, rep):
    """The problem of one cell, re-derived through the public pipeline one
    graph at a time; `cfg` holds the point's value of the swept variable."""
    def seed(stream):
        return replication_seed(cfg.seed, point_index, rep, stream)

    scenario = scenario_from_config(cfg, seed=seed(STREAM_TOPOLOGY))
    graph = social_graph_from_config(cfg, scenario, seed=seed(STREAM_SOCIAL))
    xmat = social_pipeline(graph, alpha=cfg.alpha, beta=cfg.beta,
                           normalization=cfg.similarity_normalization)
    engine = engine_config_from_config(cfg, seed=seed(STREAM_ENGINE))
    return build_problem(scenario, graph, xmat, engine)


def assert_row_equals_report(row, report):
    assert row.avg_rate_bps == float(report.ue_rates.mean())
    assert row.welfare == report.welfare
    assert row.unserved == len(report.unserved)


def test_replication_row_matches_a_manual_rebuild(small_result):
    """Re-derive one baseline cell end to end through the public pipeline."""
    cfg, x, rep = SMALL_CFG, 6, 1
    point_index = SMALL_CFG.sweep_values.index(x)
    problem = manual_problem(dataclasses.replace(cfg, n_ues=x), point_index, rep)
    report = problem.report(problem.rssi_assignment)

    row = next(r for r in small_result.rows
               if (r.x, r.replication, r.method) == (x, rep, METHOD_BASELINE))
    assert_row_equals_report(row, report)


def test_stabilized_rows_match_a_manual_rebuild():
    """Every row of a stabilized point whose problems differ in S, so that
    their reports share a padded stack, equals its cell rebuilt alone."""
    cfg = dataclasses.replace(SMALL_CFG, stabilize=True, sweep_values=(6,))
    result = run_experiment(ExperimentSpec.from_config(cfg))
    sizes = set()
    for rep in range(cfg.replications):
        problem = manual_problem(dataclasses.replace(cfg, n_ues=6), 0, rep)
        sizes.add(problem.n_sns)
        search = anneal_on_problem(problem)
        social, baseline = (next(r for r in result.rows if (r.replication, r.method)
                                 == (rep, method))
                            for method in (METHOD_SOCIAL, METHOD_BASELINE))
        assert_row_equals_report(social, problem.report(
            greedy_stabilize(problem, search.matching.assign).assign))
        assert social.iterations == search.best_iteration
        assert_row_equals_report(baseline, problem.report(problem.rssi_assignment))
    assert len(sizes) > 1


def test_a_point_groups_its_graphs_for_betweenness(monkeypatch):
    """The social layer runs a few graphs of a point in each Brandes pass
    (all the cells' graphs, each once), and the rows equal those of a run
    that searches one graph a pass."""
    per_pass = []
    dependencies = socialgraph._block_dependencies

    def spy(graph_of, *args):
        per_pass.append(len(np.unique(graph_of)))
        return dependencies(graph_of, *args)

    monkeypatch.setattr(socialgraph, "_block_dependencies", spy)
    cfg = dataclasses.replace(SMALL_CFG, n_ues=20, sweep_values=(20,), replications=6)
    result = run_experiment(ExperimentSpec.from_config(cfg))
    assert sum(per_pass) == 6 and max(per_pass) > 1
    per_pass.clear()
    monkeypatch.setattr(socialgraph, "_GROUP_BUDGET", 0)      # one graph a pass
    assert run_experiment(ExperimentSpec.from_config(cfg)).rows == result.rows
    assert per_pass == [1] * 6


def test_no_x_outlives_its_problems_build(monkeypatch):
    """Each X is dropped once its problem is built: when the next X is
    made, the one before it is dead, and none is left once the point is."""
    refs, pipelines = [], harness.social_pipelines

    def spy(graphs, **keys):
        def seen(x):
            assert [r() is None for r in refs] == [True] * len(refs)
            refs.append(weakref.ref(x))
            return x
        return map(seen, pipelines(graphs, **keys))

    monkeypatch.setattr(harness, "social_pipelines", spy)
    cfg = dataclasses.replace(SMALL_CFG, n_ues=20)
    built = harness.build_replications(cfg, 0, range(4))
    assert len(built) == len(refs) == 4
    assert [r() is None for r in refs] == [True] * 4


def test_an_empty_run_builds_nothing():
    assert harness.build_replications(SMALL_CFG, 0, []) == []


def test_rerun_is_identical(small_result):
    again = run_experiment(ExperimentSpec.from_config(SMALL_CFG))
    assert again.rows == small_result.rows
    assert again.aggregates == small_result.aggregates


def test_parallel_run_matches_sequential(small_result):
    cfg = dataclasses.replace(SMALL_CFG, workers=2)
    parallel = run_experiment(ExperimentSpec.from_config(cfg))
    assert parallel.rows == small_result.rows
    assert parallel.aggregates == small_result.aggregates


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_SOCIAL])
def test_a_single_method_sweep_gives_that_methods_rows(small_result, method, workers):
    cfg = dataclasses.replace(SMALL_CFG, methods=(method,), workers=workers)
    alone = run_experiment(ExperimentSpec.from_config(cfg))
    want = tuple(row for row in small_result.rows if row.method == method)
    assert len(want) == len(SMALL_CFG.sweep_values) * SMALL_CFG.replications
    assert alone.rows == want


def test_stabilized_run_completes():
    cfg = dataclasses.replace(SMALL_CFG, stabilize=True, sweep_values=(5,),
                              replications=1)
    result = run_experiment(ExperimentSpec.from_config(cfg))
    social = [r for r in result.rows if r.method == METHOD_SOCIAL]
    assert len(social) == 1
    assert social[0].welfare >= 0.0


def test_a_sweep_builds_no_trace_rows(monkeypatch):
    calls = []
    trace_rows = matching._trace_rows

    def spy(*args):
        calls.append(args)
        return trace_rows(*args)

    monkeypatch.setattr(matching, "_trace_rows", spy)
    run_experiment(ExperimentSpec.from_config(SMALL_CFG))
    assert calls == []
    # the spy sees the rows a reader of `trace` asks for
    [problem] = build_replications(SMALL_CFG, 0, [0])
    result = anneal_on_problem(problem)
    assert len(result.trace) == result.iterations_run
    assert len(calls) == 1


#: Desk-sweep's shape (60 UEs over a 500 m disk, the default search), at
#: two points of three replications.
DESK_CFG = ScenarioConfig(n_ues=60, seed=1, sweep_variable="n_scbs", sweep_values=(4, 8),
                          replications=3)


def test_a_sweep_finishes_no_settled_walk(monkeypatch):
    calls = []
    lone_walk = matching.anneal_on_problem

    def spy(problem):
        calls.append(problem)
        return lone_walk(problem)

    monkeypatch.setattr(matching, "anneal_on_problem", spy)
    run_experiment(ExperimentSpec.from_config(DESK_CFG))
    assert calls == []
    # every search of the first point ended at its bound, and a reader of
    # a result's trace runs its walk again, once
    cfg = dataclasses.replace(DESK_CFG, n_scbs=4)
    problems = build_replications(cfg, 0, range(3))
    assert all(problem.servable.any() for problem in problems)
    results = matching.anneal_problems(problems)
    assert calls == []
    result = results[0]
    assert len(result.trace) == result.iterations_run > result.best_iteration
    assert calls == [problems[0]]


def test_aggregate_on_plain_row_lists(small_result):
    # aggregate() is usable on any row subset, not just full results
    x = SMALL_CFG.sweep_values[0]
    sub = [r for r in small_result.rows if r.x == x]
    aggs = aggregate(sub)
    assert {a.method for a in aggs} == set(SMALL_CFG.methods)
    assert all(a.x == x for a in aggs)


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def test_sweep_csv_name_tracks_the_variable():
    assert sweep_csv_name("n_scbs") == "sweep_N.csv"
    assert sweep_csv_name("n_ues") == "sweep_M.csv"


def test_emitted_files_are_byte_deterministic(small_result, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = emit_results(small_result, d1)
    p2 = emit_results(run_experiment(ExperimentSpec.from_config(SMALL_CFG)), d2)
    assert set(p1) == {"aggregates", "replications", "summary"}
    assert p1["aggregates"].endswith("sweep_M.csv")
    for key in ("aggregates", "replications"):
        b1 = Path(p1[key]).read_bytes()
        b2 = Path(p2[key]).read_bytes()
        assert b1 == b2

    s1 = json.loads(Path(p1["summary"]).read_text())
    s2 = json.loads(Path(p2["summary"]).read_text())
    assert s1.pop("generated_at") != ""
    assert s2.pop("generated_at") != ""
    assert s1 == s2


@pytest.mark.parametrize("table, column", [("rows", "welfare"),
                                           ("aggregates", "std_rate")])
def test_emit_refuses_a_non_finite_number(small_result, tmp_path, table, column):
    # one NaN anywhere stops the emitter before it writes any file
    records = list(getattr(small_result, table))
    records[1] = dataclasses.replace(records[1], **{column: float("nan")})
    bad = dataclasses.replace(small_result, **{table: tuple(records)})
    with pytest.raises(SocialCellError, match=f"non-finite {column} = nan"):
        emit_results(bad, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_summary_json_carries_the_full_config(small_result, tmp_path):
    paths = emit_results(small_result, tmp_path / "out")
    summary = json.loads(Path(paths["summary"]).read_text())
    assert summary["config"]["n_scbs"] == SMALL_CFG.n_scbs
    assert summary["config"]["seed"] == SMALL_CFG.seed
    assert summary["sweep_variable"] == "n_ues"
    assert summary["sweep_values"] == [4, 6]
    assert "SeedSequence" in summary["seed_derivation"]
    assert len(summary["rows"]) == len(small_result.rows)
    assert len(summary["points"]) == len(small_result.aggregates)


def test_the_base_seed_is_the_config_seed(small_result, tmp_path):
    # the spec holds no second copy of the seed that could disagree with it
    with pytest.raises(TypeError):
        dataclasses.replace(small_result.spec, base_seed=5)
    summary = json.loads(Path(emit_results(small_result, tmp_path)["summary"]).read_text())
    assert summary["base_seed"] == summary["config"]["seed"] == SMALL_CFG.seed
    # the seed's one bound is in ScenarioConfig; SeedSequence refuses the rest
    with pytest.raises(ValueError, match="non-negative"):
        replication_seed(-1, 0, 0, 0)


def test_emitted_csv_parses_back_to_the_rows(small_result, tmp_path):
    paths = emit_results(small_result, tmp_path / "out")
    lines = Path(paths["replications"]).read_text().strip().splitlines()
    assert lines[0] == "x,method,replication,avg_rate_bps,welfare,iterations,unserved"
    assert len(lines) == len(small_result.rows) + 1
    first = lines[1].split(",")
    row = small_result.rows[0]
    assert int(first[0]) == row.x
    assert first[1] == row.method
    assert float(first[3]) == row.avg_rate_bps  # repr round-trips exactly


# --------------------------------------------------------------------------
# pinned outputs
# --------------------------------------------------------------------------

#: Two small sweeps and the sha256 of the CSVs they emit: one desk-shaped
#: (N swept at M = 60), one dense-shaped with stabilize on.
PINNED_SWEEPS = [
    pytest.param(
        ScenarioConfig(sweep_variable="n_scbs", sweep_values=(4, 16), n_ues=60,
                       replications=4),
        {"sweep_N.csv": "dcb19c33c74392f78779b8f1f5deed6653bb038a498f4deab127b637edaaca8f",
         "replications.csv": "ba2a64c1c293de71f8809ae2f232bdc781fe276c3971cf7c15cb393f2c1ecfcb"},
        id="desk"),
    pytest.param(
        ScenarioConfig(n_scbs=8, macro_radius_m=100.0, sweep_variable="n_ues",
                       sweep_values=(40,), replications=2, stabilize=True),
        {"sweep_M.csv": "0bf32431db923f4909de2539b6b0c0ce420e47162274cf159597210d15d177d2",
         "replications.csv": "08dabe7fd39001a0546317b74c1990f8d02becbbe5df4e293076dfd56ff0c02b"},
        id="dense-stabilize"),
]


@pytest.mark.parametrize("cfg, digests", PINNED_SWEEPS)
def test_sweep_outputs_match_pinned_digests(cfg, digests, tmp_path):
    emit_results(run_experiment(ExperimentSpec.from_config(cfg)), tmp_path)
    for name, want in digests.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, (
            f"{name} changed (sha256 {got}).  Sweep outputs are pinned: a change "
            "that alters them must name the change in CHANGES.md and update the pin.")
