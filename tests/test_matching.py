"""Matching layer: utilities, baseline, feasibility, and serialization.

Every rate-bearing check here runs through the independent per-link oracle
in conftest.py (built on radio.link_rate) so the engine's vectorized
evaluator is always compared against a second, structurally different
computation of the same physics.
"""

import numpy as np
import pytest

from conftest import clustered_instance, oracle_evaluate, social_ring_graph
from socialcell import radio
from socialcell import socialgraph as sg
from socialcell.errors import ConfigError, InputError
from socialcell.matching import (SN_RELAY, SN_SCBS, Matching, ServingNode,
                                 SwapEngineConfig, assignment_from_rows,
                                 build_problem, load_matching_csv,
                                 matching_to_csv, max_rssi_baseline)


def three_case_instance():
    """Two cells, two overlap UEs, one D2D-only UE; relay A is forced.

    Cell A's only member is ue0 at the cell edge, so ue0 is elected relay A
    no matter how the importance scores land, and ue5 (13 m above it,
    covered by no SCBS) can only take D2D service through it.  Cell B holds
    the rest; which member it elects is irrelevant to these tests.
    """
    scbs_xy = np.array([[-30.0, 0.0], [30.0, 0.0]])
    ue_xy = np.array([
        [-30.0, 45.0],   # ue0: cell A's only member -> relay A
        [30.0, 40.0],    # ue1: cell B only
        [30.0, 18.0],    # ue2: cell B only, 22 m from ue1
        [20.0, -10.0],   # ue3: cell B only (50.99 m from scbs0)
        [5.0, 10.0],     # ue4: covered by both cells, nearer B
        [-30.0, 58.0],   # ue5: outside both cells, 13 m from ue0
        [2.0, 5.0],      # ue6: covered by both cells, nearer B
    ])
    scenario = radio.RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy, seed=3)
    edges = (
        ((sg.UE, 0), (sg.UE, 5)),
        ((sg.UE, 1), (sg.UE, 2)), ((sg.UE, 2), (sg.UE, 3)),
        ((sg.UE, 3), (sg.UE, 4)), ((sg.UE, 4), (sg.UE, 6)),
        ((sg.UE, 6), (sg.UE, 1)),
        ((sg.SCBS, 0), (sg.UE, 0)),
        ((sg.SCBS, 1), (sg.UE, 1)), ((sg.SCBS, 1), (sg.UE, 2)),
        ((sg.SCBS, 1), (sg.UE, 3)), ((sg.SCBS, 1), (sg.UE, 4)),
        ((sg.SCBS, 1), (sg.UE, 6)),
    )
    graph = sg.build_social_graph(sg.default_roster(2, 7),
                                  sg.ExplicitEdges(edges=edges))
    _, _, x = sg.social_pipeline(graph)
    problem = build_problem(scenario, graph, x, SwapEngineConfig(seed=3))
    return problem


# --------------------------------------------------------------------------
# problem construction
# --------------------------------------------------------------------------

def test_serving_nodes_are_scbs_then_relays():
    problem = three_case_instance()
    assert tuple(problem.relay_ues) == (0, 1)
    kinds = [sn.kind for sn in problem.serving_nodes]
    assert kinds == [SN_SCBS, SN_SCBS, SN_RELAY, SN_RELAY]
    assert problem.serving_nodes[2].node_id == 0
    assert problem.serving_nodes[2].cell_scbs == 0
    assert problem.serving_nodes[3].cell_scbs == 1


def test_relays_cannot_take_d2d_service():
    problem = three_case_instance()
    for p in problem.relay_ues:
        assert not problem.feasible_sn[p, problem.n_scbs:].any()


def test_rssi_cells_and_election():
    problem = three_case_instance()
    # ue4 and ue6 hear both SCBSs but sit nearer scbs1
    np.testing.assert_array_equal(problem.rssi_assignment,
                                  [0, 1, 1, 1, 1, -1, 1])
    assert sorted(problem.ranking.elected.items()) == [(0, 0), (1, 1)]


def test_d2d_feasibility_mask():
    problem = three_case_instance()
    sn_relay_a = problem.relay_sn_of[0]
    assert problem.feasible_sn[5, sn_relay_a]          # 13 m < 20 m
    assert not problem.feasible_sn[5, :2].any()        # no SCBS in range
    assert problem.servable[5]


def test_d2d_weight_definition_and_errors():
    base = three_case_instance()
    scen, graph, x = base.scenario, base.graph, base.x
    for eps in (0.0, 0.05):               # 0 selects 1 / d2d_radius
        problem = build_problem(scen, graph, x,
                                SwapEngineConfig(seed=3, d2d_weight_epsilon=eps))
        want_eps = eps or 1.0 / scen.d2d_radius_m
        for j, p in enumerate(problem.relay_ues):
            for m in range(problem.n_ues):
                d = float(np.linalg.norm(scen.ue_xy[p] - scen.ue_xy[m]))
                xval = float(x.values[graph.index(("ue", int(p))), graph.index(("ue", m))])
                assert problem.d2d_weight[j, m] == pytest.approx(want_eps * d * xval,
                                                                 abs=1e-12)
    with pytest.raises(ConfigError):
        SwapEngineConfig(d2d_weight_epsilon=-0.05)


def test_graph_must_cover_scenario_nodes():
    inst = clustered_instance(0, n_scbs=2, n_ues=4)
    small_graph = sg.build_social_graph(sg.default_roster(2, 3),
                                        sg.ExplicitEdges(edges=()))
    with pytest.raises(InputError):
        build_problem(inst.scenario, small_graph, inst.x)


def test_engine_config_validation():
    with pytest.raises(ConfigError):
        SwapEngineConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        SwapEngineConfig(schedule="cubic")
    with pytest.raises(ConfigError):
        SwapEngineConfig(move_mix=1.5)
    with pytest.raises(ConfigError):
        SwapEngineConfig(beta_start=-1.0)


# --------------------------------------------------------------------------
# evaluation vs the independent oracle
# --------------------------------------------------------------------------

def assert_matches_oracle(problem, assign):
    mine = problem.evaluate(assign)
    ref = oracle_evaluate(problem, assign)
    np.testing.assert_allclose(mine.rates, ref.rates, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(mine.utilities, ref.utilities, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(mine.sn_utilities, ref.sn_utilities,
                               rtol=1e-9, atol=1e-6)
    assert mine.welfare == pytest.approx(ref.welfare, rel=1e-9)


def test_three_case_utilities_match_oracle():
    problem = three_case_instance()
    assign = problem.initial_assignment()
    # the instance exercises all three utility cases at once
    assert assign[5] == problem.relay_sn_of[0]
    assert_matches_oracle(problem, assign)
    ev = problem.evaluate(assign)
    # relay case: downlink rate scaled by 1/x against its serving SCBS
    g, x = problem.graph, problem.x
    xv = float(x.values[g.index((sg.SCBS, 0)), g.index((sg.UE, 0))])
    assert ev.utilities[0] == pytest.approx(ev.rates[0] / max(xv, 0.01), rel=1e-12)
    assert ev.utilities[0] > ev.rates[0]
    # regular case: utility is the plain rate
    assert ev.utilities[2] == pytest.approx(ev.rates[2], rel=1e-12)
    # D2D case: half the min of backhaul and access, never above either
    assert ev.rates[5] <= ev.rates[0] / 2.0 + 1e-9
    assert ev.utilities[5] == pytest.approx(ev.rates[5], rel=1e-12)


def test_unserved_relay_starves_its_d2d_ue():
    problem = three_case_instance()
    assign = problem.initial_assignment()
    assign[0] = -1                       # relay loses its own downlink
    ev = problem.evaluate(assign)
    assert ev.rates[5] == 0.0
    assert_matches_oracle(problem, assign)


def test_evaluate_matches_oracle_on_random_states():
    rng = np.random.default_rng(2024)
    for seed in range(12):
        inst = clustered_instance(seed, n_scbs=2 + seed % 2, n_ues=10)
        problem = inst.problem
        assign = problem.initial_assignment()
        assert_matches_oracle(problem, assign)
        for _ in range(4):               # random feasible mutations
            counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
            m = int(rng.integers(problem.n_ues))
            targets = [k for k in np.flatnonzero(problem.feasible_sn[m])
                       if problem.move_ok(assign, counts, m, int(k))]
            if targets:
                assign[m] = targets[int(rng.integers(len(targets)))]
        assert_matches_oracle(problem, assign)


def test_evaluate_matches_oracle_without_d2d_interference():
    inst = clustered_instance(5, n_scbs=2, n_ues=10, d2d_interference=False)
    assert_matches_oracle(inst.problem, inst.problem.initial_assignment())


def test_evaluate_matches_oracle_with_subcarrier_wraparound():
    # more UEs per cell than subcarriers forces same-index reuse in-cell
    inst = clustered_instance(9, n_scbs=2, n_ues=12, subcarriers=4)
    problem = inst.problem
    assign = problem.initial_assignment()
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
    assert counts.max() > 4
    assert_matches_oracle(problem, assign)


def test_welfare_is_twice_the_ue_total():
    problem = three_case_instance()
    ev = problem.evaluate(problem.initial_assignment())
    assert ev.welfare == pytest.approx(2.0 * ev.utilities.sum(), rel=1e-12)
    assert ev.welfare == pytest.approx(ev.sn_utilities.sum() + ev.utilities.sum(),
                                       rel=1e-12)


def test_empty_assignment_has_zero_welfare():
    problem = three_case_instance()
    assign = np.full(problem.n_ues, -1, dtype=np.int64)
    ev = problem.evaluate(assign)
    assert ev.welfare == 0.0
    assert np.all(ev.rates == 0.0)


def test_report_lists_unserved_ues():
    problem = three_case_instance()
    report = problem.report(problem.rssi_assignment)
    assert report.unserved == (5,)


# --------------------------------------------------------------------------
# max-RSSI baseline
# --------------------------------------------------------------------------

def linear_scan_rssi(scenario):
    """Independent baseline oracle: per-UE scan over in-range SCBSs."""
    out = []
    for m in range(scenario.n_ues):
        best, best_p = -1, -1.0
        for i in range(scenario.n_scbs):
            d = float(np.linalg.norm(scenario.scbs_xy[i] - scenario.ue_xy[m]))
            if d > scenario.scbs_radius_m:
                continue
            p = radio.received_power_mw(("scbs", i), m, scenario)
            if p > best_p:
                best, best_p = i, p
        out.append(best)
    return np.array(out, dtype=np.int64)


def test_baseline_matches_linear_scan():
    for seed in (0, 1, 2, 3):
        scenario = radio.generate_topology(6, 40, rng_seed=seed)
        want = linear_scan_rssi(scenario)
        got = max_rssi_baseline(scenario)
        np.testing.assert_array_equal(got.assign, want)
        assert all(sn.kind == SN_SCBS for sn in got.serving_nodes)
        graph = social_ring_graph(scenario)
        _, _, x = sg.social_pipeline(graph)
        problem = build_problem(scenario, graph, x)
        np.testing.assert_array_equal(problem.rssi_assignment, want)


def test_baseline_tie_goes_to_lowest_id():
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 30.0], [0.0, -30.0]]),
                                   ue_xy=np.array([[0.0, 0.0]]))
    assert max_rssi_baseline(scenario).assign[0] == 0


def test_baseline_invariant_under_power_scaling():
    base = radio.generate_topology(5, 30, rng_seed=7)
    boosted = radio.generate_topology(5, 30, rng_seed=7, scbs_power_dbm=33.0)
    np.testing.assert_array_equal(max_rssi_baseline(base).assign,
                                  max_rssi_baseline(boosted).assign)


def test_baseline_leaves_far_ues_unserved():
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 0.0]]),
                                   ue_xy=np.array([[10.0, 0.0], [80.0, 0.0]]))
    np.testing.assert_array_equal(max_rssi_baseline(scenario).assign, [0, -1])


# --------------------------------------------------------------------------
# initial assignment and quotas
# --------------------------------------------------------------------------

def quota_instance():
    """One covered hub UE (the relay) with four D2D-only hangers-on."""
    scbs_xy = np.array([[0.0, 0.0]])
    ue_xy = np.array([[0.0, 45.0],
                      [0.0, 55.0], [0.0, 57.0], [0.0, 59.0], [0.0, 61.0]])
    scenario = radio.RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy, seed=1)
    edges = tuple([((sg.SCBS, 0), (sg.UE, 0))]
                  + [((sg.UE, 0), (sg.UE, m)) for m in range(1, 5)])
    graph = sg.build_social_graph(sg.default_roster(1, 5),
                                  sg.ExplicitEdges(edges=edges))
    _, _, x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, SwapEngineConfig(seed=1))


def test_initial_assignment_attaches_nearest_d2d_first():
    problem = quota_instance()
    assert tuple(problem.relay_ues) == (0,)
    assign = problem.initial_assignment()
    relay_sn = problem.relay_sn_of[0]
    # quota 3: the three closest hangers-on attach, the farthest misses out
    np.testing.assert_array_equal(assign, [0, relay_sn, relay_sn, relay_sn, -1])


def test_initial_assignment_respects_lower_quota():
    problem = quota_instance()
    problem.quota[problem.relay_sn_of[0]] = 1
    assign = problem.initial_assignment()
    assert (assign == problem.relay_sn_of[0]).sum() == 1
    assert assign[1] == problem.relay_sn_of[0]


def test_move_and_swap_feasibility_rules():
    problem = three_case_instance()
    assign = problem.initial_assignment()
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
    assert not problem.move_ok(assign, counts, 2, int(assign[2]))  # no-op move
    assert not problem.move_ok(assign, counts, 2, 0)               # out of range
    assert problem.move_ok(assign, counts, 4, 0)                   # overlap UE
    full = counts.copy()
    full[0] = problem.quota[0]
    assert not problem.move_ok(assign, full, 4, 0)                 # quota bound

    assert not problem.swap_ok(assign, 0, 2)     # ue0 cannot reach cell B
    assert not problem.swap_ok(assign, 4, 6)     # same serving node
    b = assign.copy()
    b[4] = 0
    assert problem.swap_ok(b, 4, 6)              # both cover both cells
    b[5] = -1
    assert not problem.swap_ok(b, 4, 5)          # unmatched partner


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_matching_csv_round_trip(tmp_path):
    problem = three_case_instance()
    assign = problem.initial_assignment()
    report = problem.report(assign)
    path = tmp_path / "matching.csv"
    matching_to_csv(problem.matching(assign), report, path,
                    meta={"config_sha": "abc123", "seed": "3"})
    meta, rows = load_matching_csv(path)
    assert meta == {"config_sha": "abc123", "seed": "3"}
    np.testing.assert_array_equal(assignment_from_rows(problem, rows), assign)


def test_matching_csv_marks_unserved(tmp_path):
    problem = three_case_instance()
    report = problem.report(problem.rssi_assignment)
    path = tmp_path / "matching.csv"
    matching_to_csv(problem.matching(problem.rssi_assignment), report, path)
    text = path.read_text()
    assert "5,-1,none,0.0,0.0" in text.replace("\r", "")


def test_assignment_from_rows_rejects_stale_rows():
    problem = three_case_instance()
    with pytest.raises(InputError, match="unknown scbs9"):
        assignment_from_rows(problem, [(0, 9, "scbs")])
    with pytest.raises(InputError, match="ue4 is not a relay"):
        assignment_from_rows(problem, [(0, 4, "relay")])
    with pytest.raises(InputError, match="unknown ue99"):
        assignment_from_rows(problem, [(99, 0, "scbs")])


def test_matching_type_validates_indices():
    nodes = (ServingNode(SN_SCBS, 0),)
    with pytest.raises(InputError):
        Matching(assign=np.array([3]), serving_nodes=nodes)
    m = Matching(assign=np.array([0, -1]), serving_nodes=nodes)
    assert m.serving(0) == nodes[0]
    assert m.serving(1) is None
