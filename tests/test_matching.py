"""Matching layer: utilities, baseline, feasibility, and serialization.

Every rate-bearing check here runs through the independent per-link oracle
in conftest.py (built on radio.link_rate) so the engine's vectorized
evaluator is always compared against a second, structurally different
computation of the same physics.  The batched evaluator and the block swap
scanner are also held bit for bit to their per-UE and per-swap loops,
`per_ue_evaluate` and `per_swap_scan`.
"""

import dataclasses
import gc
import weakref
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clustered_instance, oracle_evaluate, social_ring_graph
from socialcell import matching, radio
from socialcell import socialgraph as sg
from socialcell.config import ScenarioConfig, scenario_from_config
from socialcell.errors import ConfigError, InputError
from socialcell.matching import (SN_RELAY, SN_SCBS, Matching, StabilityViolation,
                                 _SCAN_BLOCK, _scan_order,
                                 _swap_masks, assignment_from_rows,
                                 audit_stability, build_problem,
                                 greedy_stabilize, load_matching_csv,
                                 matching_to_csv, max_rssi, serving_node)
from socialcell.radio import scbs_reception


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
    graph = sg.graph_from_edges(edges, 2, 7)
    x = sg.social_pipeline(graph)
    problem = build_problem(scenario, graph, x, ScenarioConfig(seed=3))
    return SimpleNamespace(problem=problem, x=x)


def move_ok(problem, assign, counts, m, k):
    """Oracle: can UE m move to node k under range/kind rules and quotas?"""
    return (k != assign[m] and bool(problem.feasible_sn[m, k])
            and counts[k] < problem.quota[k])


def swap_ok(problem, assign, m, n):
    """Oracle: can m and n trade serving nodes?  (Loads stay equal, so no quota.)"""
    km, kn = assign[m], assign[n]
    return (km >= 0 and kn >= 0 and km != kn
            and bool(problem.feasible_sn[m, kn] and problem.feasible_sn[n, km]))


# --------------------------------------------------------------------------
# problem construction
# --------------------------------------------------------------------------

def test_nodes_are_numbered_scbs_then_relays():
    problem = three_case_instance().problem
    assert tuple(problem.relay_ues) == (0, 1)
    names = [serving_node(k, problem.n_scbs, problem.relay_ues)
             for k in range(problem.n_sns)]
    assert names == [(SN_SCBS, 0), (SN_SCBS, 1), (SN_RELAY, 0), (SN_RELAY, 1)]
    np.testing.assert_array_equal(problem.rssi_assignment[problem.relay_ues], [0, 1])


def test_relays_cannot_take_d2d_service():
    problem = three_case_instance().problem
    for p in problem.relay_ues:
        assert not problem.feasible_sn[p, problem.n_scbs:].any()


def test_rssi_cells_and_election():
    problem = three_case_instance().problem
    # ue4 and ue6 hear both SCBSs but sit nearer scbs1
    np.testing.assert_array_equal(problem.rssi_assignment,
                                  [0, 1, 1, 1, 1, -1, 1])
    # each cell elects one relay, and a relay's cell is its own max-RSSI cell
    assert tuple(problem.relay_ues) == (0, 1)
    np.testing.assert_array_equal(problem.rssi_assignment[problem.relay_ues], [0, 1])


def test_d2d_feasibility_mask():
    problem = three_case_instance().problem
    sn_relay_a = problem.n_scbs            # node N + 0 is relay ue0
    assert problem.feasible_sn[5, sn_relay_a]          # 13 m < 20 m
    assert not problem.feasible_sn[5, :2].any()        # no SCBS in range
    assert problem.servable[5]


def test_start_state_prefers_the_socially_closer_relay():
    """ue2 sits outside both cells, 17.2 m from relay ue0 and 18.9 m from
    relay ue1, its only friend: link distance times social distance ranks
    ue1 first, so ue2 starts on ue1 though ue0 is nearer."""
    scenario = radio.RadioScenario(scbs_xy=np.array([[-15.0, 0.0], [15.0, 0.0]]),
                                   ue_xy=np.array([[-15.0, 45.0], [15.0, 45.0],
                                                   [-1.0, 55.0]]), seed=4)
    edges = (((sg.SCBS, 0), (sg.UE, 0)), ((sg.SCBS, 1), (sg.UE, 1)),
             ((sg.UE, 0), (sg.UE, 1)), ((sg.UE, 1), (sg.UE, 2)))
    graph = sg.graph_from_edges(edges, 2, 3)
    x = sg.social_pipeline(graph)
    problem = build_problem(scenario, graph, x, ScenarioConfig(seed=0))
    assert tuple(problem.relay_ues) == (0, 1)
    assert problem.feasible_sn[2].tolist() == [False, False, True, True]
    d = np.linalg.norm(scenario.ue_xy[:2] - scenario.ue_xy[2], axis=1)
    key = d * x[[2, 3], 4]                  # vertices ue0, ue1 against ue2
    assert d[0] < d[1] and key[1] < key[0]
    np.testing.assert_array_equal(problem.start_assignment, [0, 1, 3])


def test_graph_must_cover_scenario_nodes():
    inst = clustered_instance(0, n_scbs=2, n_ues=4)
    small_graph = sg.graph_from_edges((), 2, 3)
    with pytest.raises(InputError):
        build_problem(inst.scenario, small_graph, inst.x, ScenarioConfig(seed=0))
    # as many vertices as the scenario has nodes, but split 3 + 3, not 2 + 4
    shifted = sg.SocialGraph(n_scbs=3, adjacency=inst.graph.adjacency)
    with pytest.raises(InputError):
        build_problem(inst.scenario, shifted, inst.x, ScenarioConfig(seed=0))


PROBLEM_ARRAYS = ("feasible_sn", "servable", "quota", "is_relay", "relay_ues",
                  "sc_offset", "prx_scbs", "prx_d2d", "x_scbs_ue",
                  "rssi_assignment", "start_assignment")


def test_problem_arrays_are_read_only():
    problem = clustered_instance(23, n_scbs=2, n_ues=20, spread=70.0).problem
    assert problem.n_relays and (problem.start_assignment >= problem.n_scbs).any()
    for name in PROBLEM_ARRAYS:
        arr = getattr(problem, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]


def test_problem_keeps_neither_x_nor_the_graph():
    scenario = clustered_instance(23, n_scbs=2, n_ues=20, spread=70.0).scenario
    graph = social_ring_graph(scenario)
    x = sg.social_pipeline(graph)
    problem = build_problem(scenario, graph, x, ScenarioConfig(seed=0))
    refs = weakref.ref(graph), weakref.ref(x)
    del graph, x
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert problem.evaluate(problem.start_assignment).welfare > 0


ENGINE_BOUNDS = (
    ({"max_iterations": 0}, "max_iterations must be >= 1"),
    ({"beta_start": -1.0}, "beta_start and beta_end must be >= 0"),
    ({"beta_end": -1.0}, "beta_start and beta_end must be >= 0"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"stall_window": -1}, "stall_window must be >= 0"),
    ({"scbs_quota": -1}, "scbs_quota must be >= 0"),
    ({"d2d_quota": 0}, "d2d_quota must be >= 1"),
)


def test_engine_config_validation():
    for bad, message in ENGINE_BOUNDS:
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**bad)
        # replace() re-runs the checks on an instance that passed them
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(ScenarioConfig(), **bad)
    assert ScenarioConfig(scbs_quota=0, stall_window=0).scbs_quota == 0


def test_zero_scbs_quota_means_one_per_subcarrier():
    inst = clustered_instance(23, n_scbs=2, n_ues=20, spread=70.0)
    problem = build_problem(inst.scenario, inst.graph, inst.x,
                            ScenarioConfig(scbs_quota=0))
    assert problem.quota[:2].tolist() == [inst.scenario.config.subcarriers] * 2


# --------------------------------------------------------------------------
# evaluation vs the independent oracle
# --------------------------------------------------------------------------

def assert_matches_oracle(problem, assign, x):
    mine = problem.evaluate(assign)
    ref = oracle_evaluate(problem, assign, x)
    np.testing.assert_allclose(mine.ue_rates, ref.rates, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(mine.ue_utilities, ref.utilities, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(mine.sn_utilities, ref.sn_utilities,
                               rtol=1e-9, atol=1e-6)
    assert mine.welfare == pytest.approx(ref.welfare, rel=1e-9)


def test_three_case_utilities_match_oracle():
    inst = three_case_instance()
    problem, x = inst.problem, inst.x
    assign = problem.start_assignment
    # the instance exercises all three utility cases at once
    assert assign[5] == problem.n_scbs         # relay ue0
    assert_matches_oracle(problem, assign, x)
    ev = problem.evaluate(assign)
    # relay case: downlink rate scaled by 1/x against its serving SCBS
    xv = float(x[sg.vertex((sg.SCBS, 0), 2, 7), sg.vertex((sg.UE, 0), 2, 7)])
    assert ev.ue_utilities[0] == pytest.approx(ev.ue_rates[0] / max(xv, 0.01), rel=1e-12)
    assert ev.ue_utilities[0] > ev.ue_rates[0]
    # regular case: utility is the plain rate
    assert ev.ue_utilities[2] == pytest.approx(ev.ue_rates[2], rel=1e-12)
    # D2D case: half the min of backhaul and access, never above either
    assert ev.ue_rates[5] <= ev.ue_rates[0] / 2.0 + 1e-9
    assert ev.ue_utilities[5] == pytest.approx(ev.ue_rates[5], rel=1e-12)


def test_unserved_relay_starves_its_d2d_ue():
    inst = three_case_instance()
    problem = inst.problem
    assign = problem.start_assignment.copy()
    assign[0] = -1                       # relay loses its own downlink
    ev = problem.evaluate(assign)
    assert ev.ue_rates[5] == 0.0
    assert_matches_oracle(problem, assign, inst.x)


def test_evaluate_matches_oracle_on_random_states():
    rng = np.random.default_rng(2024)
    for seed in range(12):
        inst = clustered_instance(seed, n_scbs=2 + seed % 2, n_ues=10)
        problem = inst.problem
        assign = problem.start_assignment.copy()
        assert_matches_oracle(problem, assign, inst.x)
        for _ in range(4):               # random feasible mutations
            counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
            m = int(rng.integers(problem.n_ues))
            targets = [k for k in np.flatnonzero(problem.feasible_sn[m])
                       if move_ok(problem, assign, counts, m, int(k))]
            if targets:
                assign[m] = targets[int(rng.integers(len(targets)))]
        assert_matches_oracle(problem, assign, inst.x)


def test_evaluate_matches_oracle_without_d2d_interference():
    inst = clustered_instance(5, n_scbs=2, n_ues=10, d2d_interference=False)
    assert_matches_oracle(inst.problem, inst.problem.start_assignment, inst.x)


def test_evaluate_matches_oracle_with_subcarrier_wraparound():
    # more UEs per cell than subcarriers forces same-index reuse in-cell
    inst = clustered_instance(9, n_scbs=2, n_ues=12, subcarriers=4)
    problem = inst.problem
    assign = problem.start_assignment
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
    assert counts.max() > 4
    assert_matches_oracle(problem, assign, inst.x)


def test_welfare_is_twice_the_ue_total():
    problem = three_case_instance().problem
    ev = problem.evaluate(problem.start_assignment)
    assert ev.welfare == pytest.approx(2.0 * ev.ue_utilities.sum(), rel=1e-12)
    assert ev.welfare == pytest.approx(ev.sn_utilities.sum() + ev.ue_utilities.sum(),
                                       rel=1e-12)


def test_empty_assignment_has_zero_welfare():
    problem = three_case_instance().problem
    assign = np.full(problem.n_ues, -1, dtype=np.int64)
    ev = problem.evaluate(assign)
    assert ev.welfare == 0.0
    assert np.all(ev.ue_rates == 0.0)


def test_report_lists_unserved_ues():
    problem = three_case_instance().problem
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
            if d > scenario.config.scbs_radius_m:
                continue
            p = radio.received_power_mw(("scbs", i), m, scenario)
            if p > best_p:
                best, best_p = i, p
        out.append(best)
    return np.array(out, dtype=np.int64)


def test_baseline_matches_linear_scan():
    for seed in (0, 1, 2, 3):
        scenario = scenario_from_config(ScenarioConfig(n_scbs=6, n_ues=40), seed=seed)
        want = linear_scan_rssi(scenario)
        np.testing.assert_array_equal(max_rssi(*scbs_reception(scenario)), want)
        graph = social_ring_graph(scenario)
        x = sg.social_pipeline(graph)
        problem = build_problem(scenario, graph, x, ScenarioConfig(seed=0))
        np.testing.assert_array_equal(problem.rssi_assignment, want)


def test_baseline_tie_goes_to_lowest_id():
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 30.0], [0.0, -30.0]]),
                                   ue_xy=np.array([[0.0, 0.0]]))
    assert max_rssi(*scbs_reception(scenario))[0] == 0


def test_baseline_invariant_under_power_scaling():
    base = scenario_from_config(ScenarioConfig(n_scbs=5, n_ues=30), seed=7)
    boosted = scenario_from_config(ScenarioConfig(n_scbs=5, n_ues=30, scbs_power_dbm=33.0),
                                   seed=7)
    np.testing.assert_array_equal(max_rssi(*scbs_reception(base)),
                                  max_rssi(*scbs_reception(boosted)))


def test_baseline_leaves_far_ues_unserved():
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 0.0]]),
                                   ue_xy=np.array([[10.0, 0.0], [80.0, 0.0]]))
    np.testing.assert_array_equal(max_rssi(*scbs_reception(scenario)), [0, -1])


# --------------------------------------------------------------------------
# initial assignment and quotas
# --------------------------------------------------------------------------

def quota_instance(engine=ScenarioConfig(seed=1)):
    """One covered hub UE (the relay) with four D2D-only hangers-on."""
    scbs_xy = np.array([[0.0, 0.0]])
    ue_xy = np.array([[0.0, 45.0],
                      [0.0, 55.0], [0.0, 57.0], [0.0, 59.0], [0.0, 61.0]])
    scenario = radio.RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy, seed=1)
    edges = tuple([((sg.SCBS, 0), (sg.UE, 0))]
                  + [((sg.UE, 0), (sg.UE, m)) for m in range(1, 5)])
    graph = sg.graph_from_edges(edges, 1, 5)
    x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, engine)


def test_start_state_attaches_nearest_d2d_first():
    problem = quota_instance()
    assert tuple(problem.relay_ues) == (0,)
    relay_sn = problem.n_scbs                  # node N + 0 is relay ue0
    # quota 3: the three closest hangers-on attach, the farthest misses out
    np.testing.assert_array_equal(problem.start_assignment,
                                  [0, relay_sn, relay_sn, relay_sn, -1])


def test_start_state_respects_lower_quota():
    problem = quota_instance(ScenarioConfig(seed=1, d2d_quota=1))
    relay_sn = problem.n_scbs
    np.testing.assert_array_equal(problem.start_assignment, [0, relay_sn, -1, -1, -1])


def test_move_and_swap_feasibility_rules():
    problem = three_case_instance().problem
    assign = problem.start_assignment
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
    assert not move_ok(problem, assign, counts, 2, int(assign[2]))  # no-op move
    assert not move_ok(problem, assign, counts, 2, 0)               # out of range
    assert move_ok(problem, assign, counts, 4, 0)                   # overlap UE
    full = counts.copy()
    full[0] = problem.quota[0]
    assert not move_ok(problem, assign, full, 4, 0)                 # quota bound

    assert not swap_ok(problem, assign, 0, 2)     # ue0 cannot reach cell B
    assert not swap_ok(problem, assign, 4, 6)     # same serving node
    b = assign.copy()
    b[4] = 0
    assert swap_ok(problem, b, 4, 6)              # both cover both cells
    b[5] = -1
    assert not swap_ok(problem, b, 4, 5)          # unmatched partner


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_matching_csv_round_trip(tmp_path):
    problem = three_case_instance().problem
    assign = problem.start_assignment
    report = problem.report(assign)
    path = tmp_path / "matching.csv"
    matching_to_csv(problem.matching(assign), report, path,
                    meta={"config_sha": "abc123", "seed": "3"})
    meta, rows = load_matching_csv(path)
    assert meta == {"config_sha": "abc123", "seed": "3"}
    np.testing.assert_array_equal(assignment_from_rows(problem, rows), assign)


def test_matching_csv_marks_unserved(tmp_path):
    problem = three_case_instance().problem
    report = problem.report(problem.rssi_assignment)
    path = tmp_path / "matching.csv"
    matching_to_csv(problem.matching(problem.rssi_assignment), report, path)
    text = path.read_text()
    assert "5,-1,none,0.0,0.0" in text.replace("\r", "")


def test_assignment_from_rows_rejects_stale_rows():
    problem = three_case_instance().problem
    with pytest.raises(InputError, match="unknown scbs9"):
        assignment_from_rows(problem, [(0, 9, "scbs")])
    with pytest.raises(InputError, match="ue4 is not a relay"):
        assignment_from_rows(problem, [(0, 4, "relay")])
    with pytest.raises(InputError, match="unknown ue99"):
        assignment_from_rows(problem, [(99, 0, "scbs")])


def test_matching_type_validates_indices():
    relays = np.array([4])                     # one SCBS and the relay ue4
    with pytest.raises(InputError):
        Matching(assign=np.array([2]), n_scbs=1, relay_ues=relays)
    with pytest.raises(InputError):
        Matching(assign=np.array([-2, 0]), n_scbs=1, relay_ues=relays)
    m = Matching(assign=np.array([0, -1, 1]), n_scbs=1, relay_ues=relays)
    assert m.serving(0) == (SN_SCBS, 0)
    assert m.serving(1) is None
    assert m.serving(2) == (SN_RELAY, 4)


# --------------------------------------------------------------------------
# the batched evaluator and swap scanner vs their per-item loops
# --------------------------------------------------------------------------

def per_ue_evaluate(problem, assign) -> SimpleNamespace:
    """The evaluator as a per-UE loop: round-robin subcarriers one UE at a
    time, interference summed over (N, M) and (R, M) products on axis 0.

    Reference for `evaluate` and `_evaluate_rows`, which must equal it bit
    for bit, not merely closely: greedy_stabilize compares utilities with
    strict inequalities, so a one-ulp drift could flip an approval.
    """
    N, M, C = problem.n_scbs, problem.n_ues, problem.scenario.config.subcarriers
    assign = np.asarray(assign, dtype=np.int64)
    matched = assign >= 0
    counts = np.bincount(assign[matched], minlength=problem.n_sns)
    share = np.zeros(problem.n_sns)
    nz = counts > 0
    share[nz] = 1.0 / counts[nz]

    sc = np.zeros(M, dtype=np.int64)
    prev, rank = -2, 0
    for m in np.argsort(assign, kind="stable"):
        k = assign[m]
        if k < 0:
            continue
        if k != prev:
            rank, prev = 0, k
        sc[m] = (problem.sc_offset[k] + rank) % C
        rank += 1

    idx = np.flatnonzero(matched & (assign < N))
    jdx = np.flatnonzero(assign >= N)
    active_s = np.zeros((N, C), dtype=bool)
    active_s[assign[idx], sc[idx]] = True
    interference = (active_s[:, sc] * problem.prx_scbs).sum(axis=0)
    interference[idx] -= problem.prx_scbs[assign[idx], idx]
    if problem.n_relays and problem.scenario.config.d2d_interference:
        active_u = np.zeros((problem.n_relays, C), dtype=bool)
        active_u[assign[jdx] - N, sc[jdx]] = True
        interference += (active_u[:, sc] * problem.prx_d2d).sum(axis=0)
        interference[jdx] -= problem.prx_d2d[assign[jdx] - N, jdx]

    noise_hz = problem._noise_mw_hz * problem._bw
    rates = np.zeros(M)
    utilities = np.zeros(M)
    if len(idx):
        i_serv = assign[idx]
        sh = share[i_serv]
        sinr = problem.prx_scbs[i_serv, idx] / (noise_hz * sh + interference[idx])
        r = sh * problem._bw * np.log2(1.0 + sinr)
        rates[idx] = r
        xv = np.maximum(problem.x_scbs_ue[i_serv, idx], sg.X_FLOOR)
        utilities[idx] = np.where(problem.is_relay[idx], r / xv, r)
    if len(jdx):
        j_serv = assign[jdx] - N
        sh = share[assign[jdx]]
        sinr = problem.prx_d2d[j_serv, jdx] / (noise_hz * sh + interference[jdx])
        r_access = sh * problem._bw * np.log2(1.0 + sinr)
        r = np.minimum(rates[problem.relay_ues[j_serv]], r_access) / 2.0
        rates[jdx] = r
        utilities[jdx] = r

    sn_util = np.bincount(assign[matched], weights=utilities[matched],
                          minlength=problem.n_sns)
    return SimpleNamespace(utilities=utilities, rates=rates, sn_utilities=sn_util,
                           welfare=float(sn_util.sum() + utilities.sum()))


def per_swap_scan(problem, assign):
    """The swap scanner as a per-candidate loop over `per_ue_evaluate`.

    Yields (violation, post-swap evaluation, position) in the scanner's
    order, where position counts the feasible candidates judged since the
    scan started or the caller last applied a swap.
    """
    base = per_ue_evaluate(problem, assign)
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
    M = problem.n_ues
    pairs = ((m, n, None) for m in range(M) if assign[m] >= 0 for n in range(m + 1, M))
    moves = ((int(m), None, int(k)) for m in np.flatnonzero(problem.servable)
             for k in np.flatnonzero(problem.feasible_sn[m]))
    pos = -1
    for m, n, k in chain(pairs, moves):
        if not (move_ok(problem, assign, counts, m, k) if n is None
                else swap_ok(problem, assign, m, n)):
            continue
        pos += 1
        target = k if n is None else int(assign[n])
        swapped = assign.copy()
        swapped[m] = target
        if n is not None:
            swapped[n] = assign[m]
        after = per_ue_evaluate(problem, swapped)
        movers = (m,) if n is None else (m, n)
        nodes = {int(assign[m]), target} - {-1}
        befores = ([base.utilities[u] for u in movers]
                   + [base.sn_utilities[s] for s in nodes])
        afters = ([after.utilities[u] for u in movers]
                  + [after.sn_utilities[s] for s in nodes])
        if (any(a < b for a, b in zip(afters, befores))
                or not any(a > b for a, b in zip(afters, befores))):
            continue
        was = assign[m]
        yield StabilityViolation(m, n, target, after.welfare - base.welfare), after, pos
        if assign[m] != was:
            base = after
            counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
            pos = -1


def per_swap_stabilize(problem, assign):
    """greedy_stabilize over `per_swap_scan`: (assignment, welfares)."""
    assign = np.array(assign, dtype=np.int64)
    welfares = []
    changed = True
    while changed:
        changed = False
        for v, after, _ in per_swap_scan(problem, assign):
            if v.other_ue is None:
                assign[v.ue] = v.target_sn
            else:
                assign[v.ue], assign[v.other_ue] = assign[v.other_ue], assign[v.ue]
            welfares.append(after.welfare)
            changed = True
    return assign, welfares


def random_states(problem, rng, count, p_unserved=0.15):
    """`count` assignments putting each UE on a random feasible node or none."""
    states = np.full((count, problem.n_ues), -1, dtype=np.int64)
    for row in states:
        for m in np.flatnonzero(problem.servable):
            if rng.random() >= p_unserved:
                row[m] = rng.choice(np.flatnonzero(problem.feasible_sn[m]))
    return states


def kernel_rows(problem, A, cols=None):
    """The kernel over `problem`'s own tables, which every row reads in place."""
    return matching._evaluate_rows(problem._shape, problem._node_tables, A, cols)


def assert_rows_bit_identical(problem, states):
    block = kernel_rows(problem, states)
    for b, assign in enumerate(states):
        want = per_ue_evaluate(problem, assign)
        one = problem.evaluate(assign)
        for got in (one, SimpleNamespace(ue_utilities=block[0][b], ue_rates=block[1][b],
                                         sn_utilities=block[2][b], welfare=block[3][b])):
            assert np.array_equal(got.ue_utilities, want.utilities)
            assert np.array_equal(got.ue_rates, want.rates)
            assert np.array_equal(got.sn_utilities, want.sn_utilities)
            assert got.welfare == want.welfare


def zero_relay_problem():
    """Every UE outside the lone cell: no cell elects a relay."""
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 0.0]]),
                                   ue_xy=np.array([[80.0, 0.0], [0.0, 90.0], [-70.0, 5.0]]))
    graph = social_ring_graph(scenario)
    x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, ScenarioConfig(seed=0))


EVAL_CASES = {
    "clustered": lambda: clustered_instance(4, n_scbs=3, n_ues=30).problem,
    "no-d2d-interference": lambda: clustered_instance(5, n_scbs=2, n_ues=20,
                                                      d2d_interference=False).problem,
    "subcarrier-wraparound": lambda: clustered_instance(9, n_scbs=2, n_ues=24,
                                                        subcarriers=4).problem,
    "single-ue": lambda: clustered_instance(2, n_scbs=2, n_ues=1).problem,
    # 8 or more terms per interference sum, where pairwise summation would
    # differ from adding node by node
    "twelve-cells": lambda: clustered_instance(6, n_scbs=12, n_ues=60).problem,
    "three-case": lambda: three_case_instance().problem,
    "zero-relays": zero_relay_problem,
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_evaluate_bit_identical_to_per_ue_loop(case):
    problem = EVAL_CASES[case]()
    rng = np.random.default_rng(7)
    states = random_states(problem, rng, 40)
    states[0] = problem.start_assignment
    states[1] = -1
    # a relay loses its downlink while its D2D UEs stay attached
    d2d_rows = [b for b in range(2, len(states)) if (states[b] >= problem.n_scbs).any()]
    for b in d2d_rows[:6]:
        k = states[b][states[b] >= problem.n_scbs][0]
        states[b, problem.relay_ues[k - problem.n_scbs]] = -1
    assert d2d_rows or case in ("single-ue", "zero-relays")
    assert_rows_bit_identical(problem, states)
    assert_rows_bit_identical(problem, states[:1])
    assert_rows_bit_identical(problem, states[5:6])


def test_scan_masks_equal_swap_ok_and_move_ok():
    rng = np.random.default_rng(11)
    for seed, kw in ((0, {}), (1, {"scbs_quota": 2}), (2, {"d2d_quota": 1})):
        problem = clustered_instance(seed, n_scbs=3, n_ues=18,
                                     engine=ScenarioConfig(seed=seed, **kw)).problem
        states = random_states(problem, rng, 6, p_unserved=0.3)
        for assign in [problem.start_assignment, *states]:
            pairs, moves = _swap_masks(problem, assign)
            counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
            for m in range(problem.n_ues):
                for n in range(problem.n_ues):
                    assert pairs[m, n] == swap_ok(problem, assign, m, n)
                for k in range(problem.n_sns):
                    assert moves[m, k] == move_ok(problem, assign, counts, m, k)


STABILITY_SETTINGS = {
    "default": ({}, {}),
    "scbs-quota-3": ({"scbs_quota": 3}, {}),
    "no-d2d-interference": ({}, {"d2d_interference": False}),
    "subcarriers-4-d2d-quota-2": ({"d2d_quota": 2}, {"subcarriers": 4}),
}


@pytest.mark.parametrize("setting", sorted(STABILITY_SETTINGS))
def test_audit_and_stabilize_equal_per_swap_scan(setting):
    engine_kw, scenario_kw = STABILITY_SETTINGS[setting]
    found = applied = 0
    for seed in range(30):
        problem = clustered_instance(seed, n_scbs=2 + seed % 3, n_ues=20 + seed % 5,
                                     engine=ScenarioConfig(seed=seed, **engine_kw),
                                     **scenario_kw).problem
        rng = np.random.default_rng(seed)
        for start in (problem.start_assignment, random_states(problem, rng, 1)[0]):
            want = [v for v, _, _ in per_swap_scan(problem, start.copy())]
            assert audit_stability(problem, start) == want
            stab = greedy_stabilize(problem, start)
            want_assign, want_welfares = per_swap_stabilize(problem, start)
            np.testing.assert_array_equal(stab.assign, want_assign)
            assert stab.welfares == tuple(want_welfares)
            assert stab.applied == len(want_welfares)
            found += len(want)
            applied += stab.applied
    assert found > 20 and applied > 20          # the grid really exercises swaps


def overlap_problem(seed, n_ues=24):
    """Both cells cover every UE, so most pairs across the cells can swap."""
    rng = np.random.default_rng(seed)
    scenario = radio.RadioScenario(scbs_xy=np.array([[-30.0, 0.0], [30.0, 0.0]]),
                                   ue_xy=rng.uniform(-15.0, 15.0, size=(n_ues, 2)),
                                   seed=seed)
    graph = social_ring_graph(scenario)
    x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, ScenarioConfig(seed=seed))


# (seed, ue, target): move `ue` to `target` in the stabilized state of
# overlap_problem(seed); the approvals of the result sit at these positions
# in its list of feasible swaps.
BOUNDARY_CASES = {
    "first-at-0": (0, 1, 1, 0),
    "first-at-63": (27, 0, 2, 63),
    "first-at-64": (12, 10, 0, 64),
    "spans-blocks": (2, 5, 0, 5),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_scan_block_boundaries(case):
    seed, ue, target, first = BOUNDARY_CASES[case]
    assert _SCAN_BLOCK == 64
    problem = overlap_problem(seed)
    assign, _ = per_swap_stabilize(problem, problem.start_assignment)
    assert not list(per_swap_scan(problem, assign))
    assign[ue] = target
    want = list(per_swap_scan(problem, assign.copy()))
    positions = [pos for _, _, pos in want]
    assert positions[0] == first
    assert len(_scan_order(problem, assign)) > 2 * _SCAN_BLOCK
    if case == "spans-blocks":
        assert {p // _SCAN_BLOCK for p in positions} >= {0, 1}
    assert audit_stability(problem, assign) == [v for v, _, _ in want]
    stab = greedy_stabilize(problem, assign)
    want_assign, want_welfares = per_swap_stabilize(problem, assign)
    np.testing.assert_array_equal(stab.assign, want_assign)
    assert stab.welfares == tuple(want_welfares)


def test_block_size_changes_no_result(monkeypatch):
    # blocks of one swap, and of 5 swaps, which split the scans unevenly,
    # must leave the audit and the greedy pass as they are with 64
    seed, ue, target, _ = BOUNDARY_CASES["spans-blocks"]
    problem = overlap_problem(seed)
    assign, _ = per_swap_stabilize(problem, problem.start_assignment)
    assign[ue] = target
    audit = audit_stability(problem, assign)
    stab = greedy_stabilize(problem, assign)
    assert audit and stab.applied
    blocks = []
    judge = matching._judge

    def spy(problem, assign, base, m, n, k):
        blocks.append(len(m))
        return judge(problem, assign, base, m, n, k)

    monkeypatch.setattr(matching, "_judge", spy)
    for size in (1, 5):
        blocks.clear()
        monkeypatch.setattr(matching, "_SCAN_BLOCK", size)
        assert audit_stability(problem, assign) == audit
        one = greedy_stabilize(problem, assign)
        np.testing.assert_array_equal(one.assign, stab.assign)
        assert one.welfares == stab.welfares
        assert max(blocks) == size and len(blocks) > 2 * 64 // size
        if size > 1:
            assert min(blocks) < size       # a scan's last block is short


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), n_scbs=st.integers(1, 4), n_ues=st.integers(1, 24),
       rows=st.integers(1, 12), subcarriers=st.sampled_from([2, 4, 16]),
       d2d_interference=st.booleans())
def test_evaluate_rows_property(seed, n_scbs, n_ues, rows, subcarriers, d2d_interference):
    inst = clustered_instance(seed, n_scbs=n_scbs, n_ues=n_ues, subcarriers=subcarriers,
                              d2d_interference=d2d_interference)
    problem = inst.problem
    states = random_states(problem, np.random.default_rng(seed), rows)
    block = kernel_rows(problem, states)
    for b, assign in enumerate(states):
        one = problem.evaluate(assign)
        assert np.array_equal(block[0][b], one.ue_utilities)
        assert np.array_equal(block[1][b], one.ue_rates)
        assert np.array_equal(block[2][b], one.sn_utilities)
        assert block[3][b] == one.welfare
        assert_matches_oracle(problem, assign, inst.x)


def same_shape_problems(seed, count, **keys):
    """`count` problems of one kernel shape, from consecutive seeds."""
    groups = {}
    for s in range(seed, seed + 200):
        problem = clustered_instance(s, **keys).problem
        group = groups.setdefault(problem._shape, [])
        group.append(problem)
        if len(group) == count:
            return group
    raise AssertionError("no shape repeats")


def relayless_problem(seed, **keys):
    """A clustered instance whose SCBSs cover no UE, so no cell elects a
    relay and S = N."""
    return clustered_instance(seed, scbs_radius_m=1e-6, **keys).problem


def mixed_s_problems(seed, **keys):
    """A relayless problem, then problems from consecutive seeds until two
    more values of S turn up: problems that differ only in S."""
    problems = [relayless_problem(seed, **keys)]
    for s in range(seed, seed + 40):
        problem = clustered_instance(s, **keys).problem
        if problem.n_sns not in {p.n_sns for p in problems}:
            problems.append(problem)
        if len(problems) == 3:
            break
    assert len(problems) > 1
    return problems


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
# S = 4, 7 and 8: a row of S = 7 padded to 8 would be summed in another order
@example(seed=10, n_scbs=4, n_ues=24, rows=12, subcarriers=16, d2d_interference=True)
@given(seed=st.integers(0, 10_000), n_scbs=st.integers(1, 6), n_ues=st.integers(1, 24),
       rows=st.integers(3, 12), subcarriers=st.sampled_from([2, 4, 16]),
       d2d_interference=st.booleans())
def test_stacked_rows_equal_their_own_problem(seed, n_scbs, n_ues, rows, subcarriers,
                                              d2d_interference):
    """Rows of problems that differ in S, one of them without relays, in
    shuffled problem order, share one kernel call padded to the largest S,
    and each equals its own problem's `evaluate`."""
    problems = mixed_s_problems(seed, n_scbs=n_scbs, n_ues=n_ues, subcarriers=subcarriers,
                                d2d_interference=d2d_interference)
    rng = np.random.default_rng(seed)
    owners = rng.permutation(np.resize(np.arange(len(problems)), rows))
    row_problems = [problems[i] for i in owners]
    states = np.concatenate([random_states(p, rng, 1) for p in row_problems])
    block = matching._evaluate_rows(*matching._stack_tables(row_problems), states)
    for b, (problem, assign) in enumerate(zip(row_problems, states)):
        one = problem.evaluate(assign)
        S = problem.n_sns
        assert np.array_equal(block[0][b], one.ue_utilities)
        assert np.array_equal(block[1][b], one.ue_rates)
        assert np.array_equal(block[2][b][:S], one.sn_utilities)
        assert not block[2][b][S:].any()
        assert block[3][b] == one.welfare


def test_reports_equal_each_pair_alone_a_window_a_call(monkeypatch):
    """`reports` evaluates `_WINDOW` pairs a kernel call, problems of mixed S
    padded in one stack, and each report equals the pair's own."""
    problems = mixed_s_problems(10, n_scbs=4, n_ues=24, subcarriers=16)
    rng = np.random.default_rng(10)
    pairs = [(p, random_states(p, rng, 1)[0]) for p in problems * 3]
    want = [problem.report(assign) for problem, assign in pairs]
    calls = []
    evaluate_rows = matching._evaluate_rows

    def counting_rows(shape, tables, A, cols=None):
        calls.append(len(A))
        return evaluate_rows(shape, tables, A, cols)

    monkeypatch.setattr(matching, "_WINDOW", 4)
    monkeypatch.setattr(matching, "_evaluate_rows", counting_rows)
    got = list(matching.reports(iter(pairs)))
    assert calls == [4, 4, len(pairs) - 8]
    for (problem, _), report, one in zip(pairs, got, want):
        assert len(report.sn_utilities) == problem.n_sns
        for field in ("ue_utilities", "ue_rates", "sn_utilities"):
            assert np.array_equal(getattr(report, field), getattr(one, field))
        assert (report.welfare, report.unserved) == (one.welfare, one.unserved)


def test_a_stack_of_mixed_shapes_raises():
    problems = [clustered_instance(s, n_scbs=3, n_ues=6).problem for s in range(40)]
    by_s = {p.n_sns: p for p in problems}
    assert len(by_s) > 1
    shape, _ = matching._stack_tables(list(by_s.values()))    # mixed S share a stack
    assert shape[-1] == max(by_s)
    keys = {"n_scbs": 2, "n_ues": 8}
    same = same_shape_problems(0, 2, **keys)
    for other in ({"n_scbs": 3}, {"n_ues": 9}, {"subcarriers": 4},
                  {"d2d_interference": False}, {"system_bandwidth_hz": 1e7},
                  {"noise_psd_dbm_hz": -170.0}):
        odd = clustered_instance(0, **{**keys, **other}).problem
        with pytest.raises(ValueError, match="mixes"):
            matching._stack_tables(same + [odd])
        with pytest.raises(ValueError, match="mixes"):
            matching.anneal_problems(same + [odd])


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    """Each record that holds arrays compares and hashes without raising:
    by identity, so two built apart from the same inputs differ."""
    def records():
        inst = clustered_instance(3)
        problem, start = inst.problem, inst.problem.start_assignment
        return [problem.evaluate(start), problem.matching(start), inst.scenario,
                matching.anneal_on_problem(problem), greedy_stabilize(problem, start),
                inst.graph]

    for one, other in zip(records(), records(), strict=True):
        assert type(one) is type(other)
        assert one == one and one != other
        assert hash(one) == hash(one) and isinstance(hash(other), int)


# --------------------------------------------------------------------------
# the judge's touched columns against the full kernel
# --------------------------------------------------------------------------

def subset_calls(problem, assign):
    """Audit `assign` in blocks of the usual size, then one swap a block,
    and return every subset kernel call the judge made: (swapped states,
    columns, result)."""
    calls = []
    inner = matching._evaluate_rows

    def spy(shape, tables, A, cols=None):
        out = inner(shape, tables, A, cols)
        if cols is not None:
            calls.append((A.copy(), cols, out))
        return out

    # a context rather than the fixture, since hypothesis runs many examples
    # in one test call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_evaluate_rows", spy)
        audit_stability(problem, assign)
        patch.setattr(matching, "_SCAN_BLOCK", 1)
        audit_stability(problem, assign)
    return calls


def emptied_states(problem, assign):
    """States whose first feasible move has one or two touched columns: a
    servable UE m made unserved, with its first feasible SCBS k emptied,
    then with one other UE that k may serve put back on it."""
    N = problem.n_scbs
    candidates = np.flatnonzero(problem.feasible_sn[:, :N].any(axis=1))
    if not len(candidates):
        return []
    m = candidates[0]
    k = np.flatnonzero(problem.feasible_sn[m, :N])[0]
    lone = np.where(assign == k, -1, assign)
    lone[m] = -1
    states = [lone]
    others = [u for u in np.flatnonzero(problem.feasible_sn[:, k]) if u != m]
    if others:
        pair = lone.copy()
        pair[others[0]] = k
        states.append(pair)
    return states


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
# a row of one touched column among 8 SCBSs, whose interference sum a
# (B, S+1, 1) gather would add pairwise rather than node by node
@example(seed=1, n_scbs=8, n_ues=24, subcarriers=2, d2d_interference=True, quotas=(0, 3))
@given(seed=st.integers(0, 10_000), n_scbs=st.integers(1, 10), n_ues=st.integers(1, 24),
       subcarriers=st.sampled_from([2, 4, 16]), d2d_interference=st.booleans(),
       quotas=st.sampled_from([(0, 3), (2, 1), (3, 2)]))
def test_touched_columns_equal_the_full_kernel(seed, n_scbs, n_ues, subcarriers,
                                               d2d_interference, quotas):
    """At each swap's touched columns (the members, after the swap, of the
    nodes its movers leave and join, and the relay UE of a touched relay
    node), the judge's subset evaluation equals the full kernel's bit for
    bit: utilities and rates there, and the sums of the touched nodes."""
    engine = ScenarioConfig(seed=seed, scbs_quota=quotas[0], d2d_quota=quotas[1])
    problem = clustered_instance(seed, n_scbs=n_scbs, n_ues=n_ues, subcarriers=subcarriers,
                                 d2d_interference=d2d_interference, engine=engine).problem
    N = problem.n_scbs
    start = random_states(problem, np.random.default_rng(seed), 1)[0]
    widths = set()
    for assign in [start, *emptied_states(problem, start)]:
        for A, cols, (utilities, rates, sn_util, _) in subset_calls(problem, assign):
            full = kernel_rows(problem, A)
            assert cols.shape[1] >= min(2, problem.n_ues)
            for b, swapped in enumerate(A):
                moved = np.flatnonzero(swapped != assign)
                nodes = {int(k) for k in (*assign[moved], *swapped[moved]) if k >= 0}
                touched = set(np.flatnonzero(np.isin(swapped, list(nodes))))
                touched |= {int(problem.relay_ues[k - N]) for k in nodes if k >= N}
                widths.add(len(touched))
                at = [int(np.flatnonzero(cols[b] == c)[0]) for c in sorted(touched)]
                assert np.array_equal(utilities[b, at], full[0][b, sorted(touched)])
                assert np.array_equal(rates[b, at], full[1][b, sorted(touched)])
                assert np.array_equal(sn_util[b, list(nodes)], full[2][b, list(nodes)])
    if len(emptied_states(problem, start)) == 2:
        assert {1, 2} <= widths
