"""Annealed swap search: schedule, trace integrity, and swap stability.

The anneal's memo of evaluated states and its bulk random draws are held to
oracles: `per_proposal_anneal`, the loop that evaluates every proposal
afresh and draws from `np.random.default_rng`, and numpy's generator itself.
"""

import gc
import hashlib
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (clustered_instance, exhaustive_best_welfare, social_ring_graph,
                      state_count)
from socialcell import harness, matching, radio
from socialcell import socialgraph as sg
from socialcell.config import ScenarioConfig
from socialcell.matching import (
    MOVE_SINGLE,
    MOVE_SWAP,
    _RAW_BLOCK,
    _WELFARE_FLOOR,
    TraceRow,
    _accept_prob,
    _beta_at,
    _Draws,
    _judge,
    _swap_masks,
    anneal_on_problem,
    anneal_problems,
    audit_stability,
    build_problem,
    greedy_stabilize,
    trace_to_csv,
)


# --------------------------------------------------------------------------
# temperature schedule and acceptance probability
# --------------------------------------------------------------------------

def test_linear_schedule_hits_endpoints_and_midpoint():
    cfg = ScenarioConfig(beta_start=1.0, beta_end=50.0)
    assert _beta_at(cfg, 0, 100) == pytest.approx(1.0)
    assert _beta_at(cfg, 99, 100) == pytest.approx(50.0)
    assert _beta_at(cfg, 33, 100) == pytest.approx(1.0 + 49.0 * (33.0 / 99.0))


def test_single_iteration_schedule_uses_start_value():
    cfg = ScenarioConfig(beta_start=3.0, beta_end=50.0)
    assert _beta_at(cfg, 0, 1) == pytest.approx(3.0)


def test_acceptance_probability_sigmoid_shape():
    assert _accept_prob(10.0, 0.0, 100.0, 1e-12) == pytest.approx(0.5)
    up = _accept_prob(10.0, 5.0, 100.0, 1e-12)
    down = _accept_prob(10.0, -5.0, 100.0, 1e-12)
    assert up > 0.5 > down
    assert up + down == pytest.approx(1.0)


def test_acceptance_probability_is_clipped_and_finite():
    assert _accept_prob(50.0, 1e300, 1.0, 1e-12) == pytest.approx(1.0)
    assert _accept_prob(50.0, -1e300, 1.0, 1e-12) < 1e-300


def test_acceptance_probability_floor_guards_zero_welfare():
    # at W == 0 the delta is normalized by the floor instead
    import math
    p = _accept_prob(1.0, 1e-12, 0.0, 1e-12)
    assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))


# --------------------------------------------------------------------------
# engineered stability fixtures
# --------------------------------------------------------------------------

def crossed_pair():
    """Two singleton cells whose UEs start attached to the *far* SCBS.

    Swapping them moves each UE closer, so every touched player gains: the
    canonical approved swap.  The reverse direction makes everyone worse.
    """
    scbs_xy = np.array([[-25.0, 0.0], [25.0, 0.0]])
    ue_xy = np.array([[15.0, 0.0], [-15.0, 0.0]])
    scenario = radio.RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy, seed=11)
    edges = (((sg.SCBS, 0), (sg.UE, 0)), ((sg.SCBS, 0), (sg.UE, 1)),
             ((sg.SCBS, 1), (sg.UE, 0)), ((sg.SCBS, 1), (sg.UE, 1)),
             ((sg.UE, 0), (sg.UE, 1)))
    graph = sg.graph_from_edges(edges, 2, 2)
    x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, ScenarioConfig(seed=11))


CROSSED = np.array([0, 1])
UNCROSSED = np.array([1, 0])


def twin_pair():
    """Mirror-symmetric instance where one swap changes nothing at all.

    ue0 and ue1 sit at the same point, equidistant from both SCBSs, and
    are socially isolated so neither is elected.  Scenario seed 20 gives
    both SCBSs the same subcarrier offset, so swapping the twins between
    the two (equally loaded) SCBSs reproduces every rate bit-for-bit.
    """
    scbs_xy = np.array([[-25.0, 0.0], [25.0, 0.0]])
    ue_xy = np.array([
        [0.0, 10.0],     # ue0: twin, hears both SCBSs equally
        [0.0, 10.0],     # ue1: its exact copy
        [-25.0, 10.0],   # ue2: cell A anchor, elected relay A
        [25.0, 10.0],    # ue3: cell B anchor, elected relay B
    ])
    scenario = radio.RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy, seed=20)
    offsets = radio.subcarrier_offsets([scenario.seed], 2, 4, scenario.config.subcarriers)[0]
    assert offsets[0] == offsets[1]
    edges = (((sg.SCBS, 0), (sg.UE, 2)),)
    graph = sg.graph_from_edges(edges, 2, 4)
    x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, ScenarioConfig(seed=20))


def judge_pair_swap(problem, assign, m, n):
    """The scanner's verdict on a block of one in which m and n trade, and
    the welfare delta of the swapped state."""
    approved, _ = _judge(problem, assign, problem.evaluate(assign),
                         np.array([m]), np.array([n]), np.array([assign[n]]))
    swapped = assign.copy()
    swapped[[m, n]] = assign[[n, m]]
    return (bool(approved[0]),
            problem.evaluate(swapped).welfare - problem.evaluate(assign).welfare)


def test_crossed_pair_swap_is_approved():
    approved, delta = judge_pair_swap(crossed_pair(), CROSSED, 0, 1)
    assert approved
    assert delta > 0


def test_uncrossing_back_makes_someone_worse():
    approved, delta = judge_pair_swap(crossed_pair(), UNCROSSED, 0, 1)
    assert not approved
    assert delta < 0


def test_swap_rejection_reasons():
    problem = crossed_pair()
    # a swap with an unmatched partner is not even feasible
    half = np.array([0, -1])
    assert not _swap_masks(problem, half)[0][0, 1]
    # a single move onto the current serving node is a no-op
    assert not _swap_masks(problem, CROSSED)[1][0, 0]


def test_exact_mirror_swap_helps_nobody():
    problem = twin_pair()
    assert tuple(problem.relay_ues) == (2, 3)
    approved, delta = judge_pair_swap(problem, np.array([0, 1, 0, 1]), 0, 1)
    assert not approved
    assert delta == 0.0


def test_audit_finds_exactly_the_crossed_swap():
    problem = crossed_pair()
    found = audit_stability(problem, CROSSED)
    assert len(found) == 1
    v = found[0]
    assert (v.ue, v.other_ue, v.target_sn) == (0, 1, 1)
    assert v.welfare_delta > 0
    assert audit_stability(problem, UNCROSSED) == []


def test_greedy_stabilize_fixes_the_crossed_pair():
    problem = crossed_pair()
    res = greedy_stabilize(problem, CROSSED)
    np.testing.assert_array_equal(res.assign, UNCROSSED)
    assert res.applied == 1
    assert len(res.welfares) == 1
    assert audit_stability(problem, res.assign) == []


def test_greedy_stabilize_swap_cap_raises():
    # the crossed pair settles in exactly one swap, which a cap of 1 allows
    problem = crossed_pair()
    res = greedy_stabilize(problem, CROSSED, max_swaps=1)
    np.testing.assert_array_equal(res.assign, UNCROSSED)
    assert res.applied == 1
    with pytest.raises(RuntimeError):
        greedy_stabilize(problem, CROSSED, max_swaps=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_stabilize_settles_random_instances(seed):
    inst = clustered_instance(seed, n_ues=10,
                              engine=ScenarioConfig(seed=seed,
                                                      max_iterations=300))
    res = anneal_on_problem(inst.problem)
    stab = greedy_stabilize(inst.problem, res.matching.assign)
    assert audit_stability(inst.problem, stab.assign) == []


# (max_iterations, N, M) -> (applied per seed 0..11,
#                            {seed: audit of the anneal output as (ue, other_ue, target_sn)},
#                            sha256 prefix of the stabilized assignments of seeds 0..11)
# Integers only, so float drift in evaluate() cannot break the pin, but any
# change to the order in which swaps are scanned or applied does.
STABILIZE_PINS = {
    (20, 2, 8): ((0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
                 {2: [(5, None, 2)], 3: [(2, None, 2)]},
                 "adf3b1ecf9c0c390"),
    (20, 4, 30): ((0, 0, 3, 1, 1, 3, 0, 1, 0, 0, 1, 1),
                  {2: [(22, None, 5), (23, None, 6), (29, None, 5)], 3: [(5, None, 4)],
                   4: [(29, None, 7)], 5: [(10, None, 5), (13, None, 5), (15, None, 7)],
                   7: [(15, None, 6)], 10: [(10, None, 4)], 11: [(28, None, 4)]},
                  "13d8c1a5ead05d80"),
    (20, 3, 60): ((0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0),
                  {5: [(33, None, 3)], 10: [(4, None, 4), (21, None, 4), (58, None, 4)]},
                  "053ff2f15dd68465"),
    (3000, 2, 8): ((0,) * 12, {}, "078231ee36678165"),
    (3000, 4, 30): ((0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
                    {5: [(13, None, 5)]},
                    "3811c30d230777de"),
    (3000, 3, 60): ((0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1),
                    {1: [(37, 50, 5), (37, 52, 5)], 5: [(21, 41, 1), (33, 41, 1)],
                     8: [(6, 59, 1)], 11: [(11, None, 3)]},
                    "0781c895600370eb"),
}


@pytest.mark.parametrize("key", sorted(STABILIZE_PINS))
def test_stabilize_and_audit_are_pinned(key):
    budget, n_scbs, n_ues = key
    applied, audits, digest = [], {}, hashlib.sha256()
    for seed in range(12):
        engine = ScenarioConfig(seed=seed, d2d_quota=4, max_iterations=budget)
        problem = clustered_instance(seed, n_scbs=n_scbs, n_ues=n_ues,
                                     engine=engine).problem
        assign = anneal_on_problem(problem).matching.assign
        found = [(v.ue, v.other_ue, v.target_sn) for v in audit_stability(problem, assign)]
        if found:
            audits[seed] = found
        stab = greedy_stabilize(problem, assign)
        applied.append(stab.applied)
        digest.update((",".join(map(str, stab.assign.tolist())) + ";").encode())
    assert (tuple(applied), audits, digest.hexdigest()[:16]) == STABILIZE_PINS[key]


def test_a_settled_pass_stops_at_the_last_applied_ordinal(monkeypatch):
    """Seed 10 of the (20, 3, 60) pin applies 2 swaps.  After the last one,
    greedy's two scans (past its ordinal, then up to it) each judge some
    rows, and together exactly the full scan of the stable state that the
    audit makes: no feasible swap is judged twice or skipped."""
    rows = []
    judge, approved_swaps = matching._judge, matching._approved_swaps

    def counting_judge(problem, assign, base, m, n, k):
        rows[-1] += len(m)
        return judge(problem, assign, base, m, n, k)

    def counting_scan(*args, **kwargs):
        rows.append(0)                  # one scan: greedy's two per step, or the audit
        yield from approved_swaps(*args, **kwargs)

    monkeypatch.setattr(matching, "_judge", counting_judge)
    monkeypatch.setattr(matching, "_approved_swaps", counting_scan)
    engine = ScenarioConfig(seed=10, d2d_quota=4, max_iterations=20)
    problem = clustered_instance(10, n_scbs=3, n_ues=60, engine=engine).problem
    stab = greedy_stabilize(problem, anneal_on_problem(problem).matching.assign)
    assert stab.applied == STABILIZE_PINS[(20, 3, 60)][0][10] == 2
    assert audit_stability(problem, stab.assign) == []
    *_, past, up_to, full_scan = rows
    assert past > 0 and up_to > 0
    assert past + up_to == full_scan == len(matching._scan_order(problem, stab.assign))


QUOTAS = [{}, {"scbs_quota": 2, "d2d_quota": 1}, {"scbs_quota": 4, "d2d_quota": 2}]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), n_scbs=st.integers(1, 4), n_ues=st.integers(2, 40),
       quotas=st.sampled_from(QUOTAS))
def test_anneal_and_stabilize_keep_the_node_rules(seed, n_scbs, n_ues, quotas):
    """Range, node kinds and quotas hold after the anneal and after stabilize.

    The seed may already overload a cell (it ignores scbs_quota), so a
    node's load is bounded by max(quota, its load in the seed).
    """
    engine = ScenarioConfig(seed=seed, max_iterations=400, **quotas)
    problem = clustered_instance(seed, n_scbs=n_scbs, n_ues=n_ues, engine=engine).problem
    start = problem.start_assignment
    cap = np.maximum(problem.quota,
                     np.bincount(start[start >= 0], minlength=problem.n_sns))
    annealed = anneal_on_problem(problem).matching.assign
    for assign in (annealed, greedy_stabilize(problem, annealed).assign):
        served = np.flatnonzero(assign >= 0)
        assert problem.feasible_sn[served, assign[served]].all()
        assert (assign[problem.relay_ues] < problem.n_scbs).all()
        assert (np.bincount(assign[served], minlength=problem.n_sns) <= cap).all()


def random_feasible_state(problem, seed):
    """A random quota-feasible state: in a random order, each UE takes one
    of its feasible nodes still below quota, or stays unserved."""
    rng = np.random.default_rng(seed)
    assign = np.full(problem.n_ues, -1, dtype=np.int64)
    load = np.zeros(problem.n_sns, dtype=np.int64)
    for m in rng.permutation(problem.n_ues):
        options = np.flatnonzero(problem.feasible_sn[m] & (load < problem.quota))
        k = rng.choice(np.append(options, -1))
        if k >= 0:
            assign[m] = k
            load[k] += 1
    return assign


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), n_scbs=st.integers(1, 4), n_ues=st.integers(2, 30),
       quotas=st.sampled_from(QUOTAS), start_seed=st.integers(0, 2**32 - 1))
def test_greedy_converges_from_any_feasible_state(seed, n_scbs, n_ues, quotas,
                                                  start_seed):
    """From a random quota-feasible state, the greedy walk never revisits a
    state and ends in one the audit finds stable, one welfare per swap."""
    engine = ScenarioConfig(seed=seed, **quotas)
    problem = clustered_instance(seed, n_scbs=n_scbs, n_ues=n_ues, engine=engine).problem
    start = random_feasible_state(problem, start_seed)
    states = []
    approved_swaps = matching._approved_swaps

    def recording_scan(problem, assign, base, todo):
        states.append(assign.tobytes())     # at the call: greedy then edits assign
        return approved_swaps(problem, assign, base, todo)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_approved_swaps", recording_scan)
        stab = greedy_stabilize(problem, start)
    walk = states[::2]                      # two scans per step, of one state
    assert states[1::2] == walk
    assert walk[0] == start.tobytes()
    assert len(set(walk)) == len(walk) == stab.applied + 1
    assert stab.applied == len(stab.welfares)
    assert audit_stability(problem, stab.assign) == []


# --------------------------------------------------------------------------
# anneal run behavior
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_trace_best_is_running_max_from_initial(seed):
    inst = clustered_instance(seed, n_ues=10,
                              engine=ScenarioConfig(seed=seed,
                                                      max_iterations=400))
    res = anneal_on_problem(inst.problem)
    w0 = inst.problem.evaluate(inst.problem.start_assignment).welfare
    assert len(res.trace) == res.iterations_run
    best = w0
    for i, row in enumerate(res.trace):
        assert row.iteration == i + 1
        assert row.move_kind in (MOVE_SWAP, MOVE_SINGLE)
        best = max(best, row.welfare)
        assert row.best_welfare == best          # exact running max
    assert res.trace[-1].best_welfare >= w0
    assert inst.problem.evaluate(res.matching.assign).welfare == res.trace[-1].best_welfare
    assert 0 <= res.best_iteration <= res.iterations_run


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_state_reproducible_on_fresh_problem(seed):
    engine = ScenarioConfig(seed=seed, max_iterations=300)
    inst = clustered_instance(seed, n_ues=10, engine=engine)
    res = anneal_on_problem(inst.problem)
    fresh = build_problem(inst.scenario, inst.graph, inst.x, engine)
    w = fresh.evaluate(res.matching.assign).welfare
    assert w == pytest.approx(res.trace[-1].best_welfare, rel=1e-9)


def test_anneal_is_deterministic_for_a_seed():
    runs = []
    for _ in range(2):
        inst = clustered_instance(7, n_ues=12,
                                  engine=ScenarioConfig(seed=7,
                                                          max_iterations=300))
        runs.append(anneal_on_problem(inst.problem))
    a, b = runs
    np.testing.assert_array_equal(a.matching.assign, b.matching.assign)
    assert a.trace == b.trace
    assert a.best_iteration == b.best_iteration


def test_engine_seed_changes_the_search_path():
    traces = []
    for engine_seed in (0, 1):
        inst = clustered_instance(7, n_ues=12,
                                  engine=ScenarioConfig(seed=engine_seed,
                                                          max_iterations=300))
        traces.append(anneal_on_problem(inst.problem).trace)
    assert traces[0] != traces[1]


def lone_problem(engine):
    """One UE under one SCBS: no feasible proposal ever exists."""
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 0.0]]),
                                   ue_xy=np.array([[10.0, 0.0]]), seed=2)
    graph = sg.graph_from_edges((((sg.SCBS, 0), (sg.UE, 0)),), 1, 1)
    x = sg.social_pipeline(graph)
    return build_problem(scenario, graph, x, engine)


def test_stall_window_stops_a_stuck_search():
    problem = lone_problem(ScenarioConfig(seed=0, max_iterations=500,
                                            stall_window=7))
    res = anneal_on_problem(problem)
    assert res.iterations_run == 7
    assert not any(row.accepted for row in res.trace)
    np.testing.assert_array_equal(res.matching.assign, problem.start_assignment)


def test_stall_window_zero_disables_early_stop():
    problem = lone_problem(ScenarioConfig(seed=0, max_iterations=37,
                                            stall_window=0))
    res = anneal_on_problem(problem)
    assert res.iterations_run == 37


def unservable_problem():
    """One UE out of range of the only SCBS: the search ends at once."""
    scenario = radio.RadioScenario(scbs_xy=np.array([[0.0, 0.0]]),
                                   ue_xy=np.array([[200.0, 0.0]]), seed=0)
    graph = sg.graph_from_edges((((sg.SCBS, 0), (sg.UE, 0)),), 1, 1)
    return build_problem(scenario, graph, sg.social_pipeline(graph),
                         ScenarioConfig(seed=0))


def test_no_servable_ues_short_circuits():
    problem = unservable_problem()
    res = anneal_on_problem(problem)
    assert res.iterations_run == 0
    assert res.trace == ()
    assert problem.report(res.matching.assign).welfare == 0.0
    np.testing.assert_array_equal(res.matching.assign, [-1])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_anneal_reaches_the_enumerated_optimum(seed):
    engine = ScenarioConfig(seed=seed, max_iterations=3000, stall_window=0)
    inst = clustered_instance(seed, n_ues=6, engine=engine)
    problem = inst.problem
    assert state_count(problem) <= 300_000
    init = problem.start_assignment
    # every servable UE starts served, so the walk stays inside the space
    # of total assignments that the enumeration covers
    assert (init[problem.servable] >= 0).all()
    w_star = exhaustive_best_welfare(problem)
    res = anneal_on_problem(problem)
    w = res.trace[-1].best_welfare
    assert w <= w_star * (1.0 + 1e-9)
    assert w == pytest.approx(w_star, rel=1e-9)


def test_trace_csv_has_one_row_per_iteration(tmp_path):
    inst = clustered_instance(1, n_ues=6,
                              engine=ScenarioConfig(seed=1, max_iterations=50,
                                                      stall_window=0))
    res = anneal_on_problem(inst.problem)
    path = tmp_path / "trace.csv"
    trace_to_csv(res.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,welfare,best_welfare,accepted,move_kind"
    assert len(lines) == len(res.trace) + 1


# --------------------------------------------------------------------------
# the memo and the bulk draws against their oracles
# --------------------------------------------------------------------------

def per_proposal_anneal(problem):
    """The anneal as one loop: `np.random.default_rng`, one `evaluate` per
    proposal, no memo.  Returns (trace, best_iteration, iterations_run,
    best assignment, number of proposals evaluated)."""
    cfg = problem.config
    rng = np.random.default_rng(cfg.seed)
    assign = problem.start_assignment
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns).tolist()
    quota = problem.quota.tolist()
    reach = [np.flatnonzero(row).tolist() for row in problem.feasible_sn]
    w_cur = problem.evaluate(assign).welfare
    best = assign.copy()
    w_best = w_cur
    best_iter = 0

    pool = np.flatnonzero(problem.servable)
    trace = []
    stall = 0
    iterations = 0
    evaluated = 0

    for t in range(1, cfg.max_iterations + 1):
        if len(pool) == 0:
            break
        iterations = t
        beta = _beta_at(cfg, t - 1, cfg.max_iterations)
        # half pair swaps, half single moves, written out as a literal
        kind = MOVE_SWAP if rng.random() < 0.5 else MOVE_SINGLE
        accepted = False
        proposal = None

        if kind == MOVE_SWAP and len(pool) >= 2:
            i1 = int(rng.integers(len(pool)))
            i2 = int(rng.integers(len(pool) - 1))
            if i2 >= i1:
                i2 += 1
            m, n = int(pool[i1]), int(pool[i2])
            km, kn = int(assign[m]), int(assign[n])
            if km != kn and kn in reach[m] and km in reach[n]:
                proposal = assign.copy()
                proposal[m], proposal[n] = assign[n], assign[m]
        elif kind == MOVE_SINGLE:
            m = int(pool[rng.integers(len(pool))])
            here = assign[m]
            targets = [k for k in reach[m] if k != here and counts[k] < quota[k]]
            if targets:
                k = targets[int(rng.integers(len(targets)))]
                proposal = assign.copy()
                proposal[m] = k

        if proposal is not None:
            ev = problem.evaluate(proposal)
            evaluated += 1
            p = _accept_prob(beta, ev.welfare - w_cur, w_cur, _WELFARE_FLOOR)
            if rng.random() < p:
                if kind == MOVE_SINGLE:
                    if assign[m] >= 0:
                        counts[assign[m]] -= 1
                    counts[k] += 1
                assign = proposal
                w_cur = ev.welfare
                accepted = True
                if w_cur > w_best:
                    w_best = w_cur
                    best = assign.copy()
                    best_iter = t

        trace.append(TraceRow(t, w_cur, w_best, accepted, kind))
        stall = 0 if accepted else stall + 1
        if cfg.stall_window and stall >= cfg.stall_window:
            break

    return tuple(trace), best_iter, iterations, best, evaluated


#: Two SCBSs 60 m apart with overlapping cells: pair swaps are feasible.
OVERLAP = dict(n_scbs=2, n_ues=12, spread=45.0)
#: UEs scattered past the SCBS range: at seeds 0 and 23 the seed state
#: already serves UEs by D2D.
SCATTERED = dict(n_scbs=2, n_ues=20, spread=70.0)
#: Desk-sweep's regime: most UEs out of every cell, so the walk's reachable
#: states are few (8 at seeds 1 and 7) and its search settles early.
DESK = dict(n_scbs=4, n_ues=16, spread=150.0)

ORACLE_CASES = {
    "mixed": (OVERLAP, {}),
    "no-stall-stop": (OVERLAP, dict(stall_window=0)),
    "d2d-seed": (SCATTERED, {}),
    "desk": (DESK, {}),
}
ORACLE_SEEDS = {"mixed": (3, 5), "no-stall-stop": (3, 5), "d2d-seed": (0, 23), "desk": (1, 7)}
ORACLE_GRID = [(case, seed) for case in sorted(ORACLE_CASES) for seed in ORACLE_SEEDS[case]]


def oracle_problem(case, seed):
    layout, knobs = ORACLE_CASES[case]
    engine = ScenarioConfig(seed=seed, max_iterations=1000, scbs_quota=8,
                              d2d_quota=6, **knobs)
    return clustered_instance(seed, engine=engine, **layout).problem


@pytest.mark.parametrize("case, seed", ORACLE_GRID)
def test_anneal_equals_the_per_proposal_loop(case, seed):
    problem = oracle_problem(case, seed)
    trace, best_iter, iterations, best, evaluated = per_proposal_anneal(problem)
    res = anneal_on_problem(problem)
    assert evaluated > res.states_evaluated > 0     # the memo was hit
    assert res.trace == trace
    assert [tuple(map(type, row)) for row in res.trace] == \
        [tuple(map(type, row)) for row in trace]
    assert res.best_iteration == best_iter
    assert res.iterations_run == iterations
    np.testing.assert_array_equal(res.matching.assign, best)


def finished_walks(monkeypatch):
    """Make `_finish_walk` record each walk it runs to the end."""
    finish_walk, calls = matching._finish_walk, []

    def spy(problem, search):
        calls.append(problem)
        return finish_walk(problem, search)

    monkeypatch.setattr(matching, "_finish_walk", spy)
    return calls


def test_oracle_cases_reach_their_paths(monkeypatch):
    """The grid above covers a D2D-served seed state, and searches handed
    over at their bound long before their walks end."""
    for seed in ORACLE_SEEDS["d2d-seed"]:
        problem = oracle_problem("d2d-seed", seed)
        assert (problem.start_assignment >= problem.n_scbs).any()
    finished = finished_walks(monkeypatch)
    for seed in ORACLE_SEEDS["desk"]:
        [res] = anneal_problems([oracle_problem("desk", seed)])
        assert finished == []                       # handed over, not yet run on
        assert res.best_iteration < res.iterations_run // 2
        assert len(finished) == 1
        finished.clear()


def recorded_rows(monkeypatch, bound_rows=None):
    """Make the kernel record the bytes of every row it evaluates, apart
    from the rows of `_reach_bound`'s call, which go to `bound_rows`."""
    inner, rows = matching._evaluate_rows, []
    reach_bound, bounding = matching._reach_bound, []

    def evaluate_rows(shape, tables, A, cols=None):
        (bound_rows if bounding else rows).extend(row.tobytes() for row in A)
        return inner(shape, tables, A, cols)

    def spied_bound(problem, w_start):
        bounding.append(True)
        try:
            return reach_bound(problem, w_start)
        finally:
            bounding.pop()

    if bound_rows is None:
        bound_rows = []
    monkeypatch.setattr(matching, "_evaluate_rows", evaluate_rows)
    monkeypatch.setattr(matching, "_reach_bound", spied_bound)
    return rows


def reach_states(problem):
    """The anneal's candidate states, enumerated one at a time: each
    servable UE on one of its feasible nodes, or also unserved if it starts
    unserved, the other UEs at their start, and each node loaded at most
    max(quota, start load).  As int64 rows, in `itertools.product` order."""
    start = problem.start_assignment
    cap = np.maximum(problem.quota, np.bincount(start[start >= 0], minlength=problem.n_sns))
    choices = [np.flatnonzero(problem.feasible_sn[m]).tolist()
               + ([-1] if start[m] < 0 else []) if problem.servable[m] else [int(start[m])]
               for m in range(problem.n_ues)]
    states = []
    for state in itertools.product(*choices):
        state = np.array(state, dtype=np.int64)
        if (np.bincount(state[state >= 0], minlength=problem.n_sns) <= cap).all():
            states.append(state)
    return states


@pytest.mark.parametrize("memo", [1, 2])
@pytest.mark.parametrize("case, seed", ORACLE_GRID)
def test_a_memo_that_evicts_equals_the_per_proposal_loop(case, seed, memo, monkeypatch):
    """A memo of the last one or two states evicts nearly every state, and
    an evicted state that comes back is evaluated again, to the same float."""
    monkeypatch.setattr(matching, "_MEMO", memo)
    problem = oracle_problem(case, seed)
    trace, best_iter, iterations, best, _ = per_proposal_anneal(problem)
    bound_rows = []
    calls = recorded_rows(monkeypatch, bound_rows)
    res = anneal_on_problem(problem)
    assert bound_rows == [state.tobytes() for state in reach_states(problem)]
    proposals = calls[1:]               # the first row is the start state
    assert res.states_evaluated == len(proposals)
    assert len(set(proposals)) < len(proposals)     # evicted states came back
    assert res.trace == trace
    assert res.best_iteration == best_iter
    assert res.iterations_run == iterations
    np.testing.assert_array_equal(res.matching.assign, best)


def test_states_evaluated_counts_the_calls_to_evaluate(monkeypatch):
    problem = oracle_problem("mixed", 3)
    calls = recorded_rows(monkeypatch)
    res = anneal_on_problem(problem)
    # besides one kernel row per memo miss, the start state
    proposals = calls[1:]
    assert res.states_evaluated == len(proposals) > 0
    assert len(set(proposals)) == len(proposals)
    assert calls[0] not in proposals


# --------------------------------------------------------------------------
# chains in lockstep against the single anneal
# --------------------------------------------------------------------------

def lockstep_problems():
    """Two kernel shapes (12 and 20 UEs), searches with no stall stop and one
    that ends at once (no SCBS covers a UE), interleaved."""
    unservable = clustered_instance(0, scbs_radius_m=1e-6, engine=ScenarioConfig(seed=0),
                                    **OVERLAP).problem
    return [oracle_problem("mixed", 3), oracle_problem("d2d-seed", 0),
            oracle_problem("no-stall-stop", 5), unservable,
            oracle_problem("no-stall-stop", 3), oracle_problem("mixed", 5),
            oracle_problem("d2d-seed", 23), oracle_problem("mixed", 4)]


def kernel_shape_groups(problems):
    """The indices of `problems`, one list per kernel shape, which is what
    one `anneal_problems` call takes."""
    groups = {}
    for i, problem in enumerate(problems):
        groups.setdefault(problem._shape[:-1], []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("window", [1, 2, 9])
def test_lockstep_equals_the_single_anneal(window, monkeypatch):
    problems = lockstep_problems()
    assert problems[3].servable.sum() == 0      # its search ends at once
    groups = kernel_shape_groups(problems)
    assert len(groups) == 2
    shapes = [p._shape for p in problems]
    assert len(set(shapes)) < len(shapes) - 1     # some chains share kernel calls
    want = [anneal_on_problem(p) for p in problems]
    monkeypatch.setattr(matching, "_WINDOW", window)
    got = {}
    for group in groups:
        ran = anneal_problems([problems[i] for i in group])
        assert len(ran) == len(group)
        got.update(zip(group, ran))
    for i, res in got.items():
        ref = want[i]
        assert res.trace == ref.trace
        assert [tuple(map(type, row)) for row in res.trace] == \
            [tuple(map(type, row)) for row in ref.trace]
        assert res.best_iteration == ref.best_iteration
        assert res.iterations_run == ref.iterations_run
        assert res.states_evaluated == ref.states_evaluated
        np.testing.assert_array_equal(res.matching.assign, ref.matching.assign)


def test_a_window_of_mixed_s_makes_one_kernel_call_per_round(monkeypatch):
    """Replications 3 and 4 of the dense point at seed 1 have S = 16 and
    S = 15; their chains share each round's kernel call.  A chain takes one
    row per round for its start state and each state its memo lacks, so
    there are as many rounds as the longer chain has rows."""
    cfg = ScenarioConfig(n_scbs=8, n_ues=100, macro_radius_m=100, seed=1, max_iterations=300)
    problems = harness.build_replications(cfg, 0, [3, 4])
    assert [p.n_sns for p in problems] == [16, 15]
    want = [anneal_on_problem(p) for p in problems]
    calls = []
    evaluate_rows = matching._evaluate_rows

    def counting_rows(shape, tables, A, cols=None):
        calls.append(len(A))
        return evaluate_rows(shape, tables, A, cols)

    monkeypatch.setattr(matching, "_evaluate_rows", counting_rows)
    got = anneal_problems(problems)
    chain_rows = [res.states_evaluated + 1 for res in got]
    assert len(calls) == max(chain_rows)    # one call a round,
    assert sum(calls) == sum(chain_rows)    # one row per waiting chain,
    assert calls[0] == 2                    # the first holding both start states
    assert calls.count(2) > 50
    for i, res in enumerate(got):
        assert res.trace == want[i].trace
        np.testing.assert_array_equal(res.matching.assign, want[i].matching.assign)


def test_lockstep_holds_at_most_a_window_of_problems(monkeypatch):
    monkeypatch.setattr(matching, "_WINDOW", 3)
    problems = lockstep_problems()
    problems = [problems[i] for i in max(kernel_shape_groups(problems), key=len)]
    assert len(problems) > 3
    stack_tables, held = matching._stack_tables, []

    def counting(stacked):
        held.append(len(stacked))
        return stack_tables(stacked)

    monkeypatch.setattr(matching, "_stack_tables", counting)
    assert len(anneal_problems(problems)) == len(problems)
    assert max(held) == 3


def test_states_evaluated_is_zero_without_a_feasible_proposal():
    res = anneal_on_problem(lone_problem(ScenarioConfig(seed=0, max_iterations=50)))
    assert res.states_evaluated == 0


# --------------------------------------------------------------------------
# the reach bound and the hand-over
# --------------------------------------------------------------------------

def bound_of(problem):
    return matching._reach_bound(problem, problem.evaluate(problem.start_assignment).welfare)


def bound_rows(problem, monkeypatch):
    """(bound, the states its one kernel call evaluated) of `problem`."""
    rows = []
    with monkeypatch.context() as patch:
        recorded_rows(patch, rows)
        bound = bound_of(problem)
    return bound, [np.frombuffer(row, dtype=np.int64) for row in rows]


#: Shapes of `clustered_instance` whose candidate sets stay under the
#: budget, with the seeds at which every servable UE starts served within
#: quota, under each of the QUOTAS sets in turn.
BOUND_SHAPES = [
    (dict(n_scbs=2, n_ues=8, spread=45.0), [(0, 1, 2), (), (1, 3, 5)]),
    (dict(n_scbs=3, n_ues=8, spread=45.0), [(0, 1, 2), (), (1, 2, 3)]),
    (dict(n_scbs=4, n_ues=10, spread=60.0), [(0, 1, 6), (), (0, 1, 6)]),
    (dict(n_scbs=4, n_ues=6, spread=45.0), [(), (8, 14), ()]),
    (dict(n_scbs=3, n_ues=5, spread=45.0), [(), (9, 11, 17), ()]),
]


@pytest.mark.parametrize("q", range(len(QUOTAS)))
def test_the_reach_bound_is_the_enumerated_optimum(q):
    """Where every servable UE starts served within quota, the candidates
    are the quota-feasible total assignments, so the bound is their
    optimum, to the bit."""
    checked = 0
    for layout, seeds in BOUND_SHAPES:
        for seed in seeds[q]:
            engine = ScenarioConfig(seed=seed, **QUOTAS[q])
            problem = clustered_instance(seed, engine=engine, **layout).problem
            start = problem.start_assignment
            assert (start[problem.servable] >= 0).all()
            assert (np.bincount(start[start >= 0], minlength=problem.n_sns)
                    <= problem.quota).all()
            assert 1 < state_count(problem) <= 300_000
            assert bound_of(problem) == exhaustive_best_welfare(problem)
            checked += 1
    assert checked >= 5


def test_the_reach_bound_is_inf_past_its_budget(monkeypatch):
    problem = oracle_problem("mixed", 3)
    cells = state_count(problem) * (problem.n_sns + 1) * problem.n_ues
    assert cells == 51_840
    monkeypatch.setattr(matching, "_BOUND_CELLS", cells)
    assert bound_of(problem) < math.inf
    monkeypatch.setattr(matching, "_BOUND_CELLS", cells - 1)
    bound, rows = bound_rows(problem, monkeypatch)
    assert bound == math.inf and rows == []       # nothing is evaluated
    # at the default budget, 40 UEs in two overlapping cells are too many
    wide = clustered_instance(1, n_scbs=2, n_ues=40).problem
    assert state_count(wide) > 2**17
    assert bound_of(wide) == math.inf


def test_a_lone_candidate_needs_no_kernel_call(monkeypatch):
    problem = lone_problem(ScenarioConfig(seed=0))
    assert matching._reach_bound(problem, 123.0) == 123.0
    assert bound_rows(problem, monkeypatch)[1] == []


def unserved_start_problem():
    """Two SCBSs 120 m apart, each cell holding only its relay, ue0 and
    ue1, and d2d_quota 1.  ue2 lies out of both cells, in D2D range of both
    relays, and takes ue1's; ue3, in range of ue1 alone, starts unserved.
    Moving ue2 to ue0 makes room for ue3."""
    scenario = radio.RadioScenario(
        scbs_xy=np.array([[0.0, 0.0], [120.0, 0.0]]),
        ue_xy=np.array([[45.0, 0.0], [75.0, 0.0], [58.0, 2.0], [72.0, -18.0]]), seed=3)
    graph = social_ring_graph(scenario)
    return build_problem(scenario, graph, sg.social_pipeline(graph),
                         ScenarioConfig(seed=3, d2d_quota=1))


def test_a_start_unserved_ue_may_stay_unserved_or_be_served(monkeypatch):
    problem = unserved_start_problem()
    np.testing.assert_array_equal(problem.start_assignment, [0, 1, 3, -1])
    assert problem.servable.all()
    bound, rows = bound_rows(problem, monkeypatch)
    # ue2 on either relay, ue3 unserved or on ue1; the two on ue1 overload it
    assert [row.tolist() for row in rows] == [[0, 1, 2, 3], [0, 1, 2, -1], [0, 1, 3, -1]]
    assert bound == max(problem.evaluate(state).welfare for state in reach_states(problem))


def test_a_start_over_quota_is_capped_at_its_start_load(monkeypatch):
    engine = ScenarioConfig(seed=0, **QUOTAS[1])
    problem = clustered_instance(0, engine=engine, n_scbs=2, n_ues=8).problem
    start = problem.start_assignment
    load = np.bincount(start[start >= 0], minlength=problem.n_sns)
    over = load > problem.quota
    assert over.any()
    bound, rows = bound_rows(problem, monkeypatch)
    loads = np.array([np.bincount(row[row >= 0], minlength=problem.n_sns) for row in rows])
    # an overloaded node keeps at most its start load, the others their quota
    assert (loads <= np.maximum(load, problem.quota)).all()
    np.testing.assert_array_equal(loads.max(axis=0)[over], load[over])
    assert [row.tobytes() for row in rows] == [state.tobytes() for state in reach_states(problem)]
    assert bound == max(problem.evaluate(state).welfare for state in reach_states(problem))


def test_a_settled_chain_frees_its_window_slot(monkeypatch):
    """With a window of one, each desk search hands over at its bound and
    the next chain starts before any walk is run on; each result then
    equals the whole walk's."""
    monkeypatch.setattr(matching, "_WINDOW", 1)
    problems = [oracle_problem("desk", seed) for seed in ORACLE_SEEDS["desk"]]
    want = [anneal_on_problem(p) for p in problems]
    finished = finished_walks(monkeypatch)
    chain, started = matching._chain, []

    def spied_chain(problem):
        started.append(len(finished))
        return chain(problem)

    monkeypatch.setattr(matching, "_chain", spied_chain)
    got = anneal_problems(problems)
    assert started == [0, 0] and finished == []
    for ref, res in zip(want, got, strict=True):
        assert res.trace == ref.trace
        assert res.best_iteration == ref.best_iteration
        assert res.iterations_run == ref.iterations_run
        assert res.states_evaluated == ref.states_evaluated
        np.testing.assert_array_equal(res.matching.assign, ref.matching.assign)
    assert len(finished) == 2


def test_a_settled_result_keeps_its_chain_until_a_walk_field_is_read(monkeypatch):
    """A desk search handed over at its bound holds its suspended chain
    until one of its walk fields is first read, and drops it then."""
    chain, chains = matching._chain, []

    def spied_chain(problem):
        search = chain(problem)
        chains.append(weakref.ref(search))
        return search

    monkeypatch.setattr(matching, "_chain", spied_chain)
    [res] = anneal_problems([oracle_problem("desk", ORACLE_SEEDS["desk"][0])])
    gc.collect()
    assert len(chains) == 1 and chains[0]() is not None
    assert res.iterations_run > res.best_iteration
    gc.collect()
    assert chains[0]() is None


def test_no_problems_give_no_results():
    assert anneal_problems([]) == []


DRAW_SIZES = [1, 2, 3, 57, 2**31 - 1, 3 * 10**9, 2**32]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**64 - 1])
def test_draws_equal_numpy_default_rng(seed):
    """Interleaved random() and integers(n) over several raw blocks.

    n = 3e9 rejects about 30% of its first draws, so the rejection loop
    runs; n = 1 draws nothing and n = 2**32 is a bare 32-bit draw.
    """
    pick = random.Random(seed)
    ours, numpy_rng = _Draws(seed), np.random.default_rng(seed)
    for _ in range(4 * _RAW_BLOCK):
        if pick.random() < 0.3:
            assert ours.random() == numpy_rng.random()
        else:
            n = (pick.choice(DRAW_SIZES) if pick.random() < 0.5
                 else pick.randint(1, 2**32))
            assert ours.integers(n) == numpy_rng.integers(n)


def test_draws_refuse_a_range_numpy_draws_in_64_bits():
    draws = _Draws(0)
    with pytest.raises(ValueError):
        draws.integers(2**32 + 1)
    with pytest.raises(ValueError):
        draws.integers(0)
