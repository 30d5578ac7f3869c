"""Shared helpers: clustered test instances and an independent welfare oracle.

The oracle recomputes every rate through `radio.link_rate`, one link at a
time, with explicit co-channel transmitter lists -- a completely separate
code path from the engine's vectorized evaluation.
"""

from types import SimpleNamespace

import numpy as np

from socialcell import matching, radio
from socialcell import socialgraph as sg
from socialcell.config import ScenarioConfig

SCBS_RING_RADIUS = 70.0


def cluster_positions(rng: np.random.Generator, n_scbs: int, n_ues: int,
                      spread: float) -> tuple[np.ndarray, np.ndarray]:
    """SCBSs on a small ring; UEs scattered around a random home SCBS.

    Keeps every UE inside some cell (for spread <= the service radius), so
    instances stay densely serviceable unlike wide-area uniform drops.
    """
    if n_scbs == 1:
        scbs_xy = np.zeros((1, 2))
    elif n_scbs == 2:
        scbs_xy = np.array([[-30.0, 0.0], [30.0, 0.0]])
    else:
        ang = 2.0 * np.pi * np.arange(n_scbs) / n_scbs
        scbs_xy = SCBS_RING_RADIUS * np.column_stack([np.cos(ang), np.sin(ang)])
    home = rng.integers(0, n_scbs, size=n_ues)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_ues)
    rad = spread * np.sqrt(rng.uniform(0.0, 1.0, size=n_ues))
    ue_xy = scbs_xy[home] + np.column_stack([rad * np.cos(theta), rad * np.sin(theta)])
    return scbs_xy, ue_xy


def social_ring_graph(scenario: radio.RadioScenario) -> sg.SocialGraph:
    """Ring of friendships over UEs plus SCBS ties to every covered UE."""
    n, m = scenario.n_scbs, scenario.n_ues
    edges = [((sg.UE, i), (sg.UE, (i + 1) % m)) for i in range(m)] if m > 2 else \
        [((sg.UE, i), (sg.UE, j)) for i in range(m) for j in range(i + 1, m)]
    d = radio.scbs_ue_distances(scenario)
    for i in range(n):
        for u in np.flatnonzero(d[i] <= scenario.scbs_radius_m):
            edges.append(((sg.SCBS, i), (sg.UE, int(u))))
    return sg.graph_from_edges(edges, n, m)


def clustered_instance(seed: int, n_scbs: int = 2, n_ues: int = 8,
                       spread: float = 45.0,
                       engine: ScenarioConfig | None = None,
                       graph: sg.SocialGraph | None = None,
                       **scenario_kw) -> SimpleNamespace:
    """A fully-built association problem over a clustered layout."""
    rng = np.random.default_rng(seed)
    scbs_xy, ue_xy = cluster_positions(rng, n_scbs, n_ues, spread)
    scenario = radio.RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy,
                                   seed=seed, **scenario_kw)
    if graph is None:
        graph = social_ring_graph(scenario)
    x = sg.social_pipeline(graph)
    problem = matching.build_problem(scenario, graph, x,
                                     engine or ScenarioConfig(seed=seed))
    return SimpleNamespace(problem=problem, scenario=scenario, graph=graph, x=x)


# --------------------------------------------------------------------------
# independent welfare oracle
# --------------------------------------------------------------------------

def oracle_evaluate(problem, assign, x) -> SimpleNamespace:
    """Recompute rates/utilities/welfare per link via radio.link_rate.

    `x` is the social distance the problem was built from.  Serving node
    k < N is scbs{k} and node N + j is the relay ue{relay_ues[j]}.
    """
    scen = problem.scenario
    N, M, C = problem.n_scbs, problem.n_ues, scen.subcarriers
    assign = np.asarray(assign, dtype=np.int64)
    nodes = ([(sg.SCBS, i) for i in range(N)]
             + [(sg.UE, int(p)) for p in problem.relay_ues])

    members: dict[int, list[int]] = {}
    sc: dict[int, int] = {}
    for k, node in enumerate(nodes):
        mine = sorted(int(m) for m in np.flatnonzero(assign == k))
        members[k] = mine
        off = radio.subcarrier_offset(scen, node)
        for rank, m in enumerate(mine):
            sc[m] = (off + rank) % C

    active: dict[int, set] = {c: set() for c in range(C)}
    for k, node in enumerate(nodes):
        for m in members[k]:
            active[sc[m]].add(node)

    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
    rates = np.zeros(M)
    utilities = np.zeros(M)
    relay_set = set(int(p) for p in problem.relay_ues)

    for m in range(M):                      # downlink SCBS hops first
        k = int(assign[m])
        if not 0 <= k < N:
            continue
        budget = radio.link_rate(("scbs", k), m, sc[m], scen,
                                 cochannel=sorted(active[sc[m]]),
                                 share=1.0 / counts[k])
        rates[m] = budget.rate_bps
        if m in relay_set:
            xv = float(x[sg.vertex((sg.SCBS, k), N, M), sg.vertex((sg.UE, m), N, M)])
            utilities[m] = rates[m] / max(xv, 0.01)
        else:
            utilities[m] = rates[m]

    for m in range(M):                      # then D2D hops, which need backhaul
        k = int(assign[m])
        if k < N:
            continue
        relay = nodes[k][1]
        access = radio.link_rate(("ue", relay), m, sc[m], scen,
                                 cochannel=sorted(active[sc[m]]),
                                 share=1.0 / counts[k])
        rates[m] = min(rates[relay], access.rate_bps) / 2.0
        utilities[m] = rates[m]

    sn_utilities = np.zeros(problem.n_sns)
    for k in range(problem.n_sns):
        sn_utilities[k] = sum(utilities[m] for m in members[k])
    welfare = float(sn_utilities.sum() + utilities.sum())
    return SimpleNamespace(rates=rates, utilities=utilities,
                           sn_utilities=sn_utilities, welfare=welfare)


def exhaustive_best_welfare(problem) -> float:
    """True optimum by enumerating every quota-feasible total assignment.

    Walks the product of per-UE feasible serving-node lists depth-first,
    pruning quota violations, evaluating each complete state through the
    engine's evaluator.  Only practical for small, few-choice instances.
    """
    ues = [int(m) for m in np.flatnonzero(problem.servable)]
    choices = [list(map(int, np.flatnonzero(problem.feasible_sn[m]))) for m in ues]
    assign = np.full(problem.n_ues, -1, dtype=np.int64)
    counts = np.zeros(problem.n_sns, dtype=np.int64)
    best = -np.inf

    def walk(i: int) -> None:
        nonlocal best
        if i == len(ues):
            w = problem.evaluate(assign).welfare
            if w > best:
                best = w
            return
        m = ues[i]
        for k in choices[i]:
            if counts[k] < problem.quota[k]:
                assign[m] = k
                counts[k] += 1
                walk(i + 1)
                counts[k] -= 1
                assign[m] = -1

    walk(0)
    return best


def state_count(problem) -> int:
    """Upper bound on the enumeration size (ignores quota pruning)."""
    total = 1
    for m in np.flatnonzero(problem.servable):
        total *= int(problem.feasible_sn[m].sum())
    return total
