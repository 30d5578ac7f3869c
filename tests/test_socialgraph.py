"""Social graph metrics: oracle checks, reference values, and properties.

networkx is the oracle for the random edge models: a seed must give the
graph that `nx.gnp_random_graph` / `nx.watts_strogatz_graph` give.  Two
oracles check edge betweenness.  The brute-force one enumerates every
simple path between every vertex pair by plain DFS and keeps the shortest
ones; it shares no code or algorithmic structure with the production
(Brandes-style) implementation.  The per-source loop is Brandes' algorithm
one deque BFS at a time, the arithmetic the block-batched production code
must reproduce bit for bit.
"""

import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import socialcell
from socialcell import config, harness, reference, socialgraph
from socialcell.errors import ConfigError, InputError
from socialcell.socialgraph import (RAW_CLIPPED, SAW, SocialGraph,
                                    common_neighbours, edge_betweenness,
                                    elect_important_ues, gnp_adjacency,
                                    graph_from_edges, importance_scores,
                                    load_edge_list, parse_node_label,
                                    similarity, social_distance,
                                    social_pipeline, vertex,
                                    watts_strogatz_adjacency)


# --------------------------------------------------------------------------
# oracle: exhaustive shortest-path enumeration
# --------------------------------------------------------------------------

def _all_simple_paths(adj: np.ndarray, s: int, t: int) -> list[list[int]]:
    """Every simple path from s to t, found by undirected DFS."""
    V = adj.shape[0]
    paths: list[list[int]] = []
    stack = [(s, [s])]
    while stack:
        v, path = stack.pop()
        if v == t:
            paths.append(path)
            continue
        for w in range(V):
            if adj[v, w] and w not in path:
                stack.append((w, path + [w]))
    return paths

def brute_force_edge_betweenness(adj: np.ndarray, denominator: float) -> np.ndarray:
    """Edge betweenness by explicit enumeration of all shortest paths.

    For each unordered vertex pair, list every simple path, keep the
    minimum-length ones, and credit each edge on them with the fraction of
    shortest paths it carries.
    """
    V = adj.shape[0]
    out = np.zeros((V, V))
    for s in range(V):
        for t in range(s + 1, V):
            paths = _all_simple_paths(adj, s, t)
            if not paths:
                continue
            shortest = min(len(p) for p in paths)
            best = [p for p in paths if len(p) == shortest]
            credit = 1.0 / len(best)
            for p in best:
                for a, b in zip(p, p[1:]):
                    out[a, b] += credit
                    out[b, a] += credit
    return out / denominator

def betweenness_denominator(n_vertices: int) -> int:
    """(V-1)(V-2), floored at 1 so the two-vertex graph stays finite."""
    return max((n_vertices - 1) * (n_vertices - 2), 1)

def per_source_edge_counts(adj: np.ndarray) -> np.ndarray:
    """Raw shortest-path traversal counts per edge, one deque BFS per source.

    Brandes' accumulation: dependencies are pushed back from the leaves of
    each source's shortest-path DAG.  Summing over all sources counts every
    unordered pair twice, so the result is halved.
    """
    V = adj.shape[0]
    adj_lists = [np.flatnonzero(adj[v]) for v in range(V)]
    counts = np.zeros((V, V))
    for s in range(V):
        dist = np.full(V, -1)
        sigma = np.zeros(V)
        preds: list[list[int]] = [[] for _ in range(V)]
        dist[s] = 0
        sigma[s] = 1.0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj_lists[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(V)
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                counts[v, w] += c
                counts[w, v] += c
                delta[v] += c
    return counts / 2.0

def _random_graph(rng: np.random.Generator, n_vertices: int, p: float) -> SocialGraph:
    adj = np.zeros((n_vertices, n_vertices), dtype=np.int8)
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1
    return SocialGraph(n_scbs=1, adjacency=adj)


def _ref_vertex(label: str) -> int:
    """Vertex of a node of the reference network (one SCBS, four UEs)."""
    return vertex(parse_node_label(label), 1, 4)


def test_oracle_reproduces_hand_counts_on_reference_graph():
    # raw traversal counts for the five-node reference network, worked out
    # by listing the shortest paths by hand
    g = reference.reference_graph()
    raw = brute_force_edge_betweenness(g.adjacency.astype(float), 1.0)
    expected = {
        ("scbs0", "ue0"): 1.0,
        ("scbs0", "ue1"): 1.5,
        ("scbs0", "ue2"): 1.5,
        ("scbs0", "ue3"): 2.0,
        ("ue0", "ue1"): 1.5,
        ("ue0", "ue2"): 1.5,
        ("ue0", "ue3"): 2.0,
        ("ue1", "ue2"): 1.0,
        ("ue1", "ue3"): 0.0,
    }
    for (a, b), want in expected.items():
        assert raw[_ref_vertex(a), _ref_vertex(b)] == pytest.approx(want, abs=1e-12)


def _random_corpus():
    """The 200 small random graphs (3 <= V <= 8) both oracles check."""
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        V = int(rng.integers(3, 9))
        p = float(rng.uniform(0.15, 0.85))
        yield _random_graph(rng, V, p)


def _config_graph(seed: int, **keys) -> SocialGraph:
    cfg = config.ScenarioConfig(seed=seed, **keys)
    return config.social_graph_from_config(cfg, config.scenario_from_config(cfg))


def _graph(n_vertices: int, edges) -> SocialGraph:
    adj = np.zeros((n_vertices, n_vertices), dtype=np.int8)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return SocialGraph(n_scbs=1, adjacency=adj)


def _sources_per_block(monkeypatch, g: SocialGraph, per_block: int) -> None:
    """Make edge_betweenness search `per_block` sources of g at a time."""
    monkeypatch.setattr(socialgraph, "_ARC_BUDGET",
                        per_block * max(int(g.adjacency.sum()), 1))


def _assert_equals_per_source_loop(g: SocialGraph, monkeypatch=None,
                                   blocks=None) -> None:
    """edge_betweenness(g) equals the per-source loop bit for bit, with the
    sources split as `blocks(V)` per block (the arc budget's split if None)."""
    if blocks is not None:
        _sources_per_block(monkeypatch, g, blocks(g.n_vertices))
    b = edge_betweenness(g)
    assert np.array_equal(b, per_source_edge_counts(g.adjacency)
                          / betweenness_denominator(g.n_vertices))


#: Every graph below fits one block under the default arc budget, so each
#: also runs in one-source blocks and in two blocks whose last is shorter.
BLOCK_SPLITS = {"": None,
                "-1-source-blocks": lambda V: 1,
                "-uneven-blocks": lambda V: V // 2 + 1}


def _in_every_split(params):
    """Each param, with its id, once per split of `BLOCK_SPLITS`."""
    return [pytest.param(*p.values, blocks, id=p.id + suffix)
            for p in params for suffix, blocks in BLOCK_SPLITS.items()]


def test_brandes_equals_brute_force_on_random_graphs():
    for g in _random_corpus():
        b = edge_betweenness(g)
        want = brute_force_edge_betweenness(g.adjacency.astype(float),
                                            betweenness_denominator(g.n_vertices))
        np.testing.assert_allclose(b, want, atol=1e-9, rtol=0)


def test_betweenness_bit_identical_to_per_source_loop_on_random_graphs():
    for g in _random_corpus():
        _assert_equals_per_source_loop(g)


# desk scale (the acceptance-6/7 sweep), the dense-stabilize cover, and a
# sparse 500 m disk with isolated SCBSs and several components
CONFIG_GRAPHS = [
    pytest.param(dict(n_scbs=4, n_ues=60), id="desk-N4"),
    pytest.param(dict(n_scbs=16, n_ues=60), id="desk-N16"),
    pytest.param(dict(n_scbs=8, n_ues=100, macro_radius_m=100.0), id="dense-N8"),
    pytest.param(dict(n_scbs=16, n_ues=200), id="wide-N16-M200"),
]


@pytest.mark.parametrize("keys, blocks", _in_every_split(CONFIG_GRAPHS))
def test_betweenness_bit_identical_to_per_source_loop_on_config_graphs(keys, blocks,
                                                                        monkeypatch):
    for seed in (1, 2, 3):
        _assert_equals_per_source_loop(_config_graph(seed, **keys), monkeypatch, blocks)


def test_sparse_config_graph_has_isolated_vertices_and_components():
    g = _config_graph(1, n_scbs=16, n_ues=200)
    assert nx.number_connected_components(nx.from_numpy_array(g.adjacency)) > 1
    assert np.any(g.adjacency.sum(axis=1) == 0)


# the cases where a level-at-a-time search could part from a deque: tiny or
# edgeless graphs, unreachable vertices, deep searches, many tied paths
DEGENERATE_GRAPHS = [
    pytest.param(_graph(2, [(0, 1)]), id="two-vertices-one-edge"),
    pytest.param(_graph(2, []), id="two-vertices-no-edge"),
    pytest.param(_graph(6, []), id="no-edges"),
    pytest.param(_graph(9, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7)]),
                 id="isolated-vertices-two-components"),
    pytest.param(_graph(40, [(v, v + 1) for v in range(39)]), id="long-path"),
    pytest.param(_graph(12, [(0, v) for v in range(1, 12)]), id="star"),
    pytest.param(_graph(7, [(a, b) for a in range(7) for b in range(a + 1, 7)]),
                 id="complete"),
]


@pytest.mark.parametrize("g, blocks", _in_every_split(DEGENERATE_GRAPHS))
def test_betweenness_on_degenerate_graphs(g, blocks, monkeypatch):
    _assert_equals_per_source_loop(g, monkeypatch, blocks)
    b = edge_betweenness(g)
    want = brute_force_edge_betweenness(g.adjacency.astype(float),
                                        betweenness_denominator(g.n_vertices))
    np.testing.assert_allclose(b, want, atol=1e-9, rtol=0)


def _layered_graph(seed: int, layers: int = 40, width: int = 5) -> SocialGraph:
    """`layers` layers of `width` vertices, each pair of vertices in
    neighbouring layers linked with probability 0.6, vertex ids shuffled."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(layers * width).reshape(layers, width)
    edges = [(a, b) for upper, lower in zip(ids, ids[1:])
             for a in upper for b in lower if rng.random() < 0.6]
    return _graph(layers * width, edges)


def _path_counts(adj: np.ndarray, s: int) -> list[int]:
    """Exact number of shortest paths from s to every vertex (0 if none)."""
    dist, sigma, frontier = {s: 0}, [0] * adj.shape[0], [s]
    sigma[s] = 1
    while frontier:
        later = []
        for v in frontier:
            for w in np.flatnonzero(adj[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    later.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        frontier = later
    return sigma


def test_betweenness_bit_identical_past_2_to_the_53_paths(monkeypatch):
    # path counts past 2**53 round as they are summed, so sigma must add a
    # vertex's parents in the deque's pop order, not in parent-id order
    g = _layered_graph(3)
    V = g.n_vertices
    assert any(max(_path_counts(g.adjacency, s)) > 2 ** 53 for s in range(V))
    want = per_source_edge_counts(g.adjacency) / betweenness_denominator(V)
    for per_block in (1, 7, V):
        _sources_per_block(monkeypatch, g, per_block)
        assert np.array_equal(edge_betweenness(g), want), per_block


def test_betweenness_zero_off_edges():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    assert np.all(b[g.adjacency == 0] == 0.0)


def test_betweenness_normalized_by_v_minus_1_times_v_minus_2():
    g = reference.reference_graph()
    raw = brute_force_edge_betweenness(g.adjacency.astype(float), 1.0)
    np.testing.assert_allclose(edge_betweenness(g) * 12, raw, atol=1e-12, rtol=0)
    # the two-vertex graph's denominator is floored at 1, not 0
    np.testing.assert_array_equal(edge_betweenness(_graph(2, [(0, 1)])),
                                  [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InputError):
        edge_betweenness(_graph(1, []))


def test_social_layer_arrays_are_read_only():
    g = reference.reference_graph()
    b, q, s = edge_betweenness(g), common_neighbours(g), similarity(g)
    for name, arr in (("B", b), ("Q", q), ("S", s),
                      ("S raw-clipped", similarity(g, normalization=RAW_CLIPPED)),
                      ("X", social_distance(b, s)), ("pipeline X", social_pipeline(g))):
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# --------------------------------------------------------------------------
# reference-network numbers
# --------------------------------------------------------------------------

def _ref_entry(matrix, a, b):
    return float(matrix[_ref_vertex(a), _ref_vertex(b)])


def test_reference_betweenness_values():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    for (a, c), want in reference.EXPECTED_B.items():
        assert _ref_entry(b, a, c) == pytest.approx(want, abs=1e-3)


def test_reference_similarity_values():
    g = reference.reference_graph()
    q = common_neighbours(g)
    for (a, c), want in reference.EXPECTED_Q.items():
        assert _ref_entry(q, a, c) == pytest.approx(want, abs=1e-3)
    # the one supra-1 raw entry is capped in raw-clipped mode
    clipped = similarity(g, normalization=RAW_CLIPPED)
    assert _ref_entry(q, "scbs0", "ue0") == pytest.approx(7.0 / 6.0, abs=1e-9)
    assert _ref_entry(clipped, "scbs0", "ue0") == pytest.approx(1.0)


def test_reference_distance_values_under_documented_rescaling():
    # the reference X numbers correspond to raw-clipped S blended with B/2
    g = reference.reference_graph()
    b = edge_betweenness(g)
    s = similarity(g, normalization=RAW_CLIPPED)
    x = social_distance(b / 2.0, s, alpha=0.5, beta=0.5)
    for (a, c), want in reference.EXPECTED_X.items():
        assert _ref_entry(x, a, c) == pytest.approx(want, abs=1e-3)


def test_reference_importance_ranking():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    s = similarity(g, normalization=RAW_CLIPPED)
    x = social_distance(b / 2.0, s, alpha=0.5, beta=0.5)
    scores = importance_scores(g, x)
    assert scores.shape == (4,)
    assert scores.argmax() == 0
    assert scores.argmin() == 3


def test_reference_golden_checks_all_pass():
    rows = reference.golden_checks()
    assert all(r.ok for r in rows)
    assert len(rows) == (len(reference.EXPECTED_B) + len(reference.EXPECTED_Q)
                         + len(reference.EXPECTED_X) + 2)


def test_reference_golden_checks_flag_wrong_weights():
    rows = reference.golden_checks(alpha=0.9, beta=0.1)
    assert any(not r.ok for r in rows)
    # only the blended-distance entries should move
    assert all(r.ok for r in rows if r.name.startswith(("B[", "Q[")))


def test_reference_golden_checks_flag_wrong_denominator(monkeypatch):
    # betweenness normalized by 16 instead of (V-1)(V-2) = 12
    monkeypatch.setattr(reference, "edge_betweenness",
                        lambda g: edge_betweenness(g) * 12.0 / 16.0)
    rows = reference.golden_checks()
    assert any(not r.ok for r in rows if r.name.startswith("B["))


# --------------------------------------------------------------------------
# similarity properties
# --------------------------------------------------------------------------

def test_similarity_matches_direct_sum_on_random_graphs():
    # independent recomputation straight from the definition:
    # Q[m][n] = sum over common neighbours z of 1/degree(z)
    rng = np.random.default_rng(7)
    for _ in range(50):
        V = int(rng.integers(3, 9))
        g = _random_graph(rng, V, float(rng.uniform(0.2, 0.8)))
        q = common_neighbours(g)
        adj = g.adjacency
        deg = adj.sum(axis=1)
        for m in range(V):
            for n in range(V):
                if m == n:
                    assert q[m, n] == 0.0
                    continue
                want = sum(1.0 / deg[z] for z in range(V)
                           if adj[m, z] and adj[n, z])
                assert q[m, n] == pytest.approx(want, abs=1e-12)


def test_similarity_saw_columns_peak_at_one():
    rng = np.random.default_rng(11)
    g = _random_graph(rng, 7, 0.5)
    s = similarity(g, normalization=SAW)
    col_max = common_neighbours(g).max(axis=0)
    for col in range(7):
        colvals = s[:, col]
        if col_max[col] > 0:
            assert colvals.max() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(colvals == 0.0)


def test_similarity_grows_with_added_common_neighbour():
    # wiring a fresh degree-2 vertex to both endpoints adds exactly 1/2
    base = graph_from_edges((
        ((("scbs", 0)), ("ue", 0)),
        ((("ue", 0)), ("ue", 1)),
    ), 1, 3)
    q0 = common_neighbours(base)
    i_s, i_u1 = 0, 2   # scbs0 and ue1 share no neighbour apart from ue0
    extended = graph_from_edges((
        ((("scbs", 0)), ("ue", 0)),
        ((("ue", 0)), ("ue", 1)),
        ((("scbs", 0)), ("ue", 3)),
        ((("ue", 1)), ("ue", 3)),
    ), 1, 4)
    q1 = common_neighbours(extended)
    assert q1[i_s, i_u1] == pytest.approx(q0[i_s, i_u1] + 0.5, abs=1e-12)


def test_similarity_zero_across_components():
    g = graph_from_edges((
        ((("scbs", 0)), ("ue", 0)),
        ((("ue", 1)), ("ue", 2)),
        ((("ue", 1)), ("ue", 3)),
        ((("ue", 2)), ("ue", 3)),
    ), 1, 4)
    q = common_neighbours(g)
    # scbs0/ue0 component vs the ue1-ue2-ue3 triangle
    for a in (0, 1):
        for b in (2, 3, 4):
            assert q[a, b] == 0.0


def test_similarity_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        similarity(reference.reference_graph(), normalization="minmax")


# --------------------------------------------------------------------------
# permutation equivariance
# --------------------------------------------------------------------------

def test_metrics_are_permutation_equivariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        V = int(rng.integers(4, 9))
        g = _random_graph(rng, V, 0.5)
        perm = rng.permutation(V)
        adj_p = g.adjacency[np.ix_(perm, perm)]
        g_p = SocialGraph(n_scbs=1, adjacency=adj_p.astype(np.int8))
        b, q = edge_betweenness(g), common_neighbours(g)
        b_p, q_p = edge_betweenness(g_p), common_neighbours(g_p)
        np.testing.assert_allclose(b_p, b[np.ix_(perm, perm)], atol=1e-9)
        np.testing.assert_allclose(q_p, q[np.ix_(perm, perm)], atol=1e-9)


# --------------------------------------------------------------------------
# distance and importance
# --------------------------------------------------------------------------

def test_social_distance_weight_validation():
    g = reference.reference_graph()
    b, s = edge_betweenness(g), similarity(g)
    with pytest.raises(ConfigError):
        social_distance(b, s, alpha=0.7, beta=0.7)
    with pytest.raises(ConfigError):
        social_distance(b, s, alpha=-0.1, beta=1.1)


def test_social_distance_is_symmetric():
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 8, 0.4)
    x = social_pipeline(g)
    np.testing.assert_allclose(x, x.T, atol=1e-12)


def test_social_distance_endpoints_recover_inputs():
    g = reference.reference_graph()
    b, s = edge_betweenness(g), similarity(g)
    s_sym = (s + s.T) / 2.0
    only_s = social_distance(b, s, alpha=1.0, beta=0.0)
    only_b = social_distance(b, s, alpha=0.0, beta=1.0)
    np.testing.assert_allclose(only_s, s_sym, atol=1e-12)
    np.testing.assert_allclose(only_b, b, atol=1e-12)


def test_importance_scores_are_row_sums():
    g = reference.reference_graph()
    x = social_pipeline(g)
    scores = importance_scores(g, x)
    assert scores.shape == (4,)
    for m in range(4):
        assert scores[m] == pytest.approx(float(x[g.n_scbs + m].sum()), abs=1e-12)


def test_election_per_cell_with_ties_to_lowest_id():
    scores = np.array([1.0, 2.0, 2.0, 0.5, 3.0, 9.0])
    # cell 0 holds ue1 and ue2 (tied), cell 1 ue0 and ue3, cell 2 nobody,
    # cell 3 ue4; ue5 has no cell, so its top score elects nothing
    cells = np.array([1, 0, 0, 1, 3, -1])
    np.testing.assert_array_equal(elect_important_ues(scores, cells), [0, 1, 4])
    assert elect_important_ues(scores, np.full(6, -1)).shape == (0,)


# --------------------------------------------------------------------------
# construction and I/O
# --------------------------------------------------------------------------

def test_explicit_edges_reject_unknown_nodes_and_self_loops():
    for bad in (("ue", 9), ("ue", 2), ("scbs", 1), ("bs", 0), ("ue", -1)):
        with pytest.raises(InputError):
            graph_from_edges(((("ue", 0), bad),), 1, 2)
    with pytest.raises(InputError):
        graph_from_edges(((("ue", 0), ("ue", 0)),), 1, 2)


def test_vertex_numbers_scbs_first_then_ues():
    assert [vertex(("scbs", i), 2, 3) for i in range(2)] == [0, 1]
    assert [vertex(("ue", m), 2, 3) for m in range(3)] == [2, 3, 4]
    g = graph_from_edges(((("scbs", 1), ("ue", 2)),), 2, 3)
    assert g.n_scbs == 2 and g.n_vertices == 5
    assert list(zip(*np.nonzero(g.adjacency))) == [(1, 4), (4, 1)]


def test_adjacency_validation():
    bad = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int8)
    with pytest.raises(InputError):
        SocialGraph(n_scbs=0, adjacency=bad)      # asymmetric
    loop = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int8)
    with pytest.raises(InputError):
        SocialGraph(n_scbs=0, adjacency=loop)     # self-loop
    with pytest.raises(InputError):
        SocialGraph(n_scbs=4, adjacency=np.zeros((3, 3), dtype=np.int8))


def test_random_models_are_seeded_and_validated():
    a1 = gnp_adjacency(12, 0.3, 5)
    a2 = gnp_adjacency(12, 0.3, 5)
    a3 = gnp_adjacency(12, 0.3, 6)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, a3)
    for p in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            gnp_adjacency(12, p, 0)
    for k, rewire in ((4, 2.0), (4, -0.5), (-2, 0.1)):
        with pytest.raises(ConfigError):
            watts_strogatz_adjacency(12, k, rewire, 0)


def test_watts_strogatz_complete_fallback_on_tiny_rosters():
    adj = watts_strogatz_adjacency(3, 4, 0.1, 0)
    assert adj.sum() == 3 * 2  # complete graph on 3 vertices
    assert np.all(np.diag(adj) == 0)


# small seeds, and the 64-bit seeds the sweep harness hands the social model
ORACLE_SEEDS = list(range(20)) + [harness.replication_seed(1, point, rep, harness.STREAM_SOCIAL)
                                  for point in range(4) for rep in range(5)]
ORACLE_SIZES = (3, 7, 20, 60, 150)


def _oracle_seeds(n: int) -> list[int]:
    # n = 150 costs more than the smaller sizes together and takes no branch
    # they miss, so it checks every fourth seed
    return ORACLE_SEEDS if n < 150 else ORACLE_SEEDS[::4]


def _nx_adjacency(g: nx.Graph) -> np.ndarray:
    adj = np.zeros((g.number_of_nodes(),) * 2, dtype=np.int8)
    u, v = np.array(list(g.edges()), dtype=np.intp).reshape(-1, 2).T
    adj[u, v] = adj[v, u] = 1
    return adj


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_erdos_renyi_matches_networkx(n):
    for p in (0.0, 0.05, 0.3, 1.0):
        for seed in _oracle_seeds(n):
            got = gnp_adjacency(n, p, seed)
            want = _nx_adjacency(nx.gnp_random_graph(n, p, seed=seed))
            np.testing.assert_array_equal(got, want, err_msg=f"p={p} seed={seed}")


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_watts_strogatz_matches_networkx(n):
    for k in (2, 4, 6):
        if k > n:      # networkx refuses k > n; the fallback test covers it
            continue
        for rewire in (0.0, 0.1, 0.5, 1.0):
            for seed in _oracle_seeds(n):
                got = watts_strogatz_adjacency(n, k, rewire, seed)
                want = _nx_adjacency(nx.watts_strogatz_graph(n, k, rewire, seed=seed))
                np.testing.assert_array_equal(got, want, err_msg=f"k={k} rewire={rewire} seed={seed}")


def test_import_loads_neither_networkx_nor_scipy():
    # nor the process pool, which only sweeps with workers > 1 use
    probe = ("import sys, socialcell; "
             "print(sorted(m for m in sys.modules if m.startswith(('networkx', 'scipy')) "
             "or m == 'concurrent.futures.process'))")
    src = str(Path(socialcell.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_edge_list_loads_hand_written_file(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# one SCBS, three UEs\n"
                    "\n"
                    "scbs0 ue0\n"
                    "  ue0\tue2   # a friendship\n"
                    "ue2 ue0\n"
                    "   \n"
                    "ue1 scbs0\n")
    g = load_edge_list(path, 1, 3)
    assert g.n_scbs == 1
    want = np.zeros((4, 4), dtype=np.int8)
    for u, v in ((0, 1), (1, 3), (2, 0)):
        want[u, v] = want[v, u] = 1
    np.testing.assert_array_equal(g.adjacency, want)

def test_edge_list_load_reports_line_numbers(tmp_path):
    # a malformed line, a junk label, a node the graph lacks and a self-loop,
    # each on line 3 after a comment
    path = tmp_path / "edges.txt"
    for bad, what in (("ue0 ue1 ue2", "two node labels"), ("ue0 bs1", "label"),
                      ("scbs0 ue3", "ue3"), ("ue0 ue0", "self-loop")):
        path.write_text(f"# one SCBS, three UEs\nscbs0 ue0\n{bad}\nue1 ue2\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: .*{what}"):
            load_edge_list(path, 1, 3)
