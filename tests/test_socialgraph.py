"""Social graph metrics: oracle checks, reference values, and properties.

The brute-force oracle below enumerates every simple path between every
vertex pair by plain DFS and keeps the shortest ones; it shares no code or
algorithmic structure with the production (Brandes-style) implementation.
"""

import numpy as np
import pytest

from socialcell import reference
from socialcell.errors import ConfigError, InputError
from socialcell.socialgraph import (RAW_CLIPPED, SAW, BetweennessMatrix,
                                    ErdosRenyi, ExplicitEdges, SocialGraph,
                                    WattsStrogatz, build_social_graph,
                                    default_roster,
                                    edge_betweenness, elect_important_ues,
                                    importance_scores, load_edge_list,
                                    matrix_to_csv, save_edge_list, similarity,
                                    social_distance, social_pipeline)


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

def _random_graph(rng: np.random.Generator, n_vertices: int, p: float) -> SocialGraph:
    adj = np.zeros((n_vertices, n_vertices), dtype=np.int8)
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1
    return SocialGraph(vertices=default_roster(1, n_vertices - 1), adjacency=adj)


def test_oracle_reproduces_hand_counts_on_reference_graph():
    # raw traversal counts for the five-node reference network, worked out
    # by listing the shortest paths by hand
    g = reference.reference_graph()
    raw = brute_force_edge_betweenness(g.adjacency.astype(float), 1.0)
    lab = {f"{k}{i}": v for v, (k, i) in enumerate(g.vertices)}
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
        assert raw[lab[a], lab[b]] == pytest.approx(want, abs=1e-12)


def test_brandes_equals_brute_force_on_random_graphs():
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        V = int(rng.integers(3, 9))
        p = float(rng.uniform(0.15, 0.85))
        g = _random_graph(rng, V, p)
        b = edge_betweenness(g)
        want = brute_force_edge_betweenness(g.adjacency.astype(float), b.denominator)
        np.testing.assert_allclose(b.values, want, atol=1e-9, rtol=0)


def test_betweenness_zero_off_edges():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    assert np.all(b.values[g.adjacency == 0] == 0.0)


def test_betweenness_denominator_default_and_override():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    assert b.denominator == 12  # (V-1)(V-2) for V=5
    forced = edge_betweenness(g, denominator=16.0)
    np.testing.assert_allclose(forced.values * 16.0, b.values * 12.0, atol=1e-12)
    with pytest.raises(ConfigError):
        edge_betweenness(g, denominator=0.0)


# --------------------------------------------------------------------------
# reference-network numbers
# --------------------------------------------------------------------------

def _ref_entry(g, matrix, a, b):
    lab = {f"{k}{i}": v for v, (k, i) in enumerate(g.vertices)}
    return float(matrix[lab[a], lab[b]])


def test_reference_betweenness_values():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    for (a, c), want in reference.EXPECTED_B.items():
        assert _ref_entry(g, b.values, a, c) == pytest.approx(want, abs=1e-3)


def test_reference_similarity_values():
    g = reference.reference_graph()
    s = similarity(g)
    for (a, c), want in reference.EXPECTED_Q.items():
        assert _ref_entry(g, s.raw, a, c) == pytest.approx(want, abs=1e-3)
    # the one supra-1 raw entry is capped in raw-clipped mode
    clipped = similarity(g, normalization=RAW_CLIPPED)
    assert _ref_entry(g, s.raw, "scbs0", "ue0") == pytest.approx(7.0 / 6.0, abs=1e-9)
    assert _ref_entry(g, clipped.normalized, "scbs0", "ue0") == pytest.approx(1.0)


def test_reference_distance_values_under_documented_rescaling():
    # the reference X numbers correspond to raw-clipped S blended with B/2
    g = reference.reference_graph()
    b = edge_betweenness(g)
    s = similarity(g, normalization=RAW_CLIPPED)
    half = BetweennessMatrix(values=b.values / 2.0, denominator=b.denominator * 2.0)
    x = social_distance(half, s, alpha=0.5, beta=0.5)
    for (a, c), want in reference.EXPECTED_X.items():
        assert _ref_entry(g, x.values, a, c) == pytest.approx(want, abs=1e-3)


def test_reference_importance_ranking():
    g = reference.reference_graph()
    b = edge_betweenness(g)
    s = similarity(g, normalization=RAW_CLIPPED)
    half = BetweennessMatrix(values=b.values / 2.0, denominator=b.denominator * 2.0)
    x = social_distance(half, s, alpha=0.5, beta=0.5)
    scores = importance_scores(g, x)
    assert set(scores) == {0, 1, 2, 3}
    assert max(scores, key=scores.get) == 0
    assert min(scores, key=scores.get) == 3


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


def test_reference_golden_checks_flag_wrong_denominator():
    rows = reference.golden_checks(denominator=16.0)
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
        q = similarity(g).raw
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
    for col in range(7):
        colvals = s.normalized[:, col]
        if s.column_max[col] > 0:
            assert colvals.max() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(colvals == 0.0)


def test_similarity_grows_with_added_common_neighbour():
    # wiring a fresh degree-2 vertex to both endpoints adds exactly 1/2
    roster = default_roster(1, 3)
    base = build_social_graph(roster, ExplicitEdges(edges=(
        ((("scbs", 0)), ("ue", 0)),
        ((("ue", 0)), ("ue", 1)),
    )))
    q0 = similarity(base).raw
    i_s, i_u1 = 0, 2   # scbs0 and ue1 share no neighbour apart from ue0
    extended = build_social_graph(default_roster(1, 4), ExplicitEdges(edges=(
        ((("scbs", 0)), ("ue", 0)),
        ((("ue", 0)), ("ue", 1)),
        ((("scbs", 0)), ("ue", 3)),
        ((("ue", 1)), ("ue", 3)),
    )))
    q1 = similarity(extended).raw
    assert q1[i_s, i_u1] == pytest.approx(q0[i_s, i_u1] + 0.5, abs=1e-12)


def test_similarity_zero_across_components():
    roster = default_roster(1, 4)
    g = build_social_graph(roster, ExplicitEdges(edges=(
        ((("scbs", 0)), ("ue", 0)),
        ((("ue", 1)), ("ue", 2)),
        ((("ue", 1)), ("ue", 3)),
        ((("ue", 2)), ("ue", 3)),
    )))
    q = similarity(g).raw
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
        g_p = SocialGraph(vertices=tuple(g.vertices[i] for i in perm),
                          adjacency=adj_p.astype(np.int8))
        b, s = edge_betweenness(g), similarity(g)
        b_p, s_p = edge_betweenness(g_p), similarity(g_p)
        np.testing.assert_allclose(b_p.values, b.values[np.ix_(perm, perm)],
                                   atol=1e-9)
        np.testing.assert_allclose(s_p.raw, s.raw[np.ix_(perm, perm)],
                                   atol=1e-9)


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
    _, _, x = social_pipeline(g)
    np.testing.assert_allclose(x.values, x.values.T, atol=1e-12)


def test_social_distance_endpoints_recover_inputs():
    g = reference.reference_graph()
    b, s = edge_betweenness(g), similarity(g)
    s_sym = (s.normalized + s.normalized.T) / 2.0
    only_s = social_distance(b, s, alpha=1.0, beta=0.0)
    only_b = social_distance(b, s, alpha=0.0, beta=1.0)
    np.testing.assert_allclose(only_s.values, s_sym, atol=1e-12)
    np.testing.assert_allclose(only_b.values, b.values, atol=1e-12)


def test_importance_scores_are_row_sums():
    g = reference.reference_graph()
    _, _, x = social_pipeline(g)
    scores = importance_scores(g, x)
    for v in g.ue_indices():
        ue_id = g.vertices[v][1]
        assert scores[ue_id] == pytest.approx(float(x.values[v].sum()), abs=1e-12)


def test_election_per_cell_with_ties_to_lowest_id():
    scores = {0: 1.0, 1: 2.0, 2: 2.0, 3: 0.5, 4: 3.0}
    ranking = elect_important_ues(scores, {0: [1, 2], 1: [0, 3], 2: [], 3: [4]})
    assert ranking.elected == {0: 1, 1: 0, 2: None, 3: 4}
    assert ranking.relay_ues == (0, 1, 4)


def test_election_rejects_shared_or_unscored_ues():
    with pytest.raises(InputError):
        elect_important_ues({0: 1.0, 1: 2.0}, {0: [0, 1], 1: [1]})
    with pytest.raises(InputError):
        elect_important_ues({0: 1.0}, {0: [0, 5]})


# --------------------------------------------------------------------------
# construction and I/O
# --------------------------------------------------------------------------

def test_explicit_edges_reject_unknown_nodes_and_self_loops():
    roster = default_roster(1, 2)
    with pytest.raises(InputError):
        build_social_graph(roster, ExplicitEdges(edges=((("ue", 0), ("ue", 9)),)))
    with pytest.raises(InputError):
        build_social_graph(roster, ExplicitEdges(edges=((("ue", 0), ("ue", 0)),)))
    with pytest.raises(InputError):
        build_social_graph((("ue", 0), ("ue", 0)), ExplicitEdges(edges=()))


def test_adjacency_validation():
    roster = default_roster(0, 3)
    bad = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int8)
    with pytest.raises(InputError):
        SocialGraph(vertices=roster, adjacency=bad)      # asymmetric
    loop = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int8)
    with pytest.raises(InputError):
        SocialGraph(vertices=roster, adjacency=loop)     # self-loop


def test_random_models_are_seeded_and_validated():
    roster = default_roster(2, 10)
    g1 = build_social_graph(roster, ErdosRenyi(p=0.3), rng_seed=5)
    g2 = build_social_graph(roster, ErdosRenyi(p=0.3), rng_seed=5)
    g3 = build_social_graph(roster, ErdosRenyi(p=0.3), rng_seed=6)
    np.testing.assert_array_equal(g1.adjacency, g2.adjacency)
    assert not np.array_equal(g1.adjacency, g3.adjacency)
    with pytest.raises(ConfigError):
        build_social_graph(roster, ErdosRenyi(p=1.5))
    with pytest.raises(ConfigError):
        build_social_graph(roster, WattsStrogatz(neighbors=4, rewire=2.0))


def test_watts_strogatz_complete_fallback_on_tiny_rosters():
    g = build_social_graph(default_roster(1, 2), WattsStrogatz(neighbors=4))
    assert g.adjacency.sum() == 3 * 2  # complete graph on 3 vertices
    assert np.all(np.diag(g.adjacency) == 0)


def test_edge_list_round_trip(tmp_path):
    g = reference.reference_graph()
    path = tmp_path / "edges.txt"
    save_edge_list(g, path)
    back = load_edge_list(path, g.vertices)
    np.testing.assert_array_equal(back.adjacency, g.adjacency)
    assert back.vertices == g.vertices


def test_edge_list_load_reports_line_numbers(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("scbs0 ue0\nue0 ue1 ue2\n")
    with pytest.raises(InputError, match="2"):
        load_edge_list(path, default_roster(1, 3))


def test_matrix_csv_round_trip(tmp_path):
    g = reference.reference_graph()
    b = edge_betweenness(g)
    path = tmp_path / "b.csv"
    matrix_to_csv(g, b.values, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,scbs0,ue0,ue1,ue2,ue3"
    parsed = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    np.testing.assert_allclose(parsed, b.values, atol=0)
    with pytest.raises(InputError):
        matrix_to_csv(g, np.zeros((2, 2)), tmp_path / "bad.csv")
