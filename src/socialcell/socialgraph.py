"""Social graph construction and the metrics used to rank relay candidates.

The graph mixes two node kinds: small cell base stations ("scbs") and user
equipments ("ue").  Vertices are numbered by one rule, not by a stored
roster: in a graph of N SCBSs, vertex i < N is scbs{i} and vertex N + m is
ue{m}.  `vertex` maps a (kind, id) node to its vertex.  A graph comes from
explicit edges (`graph_from_edges`, `load_edge_list`) or from an adjacency
drawn by `gnp_adjacency` or `watts_strogatz_adjacency`.  From the adjacency
structure we derive, each as a plain read-only (V, V) array,
  * edge betweenness B (how much shortest-path traffic an edge carries),
  * common-neighbour scores Q and their normalized similarity S,
  * the social distance X = alpha * sym(S) + beta * B,
and from X a per-UE importance score that decides which UE in each cell is
promoted to relay duty.

Edge betweenness follows Brandes (J. Math. Sociol. 2001; the edge variant in
Social Networks 2008): a breadth-first search from every source, then
dependencies pushed back from the leaves of its shortest-path DAG.  The
searches of a pass advance together, one BFS level at a time, in numpy.
`grouped_edge_betweenness` takes a list of graphs with one vertex count and
yields each graph's B in order, and `edge_betweenness` is the one-graph
case.  One rule (`_groups`) lays out the passes: whole graphs share a pass
while their arc visits fit `_GROUP_BUDGET`, since a small graph's levels
cost mostly numpy call overhead, and a larger graph runs alone, in slices
of its sources of `_ARC_BUDGET` arcs.  Every
floating-point sum is taken in the order a one-source deque BFS takes it, so
the result is bit-identical to that loop, not merely close, and no graph
reads another's rows, so a graph gets the same values in any group: the
relay election breaks ties by UE id, and drift in the last digit could flip
a relay.  Three order rules give that, with no comparison sort:
  * sigma (path counts) of a vertex adds its parents' sigma in the parents'
    pop order;
  * the vertices first reached on a level are queued in the order of the
    first arc reaching them;
  * delta (dependency) of a vertex adds its children's shares by descending
    pop position of the child, read from the arcs listed at the child's side.

The random edge models draw from `random.Random(seed)` in exactly the order
NetworkX 3.x's `gnp_random_graph` and `watts_strogatz_graph` do, so a seed
gives the same graph as those generators (the tests hold them to it).  Equal
graphs keep every sweep byte-identical to one whose graphs NetworkX drew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, InputError

SCBS = "scbs"
UE = "ue"

#: (kind, network id) pair naming a node, e.g. ("ue", 3) for ue3.
NodeRef = tuple[str, int]

#: Social distance values below this floor are clamped before any division.
X_FLOOR = 0.01


def parse_node_label(text: str) -> NodeRef:
    """Node reference of a text label, e.g. "ue3" -> ("ue", 3); raises
    InputError on junk."""
    text = text.strip()
    for kind in (SCBS, UE):
        if text.startswith(kind) and text[len(kind):].isdigit():
            return (kind, int(text[len(kind):]))
    raise InputError(f"unrecognized node label {text!r}")


def vertex(ref: NodeRef, n_scbs: int, n_ues: int) -> int:
    """Vertex of node `ref` in a graph of n_scbs SCBSs and n_ues UEs:
    scbs{i} is vertex i and ue{m} is vertex n_scbs + m.  Raises InputError
    for a node the graph does not have."""
    kind, nid = ref
    if kind == SCBS and 0 <= nid < n_scbs:
        return nid
    if kind == UE and 0 <= nid < n_ues:
        return n_scbs + nid
    raise InputError(f"unknown node {kind}{nid}")


@dataclass(frozen=True)
class SocialGraph:
    """Undirected, unweighted graph over N SCBSs and the UEs.

    n_scbs     -- N: vertex i < N is scbs{i}, vertex N + m is ue{m}
    adjacency  -- (V, V) 0/1 matrix, symmetric, zero diagonal
    """

    n_scbs: int
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix")
        if not 0 <= self.n_scbs <= adj.shape[0]:
            raise InputError(f"{self.n_scbs} SCBSs do not fit a {adj.shape[0]}-node graph")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be symmetric")
        if np.any(np.diagonal(adj) != 0):
            raise InputError("self-loops are not allowed")
        if not np.all((adj == 0) | (adj == 1)):
            raise InputError("adjacency entries must be 0 or 1")
        adj = adj.astype(np.int8)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]


# --------------------------------------------------------------------------
# edge models
# --------------------------------------------------------------------------

def _vertex_pair(a: NodeRef, b: NodeRef, n_scbs: int, n_ues: int) -> tuple[int, int]:
    """Vertices of the edge a-b; raises InputError for an unknown node or a
    self-loop."""
    u, v = vertex(a, n_scbs, n_ues), vertex(b, n_scbs, n_ues)
    if u == v:
        raise InputError(f"self-loop on {a[0]}{a[1]}")
    return u, v


def graph_from_edges(edges, n_scbs: int, n_ues: int) -> SocialGraph:
    """SocialGraph over n_scbs SCBSs and n_ues UEs with exactly the given
    (NodeRef, NodeRef) edges; repeats are merged."""
    V = n_scbs + n_ues
    adj = np.zeros((V, V), dtype=np.int8)
    for a, b in edges:
        u, v = _vertex_pair(a, b, n_scbs, n_ues)
        adj[u, v] = adj[v, u] = 1
    return SocialGraph(n_scbs=n_scbs, adjacency=adj)


def gnp_adjacency(V: int, p: float, seed: int) -> np.ndarray:
    """G(n, p) over V vertices: one draw per vertex pair, pairs in
    `itertools.combinations` order (which is also `np.triu_indices` order);
    p <= 0 and p >= 1 draw nothing."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability must be in [0, 1], got {p}")
    if p >= 1:
        return 1 - np.eye(V, dtype=np.int8)
    adj = np.zeros((V, V), dtype=np.int8)
    if p > 0:
        rng = random.Random(int(seed))
        u, v = np.triu_indices(V, 1)
        hit = np.array([rng.random() for _ in range(len(u))]) < p
        adj[u[hit], v[hit]] = adj[v[hit], u[hit]] = 1
    return adj


def watts_strogatz_adjacency(V: int, k: int, rewire: float, seed: int) -> np.ndarray:
    """Watts-Strogatz over V vertices: a ring lattice with links to the k // 2
    nearest vertices on each side, whose edges (u, u + j) are taken by j,
    then u, and each rewired with probability `rewire` to a uniform vertex
    that is neither u nor a neighbour of u.  As in NetworkX, an edge whose u
    already links to every other vertex keeps its end, after two draws."""
    if k < 0:
        raise ConfigError(f"neighbor count must be >= 0, got {k}")
    if not 0.0 <= rewire <= 1.0:
        raise ConfigError(f"rewire probability must be in [0, 1], got {rewire}")
    if k >= V:
        # tiny graph: the ring lattice degenerates to the complete graph
        return 1 - np.eye(V, dtype=np.int8)
    rng = random.Random(int(seed))
    adj = np.zeros((V, V), dtype=np.int8)
    ring = [(u, (u + j) % V) for j in range(1, k // 2 + 1) for u in range(V)]
    for u, v in ring:
        adj[u, v] = adj[v, u] = 1
    nodes = range(V)
    for u, v in ring:
        if rng.random() < rewire:
            w = rng.choice(nodes)
            while w == u or adj[u, w]:
                w = rng.choice(nodes)
                if adj[u].sum() >= V - 1:
                    break
            else:
                adj[u, v] = adj[v, u] = 0
                adj[u, w] = adj[w, u] = 1
    return adj


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# --------------------------------------------------------------------------
# edge betweenness
# --------------------------------------------------------------------------

#: Arcs (an edge is two arcs, one per direction) that the searches of one
#: pass of a graph too large to share a pass (`_GROUP_BUDGET`) expand in
#: all: it runs in slices of max(1, _ARC_BUDGET // arcs) sources, about 60
#: for a wide-m500 graph (2,150 arcs).  Time of `edge_betweenness` over the
#: seed-1 graphs of each workload, one graph a call (median of 9 rounds;
#: one N32/M2000 graph, 3 rounds; 2-vCPU VM, numpy 2.4) and the largest
#: tracemalloc peak of one call:
#:
#:   budget     desk (160)    wide (3)      dense (24)    N32/M2000
#:   2^16       0.230 s       0.187 s       0.090 s       1.04 s
#:   2^17       0.236 s       0.172 s       0.083 s       0.96 s
#:   2^18       0.232 s       0.170 s       0.084 s       0.92 s
#:   peak 2^16  0.55 MB       2.29 MB       2.26 MB       33.5 MB
#:   peak 2^17  0.55 MB       3.94 MB       2.75 MB       33.5 MB
#:   peak 2^18  0.55 MB       7.70 MB       2.75 MB       34.0 MB
#:
#: 2^16 is slower on wide and at N32/M2000; 2^18 doubles wide's peak for
#: a few percent.  (64 sources a block, before arc budgets: 0.43, 0.32,
#: 0.15 and 1.9 s.)
_ARC_BUDGET = 1 << 17

#: Arc visits (vertices times arcs, the work of all of a graph's sources)
#: that the whole graphs sharing one pass add up to, at most (`_groups`); a
#: graph that alone exceeds it runs alone, in slices of `_ARC_BUDGET`.
#: Sharing a pass cuts the numpy calls a graph costs (about 37 a BFS
#: level), but a larger pass spends more per element.  The seed-1 graphs
#: of desk-sweep, grouped by point as the harness groups them (median of
#: 15 interleaved rounds, 2-vCPU VM, numpy 2.4), and the largest
#: tracemalloc peak of one `grouped_edge_betweenness` call:
#:
#:   budget             one a call   2^15      2^16      2^17
#:   desk (160)         0.233 s      0.224 s   0.178 s   0.205 s
#:   graphs a pass      1            1.1       3.1       6.7
#:   peak of one pass   0.61 MB      0.90 MB   1.72 MB   3.44 MB
#:
#: Each dense-stabilize graph (V = 108, 70k-84k arc visits) exceeds 2^16
#: and any two exceed 2^17, so they run one a pass at each budget (0.108 s
#: for 24), as wide-m500's (1.1M) do.
_GROUP_BUDGET = 1 << 16


def _groups(arcs: Sequence[int], V: int) -> list[tuple[list[int], int]]:
    """The graphs of each group and the sources of each of its passes.

    The graphs have `arcs[g]` arcs and V vertices each.  Consecutive whole
    graphs share one pass while their arc visits (V times arcs, V for an
    edgeless graph) add up to at most `_GROUP_BUDGET`, so such a group
    runs its V sources in one pass.  A graph of more visits is a group
    alone, and runs in slices of max(1, _ARC_BUDGET // arcs) sources.
    """
    groups, room = [], 0
    for g, cost in enumerate(arcs):
        visits = V * max(cost, 1)
        if visits > room:
            room = _GROUP_BUDGET
            groups.append(([], V if visits <= room else max(1, _ARC_BUDGET // max(cost, 1))))
        groups[-1][0].append(g)
        room -= visits
    return groups


def _block_dependencies(graph_of: np.ndarray, sources: np.ndarray, step: np.ndarray,
                        first_arc: np.ndarray, degree: np.ndarray, edge: np.ndarray,
                        n_edges: int, V: int) -> np.ndarray:
    """Dependency of every row of a pass on every edge of its graph, as
    (rows, n_edges).

    Row b is the source sources[b] of graph graph_of[b].  The graphs' arcs
    are laid end to end, graph by graph and each graph's by tail, then
    head: vertex v of graph g has degree[g * V + v] arcs from
    first_arc[g * V + v] on, and arc i runs from its tail to tail + step[i]
    and belongs to edge edge[i] of its graph.  Row b holds, per edge of its
    graph (edge ids are per graph, so columns past a graph's edge count stay
    zero), the value Brandes' accumulation credits to that edge for its
    source (zero off the source's shortest-path DAG).  Each level of every
    search of the pass is expanded at once, and every floating-point sum is
    ordered as in a one-source deque BFS that scans neighbours by ascending
    id:

      * sigma: the arcs out of a level are listed by pop position of the
        tail, then head id, and `np.bincount` sums in array order, so a
        vertex adds its parents' sigma in their pop order;
      * queue order: `np.minimum.at` marks the first arc reaching each new
        vertex, and the new vertices are queued in the order of those arcs,
        which is the deque's order;
      * delta: expanding a level also lists the DAG arcs into it from the
        child's side, by pop position of the child, then parent id; summed in
        reverse, each parent adds its children by descending pop position,
        the order of the deque's reversed pops.

    Search state is indexed by the flat key row * V + vertex, and so are the
    degree and first arc of each row's vertices.  A row reads only its own
    keys and its own graph's arcs, so its values do not depend on the other
    rows of the pass.  `pos` holds a reached key's position in its level
    (its queue order), and while a level is being found, the first arc that
    reaches each new key.  A level keeps its keys and sigma, and the
    (parent position, child position, edge) of its DAG arcs.
    """
    B = len(sources)
    degree = degree.reshape(-1, V)[graph_of].ravel()
    first_arc = first_arc.reshape(-1, V)[graph_of].ravel()
    dist = np.full(B * V, -1)
    pos = np.full(B * V, np.iinfo(np.intp).max)
    f_key = np.arange(B) * V + sources
    sigma = np.ones(B)
    dist[f_key] = 0
    pos[f_key] = np.arange(B)
    levels = []
    depth = 0
    while len(f_key):
        # every arc out of the level, by pop position of the tail, then head id
        deg = degree[f_key]
        tail = np.repeat(np.arange(len(f_key)), deg)   # the tail's position in the level
        arc = (first_arc[f_key] - np.cumsum(deg) + deg)[tail]
        arc += np.arange(len(tail))
        head = f_key[tail]
        head += step[arc]
        reach = dist[head]
        if depth:
            back = np.flatnonzero(reach == depth - 1)
            levels.append((f_key, sigma, up_sigma, pos[head[back]], tail[back],
                           edge[arc[back]]))
        fresh = np.flatnonzero(reach < 0)
        h = head[fresh]
        np.minimum.at(pos, h, fresh)
        f_key = h[pos[h] == fresh]
        pos[f_key] = np.arange(len(f_key))
        up_sigma, sigma = sigma, np.bincount(pos[h], weights=sigma[tail[fresh]],
                                             minlength=len(f_key))
        depth += 1
        dist[f_key] = depth

    deps = np.zeros((B, n_edges))
    delta = 0.0                       # the deepest level has no children
    for key, sigma, up_sigma, parent, child, d_edge in reversed(levels):
        c = up_sigma[parent] * ((1.0 + delta) / sigma)[child]
        deps[key[child] // V, d_edge] = c
        delta = np.bincount(parent[::-1], weights=c[::-1], minlength=len(up_sigma))
    return deps


def _group_totals(arcs: list, edges: list, per: int, V: int) -> list[np.ndarray]:
    """Raw shortest-path traversal count of each edge of each graph of a
    group, by edge id, from passes of `per` sources of every graph.

    `arcs` holds each graph's (tail, head) arcs, by tail, then head, and
    `edges` each arc's edge id.  Each edge adds its graph's per-source
    dependencies in source order, as the per-source loop does: `np.cumsum`
    down a graph's rows of a pass, from the graph's running total, adds row
    by row, where a `sum` would round differently.  No graph adds another's
    rows, so each graph's counts equal those of the graph run alone.
    """
    degree = np.concatenate([np.bincount(src, minlength=V) for src, _ in arcs])
    first_arc = np.cumsum(degree) - degree
    step = np.concatenate([dst - src for src, dst in arcs])
    edge = np.concatenate(edges)
    totals = [np.zeros(len(src) // 2) for src, _ in arcs]
    n_edges = max(map(len, totals))
    for s in range(0, V, per):
        sources = np.arange(s, min(s + per, V))
        deps = _block_dependencies(np.repeat(np.arange(len(arcs)), len(sources)),
                                   np.tile(sources, len(arcs)), step, first_arc,
                                   degree, edge, n_edges, V)
        for g, own in enumerate(np.split(deps, len(arcs))):
            own = own[:, :len(totals[g])]
            own[0] += totals[g]
            totals[g] = np.cumsum(own, axis=0, out=own)[-1].copy()
    return totals


def _count_matrix(arcs: tuple, edge: np.ndarray, total: np.ndarray, V: int) -> np.ndarray:
    """(V, V) array of each arc's edge count `total[edge]`, zero off the arcs."""
    c = np.zeros((V, V))
    c[arcs] = total[edge]
    return c


def _edge_counts(adjacencies: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Raw shortest-path traversal counts per edge of each graph, (V, V)
    each, yielded in order.

    The graphs share V.  They run in the groups of `_groups`, and each
    group's arcs and edge ids are laid out only while it runs.  Summing
    over all sources counts every unordered pair twice, so the caller
    halves the result.
    """
    V = adjacencies[0].shape[0]
    for graphs, per in _groups([int(np.count_nonzero(adj)) for adj in adjacencies], V):
        arcs = [np.nonzero(adjacencies[g]) for g in graphs]     # by tail, then head
        # both arcs of an undirected edge share one edge index, numbered per graph
        edges = [np.unique(np.minimum(src, dst) * V + np.maximum(src, dst),
                           return_inverse=True)[1] for src, dst in arcs]
        yield from map(_count_matrix, arcs, edges, _group_totals(arcs, edges, per, V),
                       repeat(V))


def grouped_edge_betweenness(graphs: Sequence[SocialGraph]) -> Iterator[np.ndarray]:
    """Edge betweenness of every edge of each graph, as read-only (V, V)
    arrays yielded in order; the graphs must share their vertex count V.

    Raw counts are normalized by (V-1)(V-2), floored at 1 so the two-node
    graph stays finite.  B[u][v] is zero wherever there is no edge.

    The raw counts come from Brandes' algorithm run on passes of (graph,
    source) rows laid out by `_groups`: whole graphs share a pass up to
    `_GROUP_BUDGET` arc visits, and a larger graph runs alone in slices of
    `_ARC_BUDGET` arcs.  Every sum is ordered as in a per-source deque BFS
    (see the module docstring), so the values are bit-identical to that
    loop's, however the graphs are grouped and split.  A graph's array is
    made as it is taken, and none is kept once yielded.
    """
    if not graphs:
        return iter(())
    V = graphs[0].n_vertices
    if V < 2:
        raise InputError("betweenness needs at least two vertices")
    if any(g.n_vertices != V for g in graphs):
        raise InputError("graphs searched together must have the same vertex count")
    denominator = float(max((V - 1) * (V - 2), 1))

    def normalized(b):
        b /= 2.0
        b /= denominator
        return _read_only(b)

    return map(normalized, _edge_counts([g.adjacency for g in graphs]))


def edge_betweenness(g: SocialGraph) -> np.ndarray:
    """Edge betweenness of one graph, read-only (V, V): the one-graph case of
    `grouped_edge_betweenness`."""
    return next(grouped_edge_betweenness([g]))


# --------------------------------------------------------------------------
# similarity
# --------------------------------------------------------------------------

SAW = "saw"
RAW_CLIPPED = "raw-clipped"


def common_neighbours(g: SocialGraph) -> np.ndarray:
    """Raw common-neighbour scores Q, read-only (V, V).

    Q[m][n] sums 1/degree(z) over the common neighbours z of m and n; pairs
    in different components score zero, because a common neighbour would put
    them in the same component.  The diagonal is zero.
    """
    adj = g.adjacency.astype(float)
    deg = adj.sum(axis=1)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    q = (adj * inv_deg[np.newaxis, :]) @ adj
    np.fill_diagonal(q, 0.0)
    return _read_only(q)


def similarity(g: SocialGraph, normalization: str = SAW) -> np.ndarray:
    """Normalized common-neighbour similarity S, read-only (V, V).

    "saw" rescales each column of Q by its maximum; "raw-clipped" instead
    caps Q at 1.0, which is handy when comparing against references that
    report Q itself.
    """
    if normalization not in (SAW, RAW_CLIPPED):
        raise ConfigError(f"unknown similarity normalization {normalization!r}")
    q = common_neighbours(g)
    if normalization == SAW:
        col_max = q.max(axis=0)
        s = np.divide(q, col_max[np.newaxis, :],
                      out=np.zeros_like(q), where=col_max > 0)
    else:
        s = np.minimum(q, 1.0)
    return _read_only(s)


# --------------------------------------------------------------------------
# social distance and importance
# --------------------------------------------------------------------------

def social_distance(b: np.ndarray, s: np.ndarray,
                    alpha: float = 0.5, beta: float = 0.5) -> np.ndarray:
    """Blend X = alpha * sym(S) + beta * B of betweenness B and similarity
    S, read-only (V, V).

    Column-wise normalization can leave S slightly asymmetric, so S is
    symmetrized as (S + S^T) / 2 before blending.  alpha and beta must be
    convex weights (sum to one within 1e-9).
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ConfigError(f"alpha/beta must lie in [0, 1], got {alpha}, {beta}")
    if abs(alpha + beta - 1.0) > 1e-9:
        raise ConfigError(f"alpha + beta must equal 1, got {alpha + beta}")
    if b.shape != s.shape:
        raise InputError("betweenness and similarity matrices differ in shape")
    s_sym = (s + s.T) / 2.0
    return _read_only(alpha * s_sym + beta * b)


def importance_scores(g: SocialGraph, x: np.ndarray) -> np.ndarray:
    """Importance of each UE, indexed by UE id: its row sum of X over every
    vertex (the full-row sum, sliced, so the floats match any one UE's)."""
    if x.shape[0] != g.n_vertices:
        raise InputError("distance matrix does not match the graph")
    return x.sum(axis=1)[g.n_scbs:]


def elect_important_ues(scores: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Relay UEs, ascending: the highest-scoring member of each non-empty cell.

    `cells[m]` is the SCBS serving UE m (its max-RSSI cell), -1 for none;
    `scores[m]` is its importance.  Ties go to the lowest UE id.
    """
    relays = [members[np.argmax(scores[members])]
              for members in (np.flatnonzero(cells == c)
                              for c in np.unique(cells[cells >= 0]))]
    return np.sort(np.array(relays, dtype=np.int64))


def social_pipelines(graphs: Sequence[SocialGraph], alpha: float = 0.5, beta: float = 0.5,
                     normalization: str = SAW) -> Iterator[np.ndarray]:
    """Social distance X of each graph, yielded in order: betweenness ->
    similarity -> distance, the graphs' betweenness from one
    `grouped_edge_betweenness` stream, which gives each graph the values it
    gets alone.  None of a graph's arrays is kept once its X is yielded."""
    return map(lambda g, b: social_distance(b, similarity(g, normalization=normalization),
                                            alpha=alpha, beta=beta),
               graphs, grouped_edge_betweenness(graphs))


def social_pipeline(g: SocialGraph, alpha: float = 0.5, beta: float = 0.5,
                    normalization: str = SAW) -> np.ndarray:
    """Social distance X of g: the one-graph case of `social_pipelines`."""
    return next(social_pipelines([g], alpha=alpha, beta=beta, normalization=normalization))


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------

def load_edge_list(path, n_scbs: int, n_ues: int) -> SocialGraph:
    """Read an edge-list file over n_scbs SCBSs and n_ues UEs.

    One `label label` pair per line, such as `scbs0 ue3`; `#` starts a
    comment and blank lines are skipped.  A file that cannot be read or
    decoded raises InputError naming `path`; a malformed line, a label
    naming a node the graph does not have, or a self-loop raises InputError
    naming `path:lineno`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read social edge file {path}: {exc}") from exc
    edges = []
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 2:
                raise InputError(f"expected two node labels, got {line!r}")
            a, b = parse_node_label(parts[0]), parse_node_label(parts[1])
            _vertex_pair(a, b, n_scbs, n_ues)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        edges.append((a, b))
    return graph_from_edges(edges, n_scbs, n_ues)
