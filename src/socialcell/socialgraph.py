"""Social graph construction and the metrics used to rank relay candidates.

The graph mixes two node kinds: small cell base stations ("scbs") and user
equipments ("ue").  From the adjacency structure we derive
  * edge betweenness (how much shortest-path traffic an edge carries),
  * a common-neighbour similarity score per node pair,
  * a combined social distance matrix X = alpha * S + beta * B,
and from X a per-UE importance score that decides which UE in each cell is
promoted to relay duty.

Edge betweenness follows Brandes (J. Math. Sociol. 2001): a breadth-first
search from every source, then dependencies pushed back from the leaves of
its shortest-path DAG.  The searches of a block of sources advance together,
one BFS level at a time, in numpy.  Every floating-point sum is taken in the
order a one-source deque BFS takes it, so the result is bit-identical to that
loop, not merely close: the relay election breaks ties by UE id, and drift in
the last digit could flip a relay.

The random edge models draw from `random.Random(seed)` in exactly the order
NetworkX 3.x's `gnp_random_graph` and `watts_strogatz_graph` do, so a seed
gives the same graph as those generators (the tests hold them to it).  Equal
graphs keep every sweep byte-identical to one whose graphs NetworkX drew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError

SCBS = "scbs"
UE = "ue"

#: (kind, network id) pair naming a node independently of its vertex index.
NodeRef = tuple[str, int]

#: Social distance values below this floor are clamped before any division.
X_FLOOR = 0.01


def node_label(ref: NodeRef) -> str:
    """Text form of a node reference, e.g. ("ue", 3) -> "ue3"."""
    kind, nid = ref
    return f"{kind}{nid}"


def parse_node_label(text: str) -> NodeRef:
    """Inverse of :func:`node_label`; raises InputError on junk."""
    text = text.strip()
    for kind in (SCBS, UE):
        if text.startswith(kind) and text[len(kind):].isdigit():
            return (kind, int(text[len(kind):]))
    raise InputError(f"unrecognized node label {text!r}")


@dataclass(frozen=True)
class SocialGraph:
    """Undirected, unweighted graph over a fixed roster of nodes.

    vertices   -- roster in vertex-index order (SCBS entries first by id,
                  then UEs by id, when built through build_social_graph)
    adjacency  -- (V, V) 0/1 matrix, symmetric, zero diagonal
    """

    vertices: tuple[NodeRef, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix")
        if adj.shape[0] != len(self.vertices):
            raise InputError("adjacency size does not match the roster")
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
        return len(self.vertices)

    def index(self, ref: NodeRef) -> int:
        try:
            return self.vertices.index(ref)
        except ValueError:
            raise InputError(f"node {node_label(ref)} is not in the roster") from None

    def edges(self) -> list[tuple[NodeRef, NodeRef]]:
        out = []
        for u, v in zip(*np.nonzero(np.triu(self.adjacency))):
            out.append((self.vertices[int(u)], self.vertices[int(v)]))
        return out

    def ue_indices(self) -> list[int]:
        return [i for i, (kind, _) in enumerate(self.vertices) if kind == UE]


# --------------------------------------------------------------------------
# edge models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExplicitEdges:
    """Caller-supplied edge list; no randomness involved."""
    edges: tuple[tuple[NodeRef, NodeRef], ...]


@dataclass(frozen=True)
class ErdosRenyi:
    """Independent edge probability p over every roster pair."""
    p: float


@dataclass(frozen=True)
class WattsStrogatz:
    """Ring lattice with `neighbors` links per node, rewired with prob `rewire`."""
    neighbors: int = 4
    rewire: float = 0.1


EdgeModel = ExplicitEdges | ErdosRenyi | WattsStrogatz


def build_social_graph(roster: Sequence[NodeRef], edge_model: EdgeModel,
                       rng_seed: int = 0) -> SocialGraph:
    """Build a SocialGraph over `roster` using the requested edge model.

    The random models wire the whole roster; an explicit edge list gives the
    caller full control (and ignores the seed).  Node order in the roster is
    preserved as the vertex order.
    """
    roster = tuple(roster)
    if len(set(roster)) != len(roster):
        raise InputError("duplicate node in roster")
    V = len(roster)

    if isinstance(edge_model, ExplicitEdges):
        adj = np.zeros((V, V), dtype=np.int8)
        index = {ref: i for i, ref in enumerate(roster)}
        for a, b in edge_model.edges:
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise InputError(f"edge references unknown node {node_label(missing)}")
            if a == b:
                raise InputError(f"self-loop on {node_label(a)}")
            adj[index[a], index[b]] = 1
            adj[index[b], index[a]] = 1
    elif isinstance(edge_model, ErdosRenyi):
        if not 0.0 <= edge_model.p <= 1.0:
            raise ConfigError(f"edge probability must be in [0, 1], got {edge_model.p}")
        adj = _gnp_adjacency(V, edge_model.p, random.Random(int(rng_seed)))
    elif isinstance(edge_model, WattsStrogatz):
        k = edge_model.neighbors
        if k < 0:
            raise ConfigError(f"neighbor count must be >= 0, got {k}")
        if not 0.0 <= edge_model.rewire <= 1.0:
            raise ConfigError(f"rewire probability must be in [0, 1], got {edge_model.rewire}")
        adj = _watts_strogatz_adjacency(V, k, edge_model.rewire, random.Random(int(rng_seed)))
    else:
        raise ConfigError(f"unknown edge model {edge_model!r}")

    return SocialGraph(vertices=roster, adjacency=adj)


def _gnp_adjacency(V: int, p: float, rng: random.Random) -> np.ndarray:
    """G(n, p): one draw per vertex pair, pairs in `itertools.combinations`
    order (which is also `np.triu_indices` order); p <= 0 and p >= 1 draw
    nothing."""
    if p >= 1:
        return 1 - np.eye(V, dtype=np.int8)
    adj = np.zeros((V, V), dtype=np.int8)
    if p > 0:
        u, v = np.triu_indices(V, 1)
        hit = np.array([rng.random() for _ in range(len(u))]) < p
        adj[u[hit], v[hit]] = adj[v[hit], u[hit]] = 1
    return adj


def _watts_strogatz_adjacency(V: int, k: int, p: float,
                              rng: random.Random) -> np.ndarray:
    """Watts-Strogatz: a ring lattice with links to the k // 2 nearest
    vertices on each side, whose edges (u, u + j) are taken by j, then u, and
    each rewired with probability p to a uniform vertex that is neither u nor
    a neighbour of u.  As in NetworkX, an edge whose u already links to every
    other vertex keeps its end, after two draws."""
    if k >= V:
        # tiny roster: the ring lattice degenerates to the complete graph
        return 1 - np.eye(V, dtype=np.int8)
    adj = np.zeros((V, V), dtype=np.int8)
    ring = [(u, (u + j) % V) for j in range(1, k // 2 + 1) for u in range(V)]
    for u, v in ring:
        adj[u, v] = adj[v, u] = 1
    nodes = range(V)
    for u, v in ring:
        if rng.random() < p:
            w = rng.choice(nodes)
            while w == u or adj[u, w]:
                w = rng.choice(nodes)
                if adj[u].sum() >= V - 1:
                    break
            else:
                adj[u, v] = adj[v, u] = 0
                adj[u, w] = adj[w, u] = 1
    return adj


def default_roster(n_scbs: int, n_ues: int) -> tuple[NodeRef, ...]:
    """SCBS nodes first (by id), then UE nodes (by id)."""
    return tuple([(SCBS, i) for i in range(n_scbs)] + [(UE, m) for m in range(n_ues)])


# --------------------------------------------------------------------------
# edge betweenness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BetweennessMatrix:
    """Normalized edge betweenness values plus the denominator that was used."""

    values: np.ndarray
    denominator: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


#: Sources whose shortest-path searches run together.  A block holds a few
#: (block, V) and (block, E) arrays plus its sources' shortest-path DAGs; at
#: 64 they peak near 4 MB for V = 516, and the blocks are few enough that
#: numpy's per-call overhead does not dominate.
_SOURCE_BLOCK = 64


def _block_dependencies(sources: np.ndarray, dst: np.ndarray, indptr: np.ndarray,
                        edge: np.ndarray, n_edges: int, V: int) -> np.ndarray:
    """Dependency of every source of the block on every edge, as (block, E).

    Row b holds, per undirected edge, the value Brandes' accumulation credits
    to that edge for source sources[b] (zero off the source's shortest-path
    DAG).  Each level of every search in the block is expanded at once.  The
    order of every floating-point sum matches a one-source deque BFS that
    scans neighbours by ascending id:

      * sigma of a vertex adds its parents' sigma in the parents' pop order
        (`np.bincount` sums in array order, and the arcs are gathered by
        source, pop position of the tail, then head id);
      * the vertices first reached on a level are queued in the order of the
        first arc reaching them, which is the deque's order;
      * delta of a vertex adds its children's shares by descending pop
        position of the child, the order of the deque's reversed pops.

    Search state is indexed by the flat key row * V + vertex.
    """
    B = len(sources)
    rows = np.arange(B)
    dist = np.full(B * V, -1)
    sigma = np.zeros(B * V)
    queued = np.zeros(B * V, dtype=np.intp)   # queue position, comparable within a row
    root = rows * V + sources
    dist[root] = 0
    sigma[root] = 1.0
    n_queued = 0
    f_row, f_vertex = rows, sources
    levels = []
    depth = 0
    while len(f_vertex):
        # every arc out of the level, by (row, queue position of tail, head id)
        deg = indptr[f_vertex + 1] - indptr[f_vertex]
        arc = np.arange(deg.sum()) + np.repeat(indptr[f_vertex] - np.cumsum(deg) + deg, deg)
        a_row = np.repeat(f_row, deg)
        tail = np.repeat(f_row * V + f_vertex, deg)
        head = a_row * V + dst[arc]
        # vertices first reached here, queued in the order of their first arc
        fresh = np.flatnonzero(dist[head] < 0)
        _, first = np.unique(head[fresh], return_index=True)
        reached = fresh[np.sort(first)]
        new = head[reached]
        dist[new] = depth + 1
        queued[new] = n_queued + np.arange(len(new))
        n_queued += len(new)
        dag = np.flatnonzero(dist[head] == depth + 1)
        d_tail, d_head = tail[dag], head[dag]
        sigma[new] = np.bincount(d_head, weights=sigma[d_tail], minlength=B * V)[new]
        levels.append((a_row[dag], d_tail, d_head, edge[arc[dag]]))
        f_row, f_vertex = a_row[reached], dst[arc[reached]]
        depth += 1

    delta = np.zeros(B * V)
    deps = np.zeros((B, n_edges))
    for d_row, d_tail, d_head, d_edge in reversed(levels):
        c = sigma[d_tail] * ((1.0 + delta[d_head]) / sigma[d_head])
        order = np.argsort(-queued[d_head], kind="stable")
        delta += np.bincount(d_tail[order], weights=c[order], minlength=B * V)
        deps[d_row, d_edge] = c
    return deps


def _edge_counts(adjacency: np.ndarray) -> np.ndarray:
    """Raw shortest-path traversal counts per edge, (V, V).

    Each edge adds the sources' dependencies one row at a time, in source
    order, as the per-source loop does; a zero row entry adds nothing, while
    a `sum` over the rows would round differently.  Summing over all sources
    counts every unordered pair twice, so the caller halves the result.
    """
    V = adjacency.shape[0]
    src, dst = np.nonzero(adjacency)
    indptr = np.zeros(V + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=V), out=indptr[1:])
    # both arcs of an undirected edge share one edge index
    _, edge = np.unique(np.minimum(src, dst) * V + np.maximum(src, dst),
                        return_inverse=True)
    total = np.zeros(len(src) // 2)
    for start in range(0, V, _SOURCE_BLOCK):
        sources = np.arange(start, min(start + _SOURCE_BLOCK, V))
        for row in _block_dependencies(sources, dst, indptr, edge, len(total), V):
            total += row
    counts = np.zeros((V, V))
    counts[src, dst] = total[edge]
    return counts


def edge_betweenness(g: SocialGraph, denominator: float | None = None) -> BetweennessMatrix:
    """Edge betweenness of every edge, normalized by `denominator`.

    The default denominator is (V-1)(V-2), floored at 1 so the two-node
    graph stays finite.  B[u][v] is zero wherever there is no edge.

    The raw counts come from Brandes' algorithm run on blocks of
    `_SOURCE_BLOCK` sources: each block's breadth-first searches expand one
    level at a time for all its sources together, and dependencies flow back
    level by level, deepest first.  Every sum is ordered as in a per-source
    deque BFS, and each edge adds its per-source shares in source order, so
    the values are bit-identical to that loop's.
    """
    V = g.n_vertices
    if V < 2:
        raise InputError("betweenness needs at least two vertices")
    if denominator is None:
        denominator = max((V - 1) * (V - 2), 1)
    if denominator <= 0:
        raise ConfigError(f"denominator must be positive, got {denominator}")
    raw = _edge_counts(g.adjacency) / 2.0
    return BetweennessMatrix(values=raw / float(denominator), denominator=float(denominator))


# --------------------------------------------------------------------------
# similarity
# --------------------------------------------------------------------------

SAW = "saw"
RAW_CLIPPED = "raw-clipped"


@dataclass(frozen=True)
class SimilarityMatrices:
    """Raw common-neighbour scores Q and their normalized form S."""

    raw: np.ndarray
    normalized: np.ndarray
    column_max: np.ndarray
    normalization: str

    def __post_init__(self):
        for name in ("raw", "normalized", "column_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def similarity(g: SocialGraph, normalization: str = SAW) -> SimilarityMatrices:
    """Common-neighbour similarity for every node pair.

    Q[m][n] sums 1/degree(z) over the common neighbours z of m and n; pairs
    in different components score zero, because a common neighbour would put
    them in the same component.  "saw" rescales each column by its
    maximum; "raw-clipped" instead caps raw values at 1.0, which is handy
    when comparing against references that report Q itself.
    """
    if normalization not in (SAW, RAW_CLIPPED):
        raise ConfigError(f"unknown similarity normalization {normalization!r}")
    adj = g.adjacency.astype(float)
    deg = adj.sum(axis=1)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    q = (adj * inv_deg[np.newaxis, :]) @ adj
    np.fill_diagonal(q, 0.0)

    col_max = q.max(axis=0)
    if normalization == SAW:
        s = np.divide(q, col_max[np.newaxis, :],
                      out=np.zeros_like(q), where=col_max > 0)
    else:
        s = np.minimum(q, 1.0)
    return SimilarityMatrices(raw=q, normalized=s, column_max=col_max,
                              normalization=normalization)


# --------------------------------------------------------------------------
# social distance and importance
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SocialDistanceMatrix:
    """Blend X = alpha * sym(S) + beta * B over the whole roster."""

    values: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def social_distance(b: BetweennessMatrix, s: SimilarityMatrices,
                    alpha: float = 0.5, beta: float = 0.5) -> SocialDistanceMatrix:
    """Combine similarity and betweenness into one distance matrix.

    Column-wise normalization can leave S slightly asymmetric, so S is
    symmetrized as (S + S^T) / 2 before blending.  alpha and beta must be
    convex weights (sum to one within 1e-9).
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ConfigError(f"alpha/beta must lie in [0, 1], got {alpha}, {beta}")
    if abs(alpha + beta - 1.0) > 1e-9:
        raise ConfigError(f"alpha + beta must equal 1, got {alpha + beta}")
    if b.values.shape != s.normalized.shape:
        raise InputError("betweenness and similarity matrices differ in shape")
    s_sym = (s.normalized + s.normalized.T) / 2.0
    x = alpha * s_sym + beta * b.values
    return SocialDistanceMatrix(values=x, alpha=alpha, beta=beta)


def importance_scores(g: SocialGraph, x: SocialDistanceMatrix) -> dict[int, float]:
    """Importance of each UE: the row sum of X over every other node."""
    if x.values.shape[0] != g.n_vertices:
        raise InputError("distance matrix does not match the graph roster")
    row_sums = x.values.sum(axis=1)
    return {g.vertices[v][1]: float(row_sums[v]) for v in g.ue_indices()}


@dataclass(frozen=True)
class ImportanceRanking:
    """The UE elected in each cell (None for empty cells)."""

    elected: Mapping[int, int | None]

    @property
    def relay_ues(self) -> tuple[int, ...]:
        return tuple(sorted(m for m in self.elected.values() if m is not None))


def elect_important_ues(scores: Mapping[int, float],
                        cells: Mapping[int, Iterable[int]]) -> ImportanceRanking:
    """Pick the highest-scoring UE of each cell; ties go to the lowest UE id.

    `cells` maps SCBS id -> the UE ids currently associated with it.  A UE
    may appear in at most one cell; every listed UE needs a score.
    """
    seen: set[int] = set()
    elected: dict[int, int | None] = {}
    for cell in sorted(cells):
        members = sorted(set(cells[cell]))
        for m in members:
            if m in seen:
                raise InputError(f"ue{m} appears in more than one cell")
            if m not in scores:
                raise InputError(f"no importance score for ue{m}")
            seen.add(m)
        if not members:
            elected[cell] = None
        else:
            elected[cell] = min(members, key=lambda m: (-scores[m], m))
    return ImportanceRanking(elected=elected)


def social_pipeline(g: SocialGraph, alpha: float = 0.5, beta: float = 0.5,
                    normalization: str = SAW,
                    ) -> tuple[BetweennessMatrix, SimilarityMatrices, SocialDistanceMatrix]:
    """Convenience wrapper running betweenness -> similarity -> distance."""
    b = edge_betweenness(g)
    s = similarity(g, normalization=normalization)
    return b, s, social_distance(b, s, alpha=alpha, beta=beta)


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------

def save_edge_list(g: SocialGraph, path) -> None:
    """One `label label` pair per line; `#` starts a comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# social graph edge list\n")
        for a, b in g.edges():
            fh.write(f"{node_label(a)} {node_label(b)}\n")


def load_edge_list(path, roster: Sequence[NodeRef]) -> SocialGraph:
    """Read an edge-list file; every label must belong to `roster`."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected two node labels, got {line!r}")
            edges.append((parse_node_label(parts[0]), parse_node_label(parts[1])))
    return build_social_graph(roster, ExplicitEdges(edges=tuple(edges)))
