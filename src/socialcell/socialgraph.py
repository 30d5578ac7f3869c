"""Social graph construction and the metrics used to rank relay candidates.

The graph mixes two node kinds: small cell base stations ("scbs") and user
equipments ("ue").  From the adjacency structure we derive
  * edge betweenness (how much shortest-path traffic an edge carries),
  * a common-neighbour similarity score per node pair,
  * a combined social distance matrix X = alpha * S + beta * B,
and from X a per-UE importance score that decides which UE in each cell is
promoted to relay duty.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    adj = np.zeros((V, V), dtype=np.int8)
    index = {ref: i for i, ref in enumerate(roster)}

    if isinstance(edge_model, ExplicitEdges):
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
        g = nx.gnp_random_graph(V, edge_model.p, seed=int(rng_seed))
        for u, v in g.edges():
            adj[u, v] = adj[v, u] = 1
    elif isinstance(edge_model, WattsStrogatz):
        k = edge_model.neighbors
        if k < 0:
            raise ConfigError(f"neighbor count must be >= 0, got {k}")
        if not 0.0 <= edge_model.rewire <= 1.0:
            raise ConfigError(f"rewire probability must be in [0, 1], got {edge_model.rewire}")
        if V >= 2:
            if k >= V:
                # tiny roster: the ring lattice degenerates to the complete graph
                adj[:] = 1
                np.fill_diagonal(adj, 0)
            elif k >= 1:
                g = nx.watts_strogatz_graph(V, k, edge_model.rewire, seed=int(rng_seed))
                for u, v in g.edges():
                    adj[u, v] = adj[v, u] = 1
    else:
        raise ConfigError(f"unknown edge model {edge_model!r}")

    return SocialGraph(vertices=roster, adjacency=adj)


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


def _brandes_edge_counts(adj_lists: list[np.ndarray], V: int) -> np.ndarray:
    """Raw shortest-path traversal counts per edge (Brandes accumulation).

    One BFS per source; dependencies are pushed back from the leaves of the
    shortest-path DAG.  Summing over all sources counts every unordered pair
    twice, so the caller halves the result.
    """
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


def edge_betweenness(g: SocialGraph, denominator: float | None = None) -> BetweennessMatrix:
    """Edge betweenness of every edge, normalized by `denominator`.

    The default denominator is (V-1)(V-2), floored at 1 so the two-node
    graph stays finite.  B[u][v] is zero wherever there is no edge.
    """
    V = g.n_vertices
    if V < 2:
        raise InputError("betweenness needs at least two vertices")
    if denominator is None:
        denominator = max((V - 1) * (V - 2), 1)
    if denominator <= 0:
        raise ConfigError(f"denominator must be positive, got {denominator}")
    adj_lists = [np.flatnonzero(g.adjacency[v]) for v in range(V)]
    raw = _brandes_edge_counts(adj_lists, V)
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
    in different components score zero (they cannot share a neighbour, the
    masking just keeps that explicit).  "saw" rescales each column by its
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

    n_comp, labels = connected_components(csr_matrix(g.adjacency), directed=False)
    if n_comp > 1:
        q = q * (labels[:, np.newaxis] == labels[np.newaxis, :])

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
    """Per-UE scores plus the UE elected in each cell (None for empty cells)."""

    scores: Mapping[int, float]
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
    return ImportanceRanking(scores=dict(scores), elected=elected)


def social_pipeline(g: SocialGraph, alpha: float = 0.5, beta: float = 0.5,
                    normalization: str = SAW,
                    denominator: float | None = None,
                    ) -> tuple[BetweennessMatrix, SimilarityMatrices, SocialDistanceMatrix]:
    """Convenience wrapper running betweenness -> similarity -> distance."""
    b = edge_betweenness(g, denominator=denominator)
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


def matrix_to_csv(g: SocialGraph, matrix: np.ndarray, path) -> None:
    """Dump a square per-node matrix as CSV with node labels on both axes."""
    matrix = np.asarray(matrix)
    if matrix.shape != (g.n_vertices, g.n_vertices):
        raise InputError("matrix does not match the graph roster")
    labels = [node_label(ref) for ref in g.vertices]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + labels)
        for i, lab in enumerate(labels):
            writer.writerow([lab] + [repr(float(v)) for v in matrix[i]])
