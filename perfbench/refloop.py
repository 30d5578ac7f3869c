"""A fixed reference workload that measures how fast the machine runs now.

The benchmark times `reference_loop()` before and after every sweep and
reports sweep time as a multiple of it.  On a shared VM whose speed moves
between levels for seconds to minutes, the ratio keeps what the program
costs and drops most of what the machine's current speed adds.

The loop uses neither socialcell nor anything a change to socialcell could
alter: a shortest-path traversal with dependency accumulation over a fixed
random graph, in Python loops over numpy scalars as in the program's hot
paths, with one small vector operation per source as in its evaluator.
"""

from collections import deque

import numpy as np

_V = 200
_P = 0.05
_SEED = 20160428


def _graph() -> list[np.ndarray]:
    rng = np.random.default_rng(_SEED)
    upper = np.triu(rng.random((_V, _V)) < _P, k=1)
    adj = upper | upper.T
    return [np.flatnonzero(adj[v]) for v in range(_V)]


_ADJ = _graph()


def reference_loop() -> float:
    """Fixed work, about 0.4 s on a 2-vCPU Xeon VM; returns a checksum."""
    V, adj = _V, _ADJ
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
            for w in adj[v]:
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
                delta[v] += c
        row = counts[s]
        row[row > 0] = np.log2(1.0 + row[row > 0])
    return float(counts.sum())
