"""Many-to-one association of UEs to serving nodes (SCBSs or relay UEs).

The association is searched as a swap game over a fixed serving-node set:
every SCBS plus one socially elected relay UE per initial cell.  Nodes are
numbered by rule, with no stored roster: node k < N is scbs{k} and node
N + j is the relay ue{relay_ues[j]}, relays in ascending UE id, and
`serving_node` names node k.  Utilities reward raw rate for plain UEs,
socially discounted rate for relays, and the halved min of backhaul/access
rate for D2D-served UEs.  The search starts from the max-RSSI state plus a
D2D attachment of the UEs no SCBS covers, computed once per problem.  It
anneals random pair swaps and single-UE moves under a sigmoid acceptance
rule and keeps the best state it ever visited; a separate greedy pass and
audit deal in exactly the two-sided swap-stability condition (Bodine-Baron
et al., SAGT 2011): a swap is approved when nobody it touches loses and
someone strictly gains.  The quotas and the search's knobs come from the
one `ScenarioConfig` that also describes the scenario, which bounds them.

One numpy kernel, `_evaluate_rows`, evaluates a stack of assignments, and
each row may come from a different problem of one kernel shape (the same
N, M, subcarriers, bandwidth, noise and `d2d_interference`; S may differ).
Its node tables have one layout, a stack along a leading axis: a problem
keeps its own as a stack of one, which every row reads in place, and
`_stack_tables` stacks several, padded to their largest S with empty relay
nodes, for each row to read at its own problem.  An evaluation has one
record, `UtilityReport`, and one entry, `reports`, which evaluates
(problem, assignment) pairs; `evaluate` is its one-pair case.  An empty
node adds +0.0 to every sum it enters, and a padded row's welfare is
summed over its own S nodes alone, since numpy sums a contiguous row
pairwise.  One scanner, `_approved_swaps`, judges the swaps of one fixed
state against its evaluation: `_swap_masks` lists the feasible swaps and
`_judge` approves them in blocks of `_SCAN_BLOCK` swaps at every problem
size, one kernel call and one vector check per block.  The two-sided rule
reads only the touched players, so the judge evaluates each swapped state
at its touched columns alone, and an approved swap in full for its
welfare.  Every row of the kernel, and every column of it, equals the
evaluation of that row alone bit for bit (its sums run in an order
independent of the block size and of the columns evaluated), so the block
scan approves exactly the swaps a one-at-a-time scan would.  The audit is
one scan of every feasible swap; `greedy_stabilize` is one walk, each step
a scan of the current state from a cursor, the ordinal of the last swap
applied.

The anneal's walk revisits a few states over and over, so it keeps a memo,
local to one search, from each of its last `_MEMO` evaluated states to its
welfare, and evaluates only states the memo lacks.  An evicted state that
comes back is evaluated again, to the same float.  Its random numbers come
from `_Draws`, which serves `np.random.default_rng(seed)`'s `random()` and
`integers(n)` draw for draw from raw 64-bit words fetched in bulk.  Neither
changes a trace or a result.

Each search is a chain that stops at its start state and at every state
its memo lacks.  `anneal_problems` takes a list of problems and returns
their results as a list in the same order, running up to `_WINDOW` chains
in lockstep: each round evaluates the waiting states of all live chains in
one kernel call, so their problems must differ at most in S (all of a
sweep point's do).  The chains share nothing and a kernel row does not
depend on its neighbours, so each result equals that of the search run
alone; `anneal_on_problem` is `anneal_problems` over one problem.  For the
same reason `reports` evaluates (problem, assignment) pairs `_WINDOW` to a
kernel call, each report equal to the pair's own `problem.evaluate`.

Each search also has an exact bound, `_reach_bound`: the highest welfare
among the states its walk could ever reach, enumerated and evaluated in
one kernel call when they are few (`_BOUND_CELLS`), else inf.  Since a
kernel row equals the row evaluated alone, no state of the walk can beat
it, so once the search's best welfare reaches it, its best state and the
iteration that found it are final (the bound test of branch and bound:
Land and Doig, Econometrica 1960).  `anneal_problems` then makes the
result at once and frees its slot; the rest of the walk runs only when
one of the result's other fields (`iterations_run`, `states_evaluated`,
`moves`, `accepted_welfares`, `trace`) is first read, and gives exactly
what the whole walk gives.  A sweep reads only the matching and
`best_iteration`, so it never runs a settled walk's rest.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Generator, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import ScenarioConfig
from .errors import InputError
from .radio import (RadioScenario, dbm_to_mw, received_mw, scbs_reception,
                    subcarrier_offsets, ue_distances)
from .socialgraph import (UE, X_FLOOR, SocialGraph, elect_important_ues,
                          importance_scores)

SN_SCBS = "scbs"
SN_RELAY = "relay"
SN_NONE = "none"

MOVE_SWAP = "swap"
MOVE_SINGLE = "move"

#: Share of the anneal's proposals that are pair swaps; the rest are single
#: moves.  An even split lets neither kind of neighbour dominate the walk.
_SWAP_SHARE = 0.5

#: Welfare deltas are normalized by max(|W|, _WELFARE_FLOOR) before the sigmoid.
_WELFARE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)     # holds arrays: compares by identity
class UtilityReport:
    """The evaluation of one assignment: per-UE utilities and achieved
    rates, per-serving-node utility sums, welfare and the unserved UEs."""

    ue_utilities: np.ndarray
    ue_rates: np.ndarray
    sn_utilities: np.ndarray
    welfare: float
    unserved: tuple[int, ...]


def serving_node(k: int, n_scbs: int, relay_ues: np.ndarray) -> tuple[str, int]:
    """(kind, id) of serving node k: (SN_SCBS, k) for k < n_scbs, else
    (SN_RELAY, the relay's UE id relay_ues[k - n_scbs])."""
    return (SN_SCBS, k) if k < n_scbs else (SN_RELAY, int(relay_ues[k - n_scbs]))


@dataclass(frozen=True, eq=False)     # holds arrays: compares by identity
class Matching:
    """Assignment of each UE to a serving-node index (-1 = unserved) over
    n_scbs SCBSs and the relays `relay_ues`."""

    assign: np.ndarray
    n_scbs: int
    relay_ues: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.assign, dtype=np.int64).copy()
        if np.any((arr < -1) | (arr >= self.n_scbs + len(self.relay_ues))):
            raise InputError("assignment references an unknown serving node")
        arr.setflags(write=False)
        object.__setattr__(self, "assign", arr)

    @property
    def n_ues(self) -> int:
        return len(self.assign)

    def serving(self, m: int) -> tuple[str, int] | None:
        k = int(self.assign[m])
        return None if k < 0 else serving_node(k, self.n_scbs, self.relay_ues)


class TraceRow(NamedTuple):
    iteration: int
    welfare: float
    best_welfare: float
    accepted: bool
    move_kind: str


@dataclass(frozen=True)
class StabilityViolation:
    """A swap that every touched player weakly likes and someone strictly likes."""

    ue: int
    other_ue: int | None
    target_sn: int
    welfare_delta: float


class _WalkRecord(NamedTuple):
    """What a search's walk records besides its best state (see AnnealResult)."""

    iterations_run: int
    states_evaluated: int
    moves: bytes
    accepted_welfares: tuple[float, ...]


@dataclass(frozen=True, eq=False)     # holds arrays: compares by identity
class AnnealResult:
    """Outcome of one annealed search.

    `matching`, `best_iteration` and `start_welfare` are set when the
    result is made.  A search whose best welfare reaches its `_reach_bound`
    is handed over at that iteration, since no later state can change its
    best state or the iteration that found it.  The rest of its walk runs
    only when one of the other fields is first read, and then gives
    exactly what the whole walk gives.  So a caller that reads only the
    matching and `best_iteration`, as a sweep does, never runs it.

    states_evaluated counts the proposals the search evaluated, that is its
    memo misses; the start state, the chain's first kernel row, is not
    counted.  A state evicted from the memo and proposed again counts each
    time it is evaluated.  No CSV or JSON output records it.

    The search's trace is kept compact: the start welfare, one byte per
    iteration in `moves` (2 for a pair swap, + 1 if accepted) and the
    welfare of each acceptance.  `trace` rebuilds its TraceRows from them
    on each access, so a search whose trace nobody reads builds none.
    """

    matching: Matching
    best_iteration: int
    start_welfare: float
    #: the walk's record, or the (problem, suspended chain) of a search
    #: handed over at its bound, swapped for the record when first read
    _walk: _WalkRecord | tuple[AssociationProblem, Generator] = field(repr=False)

    @property
    def _record(self) -> _WalkRecord:
        if not isinstance(self._walk, _WalkRecord):
            object.__setattr__(self, "_walk", _finish_walk(*self._walk))
        return self._walk

    @property
    def iterations_run(self) -> int:
        return self._record.iterations_run

    @property
    def states_evaluated(self) -> int:
        return self._record.states_evaluated

    @property
    def moves(self) -> bytes:
        return self._record.moves

    @property
    def accepted_welfares(self) -> tuple[float, ...]:
        return self._record.accepted_welfares

    @property
    def trace(self) -> tuple[TraceRow, ...]:
        return _trace_rows(self.start_welfare, self.moves, self.accepted_welfares)


# --------------------------------------------------------------------------
# the association problem
# --------------------------------------------------------------------------

class AssociationProblem:
    """Precomputed context for evaluating and searching assignments.

    Construction runs the social election: UEs are first associated by
    max-RSSI and each non-empty cell elects its highest-importance UE as
    relay.  Node k < N is scbs{k} and node N + j is the relay
    ue{relay_ues[j]}.  The start state of the search, `start_assignment`,
    is the max-RSSI state plus the D2D attachment of every UE no SCBS
    covers: to the first relay in range with room left, in ascending order
    of link distance times social distance.  The graph and X are read only
    while building; what is kept are read-only per-node tables, so that
    evaluating an assignment is a handful of vector operations.

    `config` is the run's `ScenarioConfig`.  The problem reads its
    `scbs_quota` (0 = one UE per subcarrier) and `d2d_quota`; the anneal
    reads `max_iterations`, `beta_start`, `beta_end`, `seed` and
    `stall_window`.  Every radio value comes from `scenario.config`, and
    the drop and the graph carry the node counts; the harness passes one
    config to both, apart from the engine's seed.

    `reception` is the scenario's `radio.scbs_reception` and `offsets` its
    `radio.subcarrier_offsets` row (every SCBS, then every UE), for a
    caller that has them already; by default they are computed here.
    """

    def __init__(self, scenario: RadioScenario, graph: SocialGraph,
                 x: np.ndarray, config: ScenarioConfig,
                 reception: tuple[np.ndarray, np.ndarray] | None = None,
                 offsets: np.ndarray | None = None):
        self.scenario = scenario
        self.config = config
        radio_cfg = scenario.config

        N, M = scenario.n_scbs, scenario.n_ues
        self.n_scbs, self.n_ues = N, M

        if graph.n_scbs != N or graph.n_vertices != N + M:
            raise InputError(
                f"social graph has {graph.n_scbs} SCBSs and {graph.n_vertices} nodes; "
                f"the scenario needs {N} and {N + M}")

        prx_scbs, in_scbs = reception or scbs_reception(scenario)
        if offsets is None:
            offsets = subcarrier_offsets([scenario.seed], N, M, radio_cfg.subcarriers)[0]

        # Phase I seed state: classical max-RSSI association, no D2D.
        rssi = max_rssi(prx_scbs, in_scbs)
        rssi.setflags(write=False)
        self.rssi_assignment = rssi

        relays = elect_important_ues(importance_scores(graph, x), rssi)
        self.n_relays = R = len(relays)
        self.n_sns = S = N + R

        self.is_relay = np.zeros(M, dtype=bool)
        self.is_relay[relays] = True

        d_ru = ue_distances(scenario, relays)
        prx_d2d = received_mw(UE, d_ru, scenario)
        in_d2d = d_ru <= radio_cfg.d2d_radius_m
        prx_d2d[np.arange(R), relays] = 0.0   # a node neither serves nor jams itself
        in_d2d[np.arange(R), relays] = False
        in_d2d[:, relays] = False   # relays connect only to SCBSs

        # vertex i < N of the social graph is scbs{i}, vertex N + m is ue{m};
        # an owned copy, so that nothing keeps X alive
        self.x_scbs_ue = np.maximum(x[:N, N:], X_FLOOR)

        # static target feasibility: range plus node-kind rules
        feas = np.zeros((M, S), dtype=bool)
        feas[:, :N] = in_scbs.T
        feas[:, N:] = in_d2d.T
        feas[relays, N:] = False
        self.feasible_sn = feas
        self.servable = feas.any(axis=1)

        quota = np.full(S, self.config.scbs_quota or radio_cfg.subcarriers, dtype=np.int64)
        quota[N:] = self.config.d2d_quota
        self.quota = quota

        # the start state, as the class docstring says; ties go to the lower relay
        start = rssi.copy()
        counts = np.bincount(start[start >= 0], minlength=S)
        weight = d_ru * x[N + relays, N:]
        for m in np.flatnonzero((start < 0) & self.servable):
            near = np.flatnonzero(feas[m, N:])
            for j in near[np.argsort(weight[near, m], kind="stable")]:
                k = N + int(j)
                if counts[k] < quota[k]:
                    start[m] = k
                    counts[k] += 1
                    break
        self.start_assignment = start

        self._noise_mw_hz = float(dbm_to_mw(radio_cfg.noise_psd_dbm_hz))
        self._bw = radio_cfg.system_bandwidth_hz

        # Per-node tables for the evaluator, indexed by node index + 1; row 0
        # stands for "unserved", so one gather serves every UE.  They are a
        # stack of one problem, as `_stack_tables` makes for several: a
        # leading axis of 1, and the problem's S last.  The public arrays
        # are views of them rather than second copies.  They sit in one
        # attribute: past 30 attributes CPython 3.11 stops sharing the
        # instance dict's keys, which costs about 1.3 kB per problem.
        prx = np.zeros((1, S + 1, M))
        prx[0, 1:N + 1] = prx_scbs
        prx[0, N + 1:] = prx_d2d
        relay = np.zeros((1, S + 1), dtype=np.int64)
        relay[0, N + 1:] = relays
        offset = np.zeros((1, S + 1), dtype=np.int64)
        offset[0, 1:N + 1] = offsets[:N]
        offset[0, N + 1:] = offsets[N + relays]
        # Every array is read-only, since a write after the build would
        # disagree with the start state; the views below inherit the flag.
        for arr in (prx, relay, offset, self.x_scbs_ue, self.is_relay, self.feasible_sn,
                    self.servable, self.quota, self.start_assignment):
            arr.setflags(write=False)
        self._node_tables = (prx, relay, offset, self.x_scbs_ue[None], self.is_relay[None],
                             (S,))
        # what the kernel reads besides the tables; problems that agree on all
        # of it but S, which comes last, can share one kernel call
        self._shape = (N, M, radio_cfg.subcarriers, self._bw, self._noise_mw_hz,
                       bool(radio_cfg.d2d_interference), S)
        self.prx_scbs, self.prx_d2d = prx[0, 1:N + 1], prx[0, N + 1:]
        self.relay_ues, self.sc_offset = relay[0, N + 1:], offset[0, 1:]

    # -- assignments ------------------------------------------------------

    def matching(self, assign: np.ndarray) -> Matching:
        return Matching(assign=assign, n_scbs=self.n_scbs, relay_ues=self.relay_ues)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assign: np.ndarray) -> UtilityReport:
        """Rates, utilities and welfare of one assignment.

        Bandwidth splits equally inside each serving node.  Subcarriers go
        round-robin (by ascending UE id) from the node's seeded offset, and
        only same-index transmissions interfere.  Welfare is the serving-node
        sum plus the UE sum, which algebraically doubles the UE total.  This
        is the one-pair case of `reports`.
        """
        return next(reports([(self, assign)]))

    # the name perfbench/pipeline.py calls to report a matching
    report = evaluate


def _evaluate_rows(shape: tuple, tables: tuple, A: np.ndarray,
                   cols: np.ndarray | None = None) -> tuple:
    """Evaluate a (B, M) stack of assignments in one pass: the one kernel.

    `shape` and `tables` come from `_stack_tables`.  Tables are a stack of
    problems' node tables along a leading axis, with each problem's own S
    last: a stack of one, a problem's own `_node_tables`, which every row
    reads in place, or a stack of B problems, in which row b reads problem
    b's.  Returns (utilities, rates, sn_utilities, welfare), each with a
    leading B axis; a stacked row's sn_utilities end in zeros for the empty
    nodes its problem was padded with.  Each row equals the evaluation of
    that row alone bit for bit, because every float is summed in an order
    that does not depend on B or on the stacking:

    - interference sums over the node axis of a C-contiguous (B, S+1, w)
      product with w >= 2 columns (or w = M = 1), so the node axis is not
      the inner loop and it adds node by node in id order; SCBSs first,
      then the own-signal subtraction, then relays, then a padded row's
      empty nodes, which add +0.0;
    - serving-node utilities come from one bincount whose keys are
      offset by (S + 1) per row, so each row accumulates in ascending
      UE order;
    - welfare is the sum over contiguous rows of both totals, a padded
      row's over its own nodes only.

    With `cols`, a (B, w) array of distinct columns ascending in each row,
    and one problem's tables, the loads and subcarriers of whole rows are
    laid out but only those columns are evaluated: utilities and rates come
    back at `cols`, sn_utilities sum only the evaluated UEs, and welfare is
    None.  A D2D UE's relay must be among its row's columns, and w >= 2
    unless w = M, or the node sums would run pairwise.

    Adding or subtracting 0.0 leaves a float unchanged, so UEs of every
    kind go through the same vector formulas and are masked afterwards.
    """
    N, M, C, bw, noise_mw_hz, d2d_interference, S = shape
    prx, relay, offset, x, is_relay, sizes = tables
    B = A.shape[0]
    a = A.ravel()
    ue = np.arange(B * M)
    keys = (A + np.arange(1, B * (S + 1), S + 1)[:, None]).ravel()   # 0 = unserved
    per_key = np.bincount(keys, minlength=B * (S + 1))
    # round-robin subcarriers: the rank of a UE inside its (row, node)
    # group, by ascending UE id, comes from one stable argsort, which numpy
    # does as a radix sort on keys of 16 bits or fewer
    order = np.argsort(keys.astype(np.min_scalar_type(B * (S + 1))), kind="stable")
    first = np.cumsum(per_key) - per_key
    shift = (offset - first.reshape(B, S + 1)).ravel()
    sc = np.empty(B * M, dtype=np.int64)
    sc[order] = (np.repeat(shift, per_key) + ue) % C
    on = np.zeros(B * (S + 1) * C, dtype=bool)
    on[keys * C + sc] = True

    if cols is not None:    # one problem's tables, read at each row's columns
        ue = (cols + np.arange(0, B * M, M)[:, None]).ravel()
        a, keys, sc = a[ue], keys[ue], sc[ue]
    col = ue % M
    a1 = a + 1
    share = 1.0 / per_key[keys]
    # where each UE's entries sit in the tables: a stack of one is read in
    # place, a larger stack at the row's own problem.  Only SCBS-served UEs
    # use x; the others read a clipped row of it, masked below.
    xi = np.minimum(a, N - 1)
    if len(prx) == 1:
        node, own = a1, col
    else:
        node, own = keys, ue
        xi = xi + np.repeat(np.arange(0, B * N, N), M)
    relay, is_relay = relay.ravel(), is_relay.ravel()
    prx_at, x = prx.reshape(-1, M), x.reshape(-1, M)
    w = len(col) // B
    # (B, S+1, w) in C order, so that its node axis is not the inner loop
    hits = on[(np.arange(B * (S + 1)) * C).reshape(B, S + 1, 1) + sc.reshape(B, 1, w)]
    if cols is None:
        heard = hits * prx
    else:
        heard = np.ascontiguousarray(prx[0].T[cols].transpose(0, 2, 1))
        heard *= hits
    signal = prx_at[node, col]
    by_scbs = (a1 >= 1) & (a1 <= N)
    by_relay = a1 > N
    interference = (heard[:, 1:N + 1].sum(axis=1).ravel()
                    - np.where(by_scbs, signal, 0.0))
    if S > N and d2d_interference:
        interference = (interference + heard[:, N + 1:].sum(axis=1).ravel()
                        - np.where(by_relay, signal, 0.0))

    sinr = signal / (noise_mw_hz * bw * share + interference)
    link = share * bw * np.log2(1.0 + sinr)
    scbs_rates = np.where(by_scbs, link, 0.0)
    spread = scbs_rates
    if cols is not None:    # each relay's rate at its own column
        spread = np.zeros(B * M)
        spread[ue] = scbs_rates
    # a D2D UE gets half the min of its relay's downlink and its access link
    d2d_rates = np.minimum(spread[ue - col + relay[node]], link) / 2.0
    rates = np.where(by_relay, d2d_rates, scbs_rates)
    xv = x[xi, col]
    utilities = np.where(by_scbs, np.where(is_relay[own], link / xv, link),
                         np.where(by_relay, d2d_rates, 0.0))

    sn_util = np.bincount(keys, weights=utilities, minlength=B * (S + 1))
    sn_util = np.ascontiguousarray(sn_util.reshape(B, S + 1)[:, 1:])
    utilities, rates = utilities.reshape(B, w), rates.reshape(B, w)
    if cols is not None:
        return utilities, rates, sn_util, None
    welfare = sn_util.sum(axis=1) + utilities.sum(axis=1)
    for b, size in enumerate(sizes):    # a padded row sums its own nodes, as alone
        if size < S:
            welfare[b] = sn_util[b, :size].sum() + utilities[b].sum()
    return utilities, rates, sn_util, welfare


def _stack_tables(problems: Sequence[AssociationProblem]) -> tuple[tuple, tuple]:
    """(shape, tables) for `_evaluate_rows` over one row per problem.

    A lone problem's are its own `_shape` and `_node_tables`, uncopied.  Two
    or more problems' node tables are stacked along the leading axis, each
    padded to the largest S with empty relay nodes (no signal, never
    assigned), with each problem's own S last.  Problems that differ in
    anything the kernel reads but S cannot share a call; mixing them raises
    ValueError.
    """
    if len(problems) == 1:
        return problems[0]._shape, problems[0]._node_tables
    if len({p._shape[:-1] for p in problems}) > 1:
        raise ValueError("a stack of problems mixes kernel shapes")
    sizes = tuple(p.n_sns for p in problems)
    S = max(sizes)
    prx, relay, offset, x, is_relay, _ = zip(*(p._node_tables for p in problems))
    padded = []
    for node_tables in (prx, relay, offset):
        stack = np.zeros((len(problems), S + 1) + node_tables[0].shape[2:],
                         dtype=node_tables[0].dtype)
        for row, t in zip(stack, node_tables):
            row[:t.shape[1]] = t[0]
        padded.append(stack)
    return (problems[0]._shape[:-1] + (S,),
            (*padded, np.concatenate(x), np.concatenate(is_relay), sizes))


def reports(pairs: Iterable[tuple[AssociationProblem, np.ndarray]]
            ) -> Iterator[UtilityReport]:
    """The report of each (problem, assignment) pair, in order.

    The pairs are read `_WINDOW` at a time, and each such run is evaluated
    in one kernel call over its problems' `_stack_tables`, so a run's
    problems must differ at most in S.  A kernel row equals the evaluation
    of that row alone bit for bit, so each report equals that of its pair
    alone; a padded row's sn_utilities are cut back to its problem's own S
    nodes.  `AssociationProblem.evaluate` is the one-pair case.
    """
    pairs = iter(pairs)
    while run := list(islice(pairs, _WINDOW)):
        problems = [problem for problem, _ in run]
        A = np.stack([assign for _, assign in run], dtype=np.int64)
        utilities, rates, sn_util, welfare = _evaluate_rows(*_stack_tables(problems), A)
        for b, problem in enumerate(problems):
            yield UtilityReport(ue_utilities=utilities[b], ue_rates=rates[b],
                                sn_utilities=sn_util[b, :problem.n_sns],
                                welfare=float(welfare[b]),
                                unserved=tuple(np.flatnonzero(A[b] < 0).tolist()))


def build_problem(scenario: RadioScenario, graph: SocialGraph,
                  x: np.ndarray, config: ScenarioConfig,
                  reception: tuple[np.ndarray, np.ndarray] | None = None,
                  offsets: np.ndarray | None = None) -> AssociationProblem:
    """Front door for constructing an AssociationProblem."""
    return AssociationProblem(scenario, graph, x, config, reception, offsets)


# --------------------------------------------------------------------------
# baseline
# --------------------------------------------------------------------------

def max_rssi(prx: np.ndarray, in_range: np.ndarray) -> np.ndarray:
    """Classical max-RSSI cell selection, with no D2D and no load awareness:
    the strongest in-range SCBS of each UE, ties to the lowest id; -1 if none."""
    best = np.argmax(np.where(in_range, prx, -np.inf), axis=0)
    return np.where(in_range.any(axis=0), best, -1).astype(np.int64)


# --------------------------------------------------------------------------
# annealed swap search
# --------------------------------------------------------------------------

def _beta_at(cfg: ScenarioConfig, t: int, total: int) -> float:
    frac = 0.0 if total <= 1 else t / (total - 1)
    return cfg.beta_start + (cfg.beta_end - cfg.beta_start) * frac


def _accept_prob(beta: float, delta_w: float, w_current: float, floor: float) -> float:
    z = beta * (delta_w / max(abs(w_current), floor))
    z = min(max(z, -700.0), 700.0)
    return 1.0 / (1.0 + math.exp(-z))


#: Raw 64-bit words `_Draws` takes from its bit generator at a time.
_RAW_BLOCK = 256


class _Draws:
    """The `random()` and `integers(n)` draws of `np.random.default_rng(seed)`,
    served from raw PCG64 words fetched `_RAW_BLOCK` at a time.

    Any interleaving of calls returns what the same calls on the generator
    itself return, at a fraction of the cost of a scalar numpy call:

    - `random()` is the top 53 bits of one word times 2**-53;
    - a 32-bit draw takes the low half of a word and keeps its high half
      for the next 32-bit draw, which `random()` does not consume;
    - `integers(n)` maps one 32-bit draw x to (x * n) >> 32 (Lemire's
      method), drawing again while the low 32 bits of x * n fall below
      (2**32 - n) % n; n = 1 draws nothing.  numpy takes 64-bit draws
      above n = 2**32, so those are refused.
    """

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._words: Iterator[int] = iter(())
        self._half: int | None = None

    def _word(self) -> int:
        w = next(self._words, None)
        if w is None:
            self._words = iter(self._bits.random_raw(_RAW_BLOCK).tolist())
            w = next(self._words)
        return w

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        w = self._word()
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = ((1 << 32) - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return m >> 32


#: Chains `anneal_problems` runs in lockstep, at most.  Each live chain
#: holds its problem and a memo of at most `_MEMO` states, and a round's
#: kernel temporaries grow with its rows, so the window trades kernel calls
#: for memory.  `perfbench/run.py --workload dense-stabilize --seed 1
#: --seconds 10 --trace 0` (24 replications of N8/M100, stabilize on),
#: medians of 3 interleaved runs on a 2-vCPU VM:
#:
#:   window              4      8      12     16     24     32
#:   sweep_time_ref      1.581  1.455  1.403  1.372  1.377  1.314
#:   sweep wall (s)      2.74   2.62   2.44   2.39   2.29   2.24
#:   peak_rss_mb         45.10  45.48  46.07  46.17  46.62  46.64
#:
#: A dense point has 24 replications, so there every window from 24 up runs
#: the same rounds, and 24 vs 32 is the machine's drift.  24 lets all the
#: searches of such a point share each kernel call, for about 0.08 MB a
#: slot over 4.
_WINDOW = 24

#: Evaluated states a chain's memo holds, at most; the oldest is evicted
#: first.  The memo is only a cache: an evicted state that comes back is
#: evaluated again, to the same float.  At seed 1, 128 states leave every
#: memo miss of the three bench workloads as it was without a bound
#: (dense-stabilize 21,657, desk-sweep 103, wide-m500 624), so no state is
#: evaluated twice there; 64 adds 6 misses on wide-m500, and 32 adds 1 on
#: dense-stabilize and 11 on wide-m500.
_MEMO = 128


def anneal_on_problem(problem: AssociationProblem) -> AnnealResult:
    """Run the annealed swap search on a prepared problem: `anneal_problems`
    over this one problem, with the whole walk run before it returns."""
    [result] = anneal_problems([problem])
    result._record          # the rest of a walk handed over at its bound
    return result


def anneal_problems(problems: Sequence[AssociationProblem]) -> list[AnnealResult]:
    """Run the annealed swap search on each problem; the results, in the
    order of `problems`.

    The problems, like the pairs of `reports`, must differ at most in S
    (all of a sweep point's do); mixing kernel shapes raises ValueError
    from `_stack_tables`.  Each search is a chain (`_chain`) that stops at
    its start state and at every proposal its memo lacks.  Up to `_WINDOW`
    chains run in lockstep, as Lee, Yau, Giles, Doucet and Holmes (JCGS
    2010) run independent Monte Carlo chains: each round evaluates the
    waiting state of every live chain (a chain that joins waits at its
    start state) in one `_evaluate_rows` call, and runs each chain on to
    its next miss, its hand-over or its end.  The chains share nothing,
    and a kernel row does not depend on the rows beside it, so every
    result equals that of the chain run alone.

    A chain whose best welfare reaches its `_reach_bound` hands over its
    best state, the iteration that found it and its start welfare, which
    no later iteration can change.  Its result is made at once and its
    slot freed; the suspended chain goes with the result, whose other
    fields run the rest of its walk when first read (`_finish_walk`).  A
    chain starts only as a slot in the window frees up, and leaves the
    window when it ends or is handed over, so no more than `_WINDOW`
    searches run here at once.
    """
    results: list = [None] * len(problems)
    waiting = iter(range(len(problems)))     # the problems whose chain has not started
    live: list[list] = []   # [index, search, waiting state]
    tables = None           # the live chains' _stack_tables, kept while none joins or leaves
    while True:
        for index in islice(waiting, _WINDOW - len(live)):
            search = _chain(problems[index])
            live.append([index, search, next(search)])      # its start state
            tables = None
        if not live:
            return results
        if tables is None:
            tables = _stack_tables([problems[entry[0]] for entry in live])
        A = np.stack([entry[2] for entry in live], dtype=np.int64)
        for entry, w in zip(live, _evaluate_rows(*tables, A)[3].tolist()):
            index, search, _ = entry
            try:
                entry[2] = search.send(w)
            except StopIteration as end:
                results[index] = end.value
                entry[2] = tables = None
                continue
            if isinstance(entry[2], tuple):     # handed over at its bound
                results[index] = AnnealResult(*entry[2], (problems[index], search))
                entry[2] = tables = None
        live = [entry for entry in live if entry[2] is not None]


#: Kernel cells, states x (S + 1) x M, that `_reach_bound` evaluates in its
#: one call at most; past it the bound is inf.  The cells bound the call's
#: memory: 1 MB per float64 (states, S + 1, M) temporary.  At seeds 1 and 7
#: every candidate set of desk-sweep fits, the largest in 38,880 cells,
#: while the smallest of wide-m500 needs 2.0M and those of dense-stabilize
#: exceed 10^19.  A cap on the state count alone would not do: that
#: smallest wide set has only 128 states, but 16 MB per temporary.
_BOUND_CELLS = 1 << 17


def _reach_bound(problem: AssociationProblem, w_start: float) -> float:
    """The highest welfare among the states the anneal's walk could reach
    on `problem`, whose start state has welfare `w_start`; inf when there
    are too many candidates to evaluate.

    The candidates put each servable UE on one of its feasible nodes, or
    also unserved (-1) when it starts unserved, keep every other UE at its
    start value, and load every node at most max(quota, start load).  They
    hold every state the walk can visit: a move goes only to a node below
    quota, a swap leaves the loads alone, and neither ever unserves a UE,
    since -1 is in no UE's feasible nodes.  They are enumerated in numpy
    and evaluated in one `_evaluate_rows` call on the problem's own
    tables; when the start state is the only candidate, its welfare is
    `w_start` and no call is made.  More than `_BOUND_CELLS` kernel cells,
    counted before the loads cut any candidate, give inf.  A kernel row
    equals that row evaluated alone bit for bit, so no state the walk
    evaluates has a welfare above the bound.
    """
    start = problem.start_assignment
    feasible = problem.feasible_sn
    sizes = np.where(problem.servable, feasible.sum(axis=1) + (start < 0), 1)
    states = math.prod(sizes.tolist())
    S, M = problem.n_sns, problem.n_ues
    if states * (S + 1) * M > _BOUND_CELLS:
        return math.inf
    if states == 1:
        return w_start
    A = np.repeat(start[None, :], states, axis=0)
    vary = np.flatnonzero(sizes > 1)
    for m, digit in zip(vary, np.unravel_index(np.arange(states), sizes[vary])):
        choices = np.flatnonzero(feasible[m])
        A[:, m] = np.append(choices, -1)[digit] if start[m] < 0 else choices[digit]
    cap = np.maximum(problem.quota, np.bincount(start[start >= 0], minlength=S))
    keys = (A + np.arange(1, states * (S + 1), S + 1)[:, None]).ravel()
    loads = np.bincount(keys, minlength=states * (S + 1)).reshape(states, S + 1)[:, 1:]
    A = A[(loads <= cap).all(axis=1)]
    return float(_evaluate_rows(problem._shape, problem._node_tables, A)[3].max())


def _chain(problem: AssociationProblem
           ) -> Generator[np.ndarray | tuple, float | None, AnnealResult]:
    """The annealed swap search on one problem, as a generator.

    Each iteration draws a pair swap (with probability _SWAP_SHARE) or a
    single move of a random servable UE.  A feasible proposal is evaluated
    and accepted with the sigmoid probability of its welfare change; the
    best state ever visited is returned.  The walk revisits a few states
    over and over, so a memo local to the chain maps each of its last
    `_MEMO` evaluated states (their bytes) to their welfare, and a deque of
    the same keys evicts the oldest when a new state comes in.  The chain
    yields its start state and then each proposal the memo lacks, is sent
    back each one's welfare and returns its AnnealResult; it evaluates
    nothing itself but its `_reach_bound`.  Random numbers come from
    `_Draws`, equal draw for draw to `np.random.default_rng(cfg.seed)`.
    Neither changes a result: evaluation is deterministic, so a trace
    equals that of evaluating every proposal afresh.

    At the top of each iteration the chain tests its best welfare against
    its `_reach_bound`.  The first time the bound is reached, the best
    state and the iteration that found it are final, since an improvement
    must be strictly above the best: the chain then yields once (best
    matching, best iteration, start welfare), is sent nothing back, and
    goes on with its own draws and memo when next resumed.

    A chain keeps little, since `_WINDOW` of them live at once: its states
    are held in the narrowest integer dtype that holds every node index, so
    a memo key is M bytes up to S = 128 and a memo value a bare float; the
    memo holds at most `_MEMO` of them; and the trace is kept as one byte
    per iteration plus the welfare of each acceptance, which the result
    turns into TraceRows only when asked.
    """
    cfg = problem.config
    draws = _Draws(cfg.seed)
    random, integers = draws.random, draws.integers
    start = problem.start_assignment
    assign = start.astype(np.min_scalar_type(-problem.n_sns))
    # The assignment (mirrored in `where`), loads, quotas, each UE's
    # feasible nodes and the servable UEs as Python lists: filtering a UE's
    # one or two nodes in Python beats a numpy mask per proposal.
    where = assign.tolist()
    counts = np.bincount(start[start >= 0], minlength=problem.n_sns).tolist()
    quota = problem.quota.tolist()
    ues, nodes = np.nonzero(problem.feasible_sn)
    ends = np.bincount(ues, minlength=problem.n_ues).cumsum().tolist()
    nodes = nodes.tolist()
    reach = [nodes[begin:end] for begin, end in zip([0] + ends, ends)]
    pool = np.flatnonzero(problem.servable).tolist()
    w_start = w_cur = w_best = yield assign     # the start state, not counted
    bound = _reach_bound(problem, w_start)
    memo = {assign.tobytes(): w_cur}        # state bytes -> welfare
    aged = deque(memo)                      # the memo's keys, oldest first
    misses = 0
    # every proposal is a fresh copy and no state is written to once made,
    # so states are shared, never copied
    best = assign
    best_iter = 0

    moves = bytearray()         # per iteration: 2 for a pair swap, + 1 if accepted
    accepted_welfare: list[float] = []     # memo values, so no new floats
    stall = 0
    iterations = 0

    for t in range(1, cfg.max_iterations + 1):
        if not pool:
            break
        if w_best >= bound:         # best and best_iter are final: hand them over
            bound = math.inf
            yield problem.matching(best), best_iter, w_start
        iterations = t
        swap = random() < _SWAP_SHARE
        accepted = False
        proposal = None

        if swap and len(pool) >= 2:
            i1 = integers(len(pool))
            i2 = integers(len(pool) - 1)
            if i2 >= i1:
                i2 += 1
            m, n = pool[i1], pool[i2]
            km, kn = where[m], where[n]
            # each node in the other UE's reach, where -1 (unserved) never
            # appears; a swap leaves the loads alone, so no quota applies
            if km != kn and kn in reach[m] and km in reach[n]:
                proposal = assign.copy()
                proposal[m], proposal[n] = kn, km
        elif not swap:
            m = pool[integers(len(pool))]
            here = where[m]
            targets = [k for k in reach[m] if k != here and counts[k] < quota[k]]
            if targets:
                k = targets[integers(len(targets))]
                proposal = assign.copy()
                proposal[m] = k

        if proposal is not None:
            key = proposal.tobytes()
            w_new = memo.get(key)
            if w_new is None:
                w_new = memo[key] = yield proposal
                misses += 1
                aged.append(key)
                if len(aged) > _MEMO:
                    del memo[aged.popleft()]
            beta = _beta_at(cfg, t - 1, cfg.max_iterations)
            p = _accept_prob(beta, w_new - w_cur, w_cur, _WELFARE_FLOOR)
            if random() < p:
                if swap:                      # a swap leaves the loads alone
                    where[m], where[n] = kn, km
                else:
                    if here >= 0:
                        counts[here] -= 1
                    counts[k] += 1
                    where[m] = k
                assign = proposal
                w_cur = w_new
                accepted = True
                accepted_welfare.append(w_cur)
                if w_cur > w_best:
                    w_best = w_cur
                    best = assign
                    best_iter = t

        moves.append(2 * swap + accepted)
        stall = 0 if accepted else stall + 1
        if cfg.stall_window and stall >= cfg.stall_window:
            break

    return AnnealResult(problem.matching(best), best_iter, w_start,
                        _WalkRecord(iterations, misses, bytes(moves),
                                    tuple(accepted_welfare)))


def _finish_walk(problem: AssociationProblem, search: Generator) -> _WalkRecord:
    """Run a chain handed over at its bound on to its end, evaluating each
    state its memo lacks alone, and return its walk's record."""
    try:
        state = next(search)
        while True:
            w = _evaluate_rows(problem._shape, problem._node_tables,
                               np.stack([state], dtype=np.int64))[3]
            state = search.send(w.item())
    except StopIteration as end:
        return end.value._walk


def _trace_rows(w_start: float, moves: bytes,
                accepted_welfare: Sequence[float]) -> tuple[TraceRow, ...]:
    """The TraceRows of a chain's compact trace: the current and best
    welfare replayed from the start welfare and each acceptance's."""
    make = tuple.__new__    # TraceRow(...) without its Python-level __new__
    rows = []
    w_cur = w_best = w_start
    welfares = iter(accepted_welfare)
    for t, move in enumerate(moves, 1):
        accepted = bool(move & 1)
        if accepted:
            w_cur = next(welfares)
            if w_cur > w_best:
                w_best = w_cur
        rows.append(make(TraceRow, (t, w_cur, w_best, accepted,
                                    MOVE_SWAP if move & 2 else MOVE_SINGLE)))
    return tuple(rows)


# --------------------------------------------------------------------------
# two-sided stability
# --------------------------------------------------------------------------

#: Candidate swaps judged per `_evaluate_rows` call by the scanner, at
#: every problem size: the judge gathers a block's touched columns alone,
#: 25 of M = 100 on average over the dense-stabilize scans at seed 1.
_SCAN_BLOCK = 64


def _judge(problem: AssociationProblem, assign: np.ndarray, base: UtilityReport,
           m: np.ndarray, n: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Judge a block of feasible swaps of `assign`, whose evaluation is `base`.

    Swap i moves UE m[i] to serving node k[i]; when n[i] >= 0 it is a pair
    swap in which UE n[i] (now on k[i]) takes m[i]'s node.  A swap is
    approved when no touched player (the movers and the nodes they leave
    and join) loses utility and one of them strictly gains.  So each
    swapped state is evaluated only at its touched columns: the members,
    after the swap, of the two nodes, whose utilities make up those nodes'
    sums, and the relay UE of a touched relay node, whose downlink bounds
    its D2D children's rates.  Returns the boolean approval mask and the
    swapped states.
    """
    rows = np.arange(len(m))
    pair = n >= 0
    swapped = np.repeat(assign[None, :], len(m), axis=0)
    swapped[rows, m] = k
    swapped[rows[pair], n[pair]] = assign[m[pair]]
    # a move stands in m for the missing partner and k for a missing node
    n = np.where(pair, n, m)
    left = np.where(assign[m] >= 0, assign[m], k)
    # the touched columns; m, already among them, stands in for the relay
    # UE of an SCBS
    touched = (swapped == left[:, None]) | (swapped == k[:, None])
    ends = np.stack([left, k])
    relay = problem._node_tables[1][0]          # a node's relay UE, at node + 1
    touched[rows, np.where(ends >= problem.n_scbs, relay[ends + 1], m)] = True
    # touched columns first, ascending; untouched ones pad the narrower rows
    width = min(problem.n_ues, max(2, touched.sum(axis=1).max()))
    cols = np.argsort(~touched, axis=1, kind="stable")[:, :width]
    utilities, _, sn_util, _ = _evaluate_rows(problem._shape, problem._node_tables,
                                              swapped, cols)
    now = np.stack([utilities[cols == m[:, None]], utilities[cols == n[:, None]],
                    sn_util[rows, left], sn_util[rows, k]])
    before = np.stack([base.ue_utilities[m], base.ue_utilities[n],
                       base.sn_utilities[left], base.sn_utilities[k]])
    return ~(now < before).any(axis=0) & (now > before).any(axis=0), swapped


def _swap_masks(problem: AssociationProblem,
                assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, M) pair-swap and (M, S) single-move feasibility of `assign`.

    This is the scanner's only feasibility rule.  UEs m and n may trade
    nodes when both are served, on different nodes, and each node is in the
    other UE's `feasible_sn` (a trade leaves the loads alone, so quotas do
    not enter).  UE m may move to node k when k is in its `feasible_sn`,
    is not its node now and is below quota under the loads of `assign`.
    """
    served = assign >= 0
    reach = problem.feasible_sn[:, np.where(served, assign, 0)]  # m may take n's node
    pairs = (reach & reach.T & served[:, None] & served[None, :]
             & (assign[:, None] != assign[None, :]))
    counts = np.bincount(assign[served], minlength=problem.n_sns)
    moves = (problem.feasible_sn & (counts < problem.quota)
             & (np.arange(problem.n_sns) != assign[:, None]))
    return pairs, moves


def _scan_order(problem: AssociationProblem, assign: np.ndarray) -> np.ndarray:
    """Ordinals of the feasible swaps of `assign`, ascending.

    Pair (m, n) with m < n is m*M + n; moving m to node k is M*M + m*S + k.
    """
    pairs, moves = _swap_masks(problem, assign)
    M = problem.n_ues
    return np.concatenate([np.flatnonzero(np.triu(pairs, 1)),
                           M * M + np.flatnonzero(moves)])


def _approved_swaps(problem: AssociationProblem, assign: np.ndarray,
                    base: UtilityReport, todo: np.ndarray):
    """Yield (ordinal, violation, post-swap evaluation) for every approvable
    swap of `assign`, whose evaluation is `base`, among the ordinals `todo`
    (a slice of `_scan_order`), in their order.

    The swaps are judged in blocks of `_SCAN_BLOCK`, at every problem size:
    one `_evaluate_rows` call evaluates the block at its touched columns
    and one vector check judges it, with results bit-identical to judging
    one swap at a time.  Each approved swap is then evaluated in full, as
    it is yielded.  The state is fixed: a caller that applies a swap starts
    a new scan.
    """
    M, S = problem.n_ues, problem.n_sns
    for start in range(0, len(todo), _SCAN_BLOCK):
        block = todo[start:start + _SCAN_BLOCK]
        pair = block < M * M
        move = block - M * M
        m = np.where(pair, block // M, move // S)
        n = np.where(pair, block % M, -1)
        k = np.where(pair, assign[n], move % S)
        approved, swapped = _judge(problem, assign, base, m, n, k)
        for i in np.flatnonzero(approved):
            ev = problem.evaluate(swapped[i])
            yield int(block[i]), StabilityViolation(
                int(m[i]), None if n[i] < 0 else int(n[i]), int(k[i]),
                ev.welfare - base.welfare), ev


def audit_stability(problem: AssociationProblem,
                    assign: np.ndarray) -> list[StabilityViolation]:
    """Exhaustively list every approvable pair swap and single move."""
    return [v for _, v, _ in _approved_swaps(problem, assign, problem.evaluate(assign),
                                             _scan_order(problem, assign))]


@dataclass(frozen=True, eq=False)     # holds arrays: compares by identity
class StabilizeResult:
    assign: np.ndarray
    applied: int
    welfares: tuple[float, ...]


def greedy_stabilize(problem: AssociationProblem, assign: np.ndarray,
                     max_swaps: int = 100000) -> StabilizeResult:
    """Apply approvable swaps in deterministic order until none remain.

    One walk with one cursor, `after`, the ordinal of the last swap applied
    (-1 at the start).  Each step scans the current state's feasible swaps
    past `after` and then, in a second scan whose blocks start from the
    top, those up to it, and applies the first approvable swap, whose
    evaluation becomes the new base.  A step that finds none has judged
    every feasible swap, so audit_stability() is then empty by construction.
    `max_swaps` caps runaway instances: an approvable swap found once
    `max_swaps` swaps have been applied raises RuntimeError rather than
    returning a not-actually-stable state, while a matching that settles in
    exactly `max_swaps` is returned.
    """
    assign = np.array(assign, dtype=np.int64)
    base = problem.evaluate(assign)
    welfares: list[float] = []
    after = -1
    while True:
        todo = _scan_order(problem, assign)
        found = next(chain(_approved_swaps(problem, assign, base, todo[todo > after]),
                           _approved_swaps(problem, assign, base, todo[todo <= after])),
                     None)
        if found is None:
            return StabilizeResult(assign=assign, applied=len(welfares),
                                   welfares=tuple(welfares))
        if len(welfares) >= max_swaps:
            raise RuntimeError("greedy stabilization did not settle")
        after, v, base = found
        if v.other_ue is None:
            assign[v.ue] = v.target_sn
        else:
            assign[v.ue], assign[v.other_ue] = assign[v.other_ue], assign[v.ue]
        welfares.append(base.welfare)


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def matching_to_csv(matching: Matching, report: UtilityReport, path,
                    meta: dict | None = None) -> None:
    """Write `ue_id,sn_id,sn_kind,rate_bps,utility` rows, one per UE.

    Metadata (config hash, seed, ...) goes into leading `# key=value`
    comment lines.  Unserved UEs get sn_id -1 and kind "none".
    """
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={(meta or {})[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["ue_id", "sn_id", "sn_kind", "rate_bps", "utility"])
        for m in range(matching.n_ues):
            sn = matching.serving(m)
            if sn is None:
                writer.writerow([m, -1, SN_NONE, repr(0.0), repr(0.0)])
            else:
                kind, node_id = sn
                writer.writerow([m, node_id, kind,
                                 repr(float(report.ue_rates[m])),
                                 repr(float(report.ue_utilities[m]))])


def load_matching_csv(path) -> tuple[dict, list[tuple[int, int, str]]]:
    """Read back a matching CSV; returns (meta, [(ue, sn_id, sn_kind), ...]).
    An unreadable file or a malformed row raises InputError naming `path`."""
    import csv
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            text = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read matching file {path}: {exc}") from exc
    meta: dict[str, str] = {}
    lines = []
    for line in text:
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
        else:
            lines.append(line)
    rows: list[tuple[int, int, str]] = []
    for row in csv.DictReader(lines):
        try:
            if None in row.values():        # a column the row lacks
                raise ValueError("missing column")
            rows.append((int(row["ue_id"]), int(row["sn_id"]), row["sn_kind"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed matching row {row!r}") from exc
    return meta, rows


def assignment_from_rows(problem: AssociationProblem,
                         rows: Sequence[tuple[int, int, str]]) -> np.ndarray:
    """Map loaded CSV rows back onto the problem's serving-node indices.

    Every UE needs exactly one row, and a served UE must name a serving
    node it can use (in range, and no D2D service for relays).
    """
    assign = np.full(problem.n_ues, -1, dtype=np.int64)
    seen = np.zeros(problem.n_ues, dtype=bool)
    for ue, sn_id, kind in rows:
        if not 0 <= ue < problem.n_ues:
            raise InputError(f"matching row references unknown ue{ue}")
        if seen[ue]:
            raise InputError(f"ue{ue} has more than one matching row")
        seen[ue] = True
        if kind == SN_NONE:
            continue
        if kind == SN_SCBS:
            if not 0 <= sn_id < problem.n_scbs:
                raise InputError(f"matching row references unknown scbs{sn_id}")
            k = sn_id
        elif kind == SN_RELAY:
            j = int(np.searchsorted(problem.relay_ues, sn_id))
            if j == problem.n_relays or problem.relay_ues[j] != sn_id:
                raise InputError(f"ue{sn_id} is not a relay in this scenario")
            k = problem.n_scbs + j
        else:
            raise InputError(f"unknown serving-node kind {kind!r}")
        if not problem.feasible_sn[ue, k]:
            raise InputError(f"ue{ue} cannot be served by {kind}{sn_id}")
        assign[ue] = k
    if not seen.all():
        raise InputError(f"matching has no row for ue{int(np.argmin(seen))}")
    return assign


def trace_to_csv(trace: Iterable[TraceRow], path) -> None:
    """Write the per-iteration search trace."""
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "welfare", "best_welfare", "accepted", "move_kind"])
        for row in trace:
            writer.writerow([row.iteration, repr(row.welfare), repr(row.best_welfare),
                             int(row.accepted), row.move_kind])
