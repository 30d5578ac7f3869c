"""Many-to-one association of UEs to serving nodes (SCBSs or relay UEs).

The association is searched as a swap game over a fixed serving-node set:
every SCBS plus one socially elected relay UE per initial cell.  Utilities
reward raw rate for plain UEs, socially discounted rate for relays, and the
halved min of backhaul/access rate for D2D-served UEs.  The search anneals
random pair swaps and single-UE moves under a sigmoid acceptance rule and
keeps the best state it ever visited; a separate greedy pass and audit deal
in exactly the two-sided swap-stability condition.

One numpy kernel, `AssociationProblem._evaluate_rows`, evaluates a stack of
assignments; `evaluate` is its one-row case.  The greedy pass and the audit
share one scanner that lists the feasible swaps with one mask and judges
them in blocks of `_SCAN_BLOCK`, one kernel call and one vector check per
block.  Every row of the kernel equals the evaluation of that row alone bit
for bit (its sums run in an order independent of the block size), so the
block scan approves exactly the swaps a one-at-a-time scan would.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .radio import (RadioScenario, dbm_to_mw, pathloss_db, scbs_ue_distances,
                    subcarrier_offset, ue_ue_distances)
from .socialgraph import (SCBS, UE, X_FLOOR, ImportanceRanking,
                          SocialDistanceMatrix, SocialGraph,
                          elect_important_ues, importance_scores)

SN_SCBS = "scbs"
SN_RELAY = "relay"
SN_NONE = "none"

MOVE_SWAP = "swap"
MOVE_SINGLE = "move"


@dataclass(frozen=True)
class ServingNode:
    """One side of the many-to-one matching: an SCBS or a relay UE.

    For relays, node_id is the UE id and cell_scbs records the SCBS whose
    initial cell elected it.
    """

    kind: str
    node_id: int
    cell_scbs: int | None = None


@dataclass(frozen=True)
class SwapEngineConfig:
    """Knobs of the annealed swap search.

    The sigmoid acceptance uses an inverse-temperature ramp from beta_start
    to beta_end (so the walk turns greedy late).  cooling="literal" instead
    drives the multiplier from beta_start linearly down to zero, the
    classical falling-temperature reading.  Welfare deltas are normalized
    by max(|W|, welfare_floor) before entering the sigmoid.
    """

    max_iterations: int = 3000
    beta_start: float = 1.0
    beta_end: float = 50.0
    schedule: str = "linear"
    cooling: str = "anneal"
    seed: int = 0
    min_rate_bps: float = 0.0
    stall_window: int = 200
    scbs_quota: int | None = None
    d2d_quota: int = 3
    move_mix: float = 0.5
    welfare_floor: float = 1e-12
    d2d_weight_epsilon: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.schedule not in ("linear", "geometric"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.cooling not in ("anneal", "literal"):
            raise ConfigError(f"unknown cooling mode {self.cooling!r}")
        if self.beta_start < 0 or self.beta_end < 0:
            raise ConfigError("schedule endpoints must be >= 0")
        if self.schedule == "geometric" and (self.beta_start <= 0 or self.beta_end <= 0):
            raise ConfigError("geometric schedule needs positive beta endpoints")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.min_rate_bps < 0:
            raise ConfigError("min_rate_bps must be >= 0")
        if self.stall_window < 0:
            raise ConfigError("stall_window must be >= 0 (0 disables early stop)")
        if self.scbs_quota is not None and self.scbs_quota < 1:
            raise ConfigError("scbs_quota must be >= 1 when set")
        if self.d2d_quota < 1:
            raise ConfigError("d2d_quota must be >= 1")
        if not 0.0 <= self.move_mix <= 1.0:
            raise ConfigError("move_mix must be in [0, 1]")
        if self.welfare_floor <= 0:
            raise ConfigError("welfare_floor must be positive")
        if self.d2d_weight_epsilon < 0:
            raise ConfigError("d2d_weight_epsilon must be >= 0 (0 = 1/d2d_radius)")


@dataclass(frozen=True)
class EvalResult:
    """Per-UE and per-SN welfare breakdown of one assignment."""

    utilities: np.ndarray
    rates: np.ndarray
    sn_utilities: np.ndarray
    welfare: float


@dataclass(frozen=True)
class UtilityReport:
    """Public summary of a matching: utilities, achieved rates, welfare."""

    ue_utilities: np.ndarray
    ue_rates: np.ndarray
    sn_utilities: np.ndarray
    welfare: float
    unserved: tuple[int, ...]


@dataclass(frozen=True)
class Matching:
    """Assignment of each UE to a serving-node index (-1 = unserved)."""

    assign: np.ndarray
    serving_nodes: tuple[ServingNode, ...]

    def __post_init__(self):
        arr = np.asarray(self.assign, dtype=np.int64).copy()
        if np.any((arr < -1) | (arr >= len(self.serving_nodes))):
            raise InputError("assignment references an unknown serving node")
        arr.setflags(write=False)
        object.__setattr__(self, "assign", arr)

    @property
    def n_ues(self) -> int:
        return len(self.assign)

    def serving(self, m: int) -> ServingNode | None:
        k = int(self.assign[m])
        return None if k < 0 else self.serving_nodes[k]


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    welfare: float
    best_welfare: float
    accepted: bool
    move_kind: str


@dataclass(frozen=True)
class SwapCheck:
    """Outcome of the two-sided swap condition for one proposed swap."""

    satisfied: bool
    reason: str
    welfare_delta: float = float("nan")


@dataclass(frozen=True)
class StabilityViolation:
    """A swap that every touched player weakly likes and someone strictly likes."""

    ue: int
    other_ue: int | None
    target_sn: int
    welfare_delta: float


@dataclass(frozen=True)
class AnnealResult:
    matching: Matching
    report: UtilityReport
    trace: tuple[TraceRow, ...]
    best_iteration: int
    iterations_run: int
    ranking: ImportanceRanking
    problem: "AssociationProblem"


# --------------------------------------------------------------------------
# the association problem
# --------------------------------------------------------------------------

class AssociationProblem:
    """Precomputed context for evaluating and searching assignments.

    Construction runs the social election: UEs are first associated by
    max-RSSI, each non-empty cell elects its highest-importance UE as relay,
    and the serving-node list is frozen as [every SCBS] + [relays by UE id].
    All pairwise received powers, range masks and social weights are cached
    so that evaluating an assignment is a handful of vector operations.
    """

    def __init__(self, scenario: RadioScenario, graph: SocialGraph,
                 x: SocialDistanceMatrix, config: SwapEngineConfig | None = None):
        self.scenario = scenario
        self.graph = graph
        self.x = x
        self.config = config or SwapEngineConfig()

        N, M = scenario.n_scbs, scenario.n_ues
        self.n_scbs, self.n_ues = N, M

        vert = {ref: i for i, ref in enumerate(graph.vertices)}
        try:
            self._scbs_vert = np.array([vert[(SCBS, i)] for i in range(N)])
            self._ue_vert = np.array([vert[(UE, m)] for m in range(M)])
        except KeyError as exc:
            raise InputError(f"social graph is missing scenario node {exc.args[0]}") from None

        self.prx_scbs, self.in_scbs = scbs_reception(scenario)

        # Phase I seed state: classical max-RSSI association, no D2D.
        rssi = max_rssi(self.prx_scbs, self.in_scbs)
        rssi.setflags(write=False)
        self.rssi_assignment = rssi

        cells = {i: [int(m) for m in np.flatnonzero(rssi == i)] for i in range(N)}
        scores = importance_scores(graph, x)
        self.ranking = elect_important_ues(scores, cells)
        relays = self.ranking.relay_ues
        self.relay_ues = np.array(relays, dtype=np.int64)
        self.n_relays = len(relays)
        self.n_sns = N + self.n_relays

        nodes: list[ServingNode] = [ServingNode(SN_SCBS, i) for i in range(N)]
        cell_of = {m: c for c, m in self.ranking.elected.items() if m is not None}
        nodes += [ServingNode(SN_RELAY, p, cell_scbs=cell_of[p]) for p in relays]
        self.serving_nodes: tuple[ServingNode, ...] = tuple(nodes)

        self.is_relay = np.zeros(M, dtype=bool)
        self.is_relay[self.relay_ues] = True
        self.relay_sn_of = {int(p): N + j for j, p in enumerate(relays)}

        d_ru = ue_ue_distances(scenario)[self.relay_ues, :]
        self.prx_d2d = (dbm_to_mw(scenario.ue_power_dbm)
                        * 10.0 ** (-pathloss_db(UE, d_ru, scenario.pathloss) / 10.0)
                        * scenario.fading_gain)
        self.in_d2d = d_ru <= scenario.d2d_radius_m
        for j, p in enumerate(relays):
            self.prx_d2d[j, p] = 0.0       # a node neither serves nor jams itself
            self.in_d2d[j, p] = False
        self.in_d2d[:, self.relay_ues] = False   # relays connect only to SCBSs

        self.x_scbs_ue = x.values[np.ix_(self._scbs_vert, self._ue_vert)]
        x_rel = x.values[np.ix_(self._ue_vert[self.relay_ues], self._ue_vert)]
        eps = self.config.d2d_weight_epsilon or 1.0 / scenario.d2d_radius_m
        self.d2d_weight = eps * d_ru * x_rel

        # static target feasibility: range plus node-kind rules
        feas = np.zeros((M, self.n_sns), dtype=bool)
        feas[:, :N] = self.in_scbs.T
        feas[:, N:] = self.in_d2d.T
        feas[self.relay_ues, N:] = False
        self.feasible_sn = feas
        self.servable = feas.any(axis=1)

        quota = np.full(self.n_sns, self.config.scbs_quota or scenario.subcarriers,
                        dtype=np.int64)
        quota[N:] = self.config.d2d_quota
        self.quota = quota

        self.sc_offset = np.array(
            [subcarrier_offset(scenario, (SCBS, sn.node_id) if sn.kind == SN_SCBS
                               else (UE, sn.node_id)) for sn in self.serving_nodes],
            dtype=np.int64) if self.n_sns else np.zeros(0, dtype=np.int64)

        self._noise_mw_hz = float(dbm_to_mw(scenario.noise_psd_dbm_hz))
        self._bw = scenario.bandwidth_hz

        # Per-node tables for the evaluator, indexed by node index + 1; row 0
        # stands for "unserved", so one gather serves every UE.  The public
        # arrays become views of them rather than second copies.  They sit
        # in one attribute: past 30 attributes CPython 3.11 stops sharing
        # the instance dict's keys, which costs about 1.3 kB per problem.
        S = self.n_sns
        prx = np.zeros((S + 1, M))
        prx[1:N + 1] = self.prx_scbs
        prx[N + 1:] = self.prx_d2d
        relay = np.zeros(S + 1, dtype=np.int64)
        relay[N + 1:] = self.relay_ues
        offset = np.zeros(S + 1, dtype=np.int64)
        offset[1:] = self.sc_offset
        self.prx_scbs, self.prx_d2d = prx[1:N + 1], prx[N + 1:]
        self.relay_ues, self.sc_offset = relay[N + 1:], offset[1:]
        self._node_tables = prx, relay, offset

    # -- assignments ------------------------------------------------------

    def initial_assignment(self) -> np.ndarray:
        """Max-RSSI seed plus D2D attachment of otherwise uncovered UEs.

        UEs with no SCBS in range but at least one relay in D2D range are
        attached to their cheapest relay (ascending pairing weight), quota
        permitting.  The result is the state the swap search starts from.
        """
        assign = self.rssi_assignment.copy()
        assign.setflags(write=True)
        counts = np.bincount(assign[assign >= 0], minlength=self.n_sns)
        for m in np.flatnonzero((assign < 0) & self.servable):
            relays = np.flatnonzero(self.feasible_sn[m, self.n_scbs:])
            order = np.argsort(self.d2d_weight[relays, m], kind="stable")
            for j in relays[order]:
                k = self.n_scbs + int(j)
                if counts[k] < self.quota[k]:
                    assign[m] = k
                    counts[k] += 1
                    break
        return assign

    def matching(self, assign: np.ndarray) -> Matching:
        return Matching(assign=assign, serving_nodes=self.serving_nodes)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assign: np.ndarray) -> EvalResult:
        """Rates, utilities and welfare of one assignment.

        Bandwidth splits equally inside each serving node.  Subcarriers go
        round-robin (by ascending UE id) from the node's seeded offset, and
        only same-index transmissions interfere.  Welfare is the serving-node
        sum plus the UE sum, which algebraically doubles the UE total.  This
        is the one-row case of `_evaluate_rows`, the only evaluator.
        """
        rows = self._evaluate_rows(np.asarray(assign, dtype=np.int64)[None, :])
        return _eval_row(rows, 0)

    def _evaluate_rows(self, A: np.ndarray) -> tuple[np.ndarray, ...]:
        """Evaluate a (B, M) stack of assignments in one pass.

        Returns (utilities, rates, sn_utilities, welfare), each with a
        leading B axis.  Each row equals the evaluation of that row alone
        bit for bit, because every float is summed in an order that does not
        depend on B:

        - interference sums over the node axis of a (B, S+1, M) product,
          which is not the contiguous axis, so it adds node by node in id
          order; SCBSs first, then the own-signal subtraction, then relays;
        - serving-node utilities come from one bincount whose keys are
          offset by (S + 1) per row, so each row accumulates in ascending
          UE order;
        - welfare is the sum over contiguous rows of both totals.

        Adding or subtracting 0.0 leaves a float unchanged, so UEs of every
        kind go through the same vector formulas and are masked afterwards.
        """
        N, M, S, C = self.n_scbs, self.n_ues, self.n_sns, self.scenario.subcarriers
        prx, relay, offset = self._node_tables
        B = A.shape[0]
        a = A.ravel()
        a1 = a + 1                           # node index + 1; 0 = unserved
        ue = np.arange(B * M)
        col = ue % M
        keys = a1 + np.repeat(np.arange(0, B * (S + 1), S + 1), M)
        per_key = np.bincount(keys, minlength=B * (S + 1))
        share = 1.0 / per_key[keys]

        # round-robin subcarriers: the rank of a UE inside its (row, node)
        # group, by ascending UE id, comes from one stable argsort
        order = np.argsort(keys, kind="stable")
        first = np.cumsum(per_key) - per_key
        shift = np.tile(offset, B) - first
        sc = np.empty(B * M, dtype=np.int64)
        sc[order] = (shift[keys[order]] + ue) % C

        on = np.zeros(B * (S + 1) * C, dtype=bool)
        on[keys * C + sc] = True
        heard = on[(np.arange(B * (S + 1)) * C).reshape(B, S + 1, 1)
                   + sc.reshape(B, 1, M)] * prx
        signal = prx[a1, col]
        by_scbs = (a1 >= 1) & (a1 <= N)
        by_relay = a1 > N
        interference = (heard[:, 1:N + 1].sum(axis=1).ravel()
                        - np.where(by_scbs, signal, 0.0))
        if self.n_relays and self.scenario.d2d_interference:
            interference = (interference + heard[:, N + 1:].sum(axis=1).ravel()
                            - np.where(by_relay, signal, 0.0))

        sinr = signal / (self._noise_mw_hz * self._bw * share + interference)
        link = share * self._bw * np.log2(1.0 + sinr)
        scbs_rates = np.where(by_scbs, link, 0.0)
        # a D2D UE gets half the min of its relay's downlink and its access link
        d2d_rates = np.minimum(scbs_rates[ue - col + relay[a1]], link) / 2.0
        rates = np.where(by_relay, d2d_rates, scbs_rates)
        # only SCBS-served UEs use x; the others read a clipped row, masked below
        xv = np.maximum(self.x_scbs_ue[np.minimum(a, N - 1), col], X_FLOOR)
        utilities = np.where(by_scbs, np.where(self.is_relay[col], link / xv, link),
                             np.where(by_relay, d2d_rates, 0.0))

        sn_util = np.bincount(keys, weights=utilities, minlength=B * (S + 1))
        sn_util = np.ascontiguousarray(sn_util.reshape(B, S + 1)[:, 1:])
        utilities = utilities.reshape(B, M)
        welfare = sn_util.sum(axis=1) + utilities.sum(axis=1)
        return utilities, rates.reshape(B, M), sn_util, welfare

    def report(self, assign: np.ndarray) -> UtilityReport:
        ev = self.evaluate(assign)
        unserved = tuple(int(m) for m in np.flatnonzero(np.asarray(assign) < 0))
        return UtilityReport(ue_utilities=ev.utilities, ue_rates=ev.rates,
                             sn_utilities=ev.sn_utilities, welfare=ev.welfare,
                             unserved=unserved)

    # -- feasibility ------------------------------------------------------

    def move_ok(self, assign: np.ndarray, counts: np.ndarray, m: int, k: int) -> bool:
        """Can UE m move to SN k under range/kind rules and quotas?"""
        if k == assign[m] or not self.feasible_sn[m, k]:
            return False
        return counts[k] < self.quota[k]

    def swap_ok(self, assign: np.ndarray, m: int, n: int) -> bool:
        """Can m and n trade serving nodes?  (Loads stay equal, so no quota.)"""
        km, kn = assign[m], assign[n]
        if km < 0 or kn < 0 or km == kn:
            return False
        return bool(self.feasible_sn[m, kn] and self.feasible_sn[n, km])


def _eval_row(rows: tuple[np.ndarray, ...], i: int) -> EvalResult:
    """Row i of an `_evaluate_rows` result."""
    utilities, rates, sn_util, welfare = rows
    return EvalResult(utilities=utilities[i], rates=rates[i],
                      sn_utilities=sn_util[i], welfare=float(welfare[i]))


def build_problem(scenario: RadioScenario, graph: SocialGraph,
                  x: SocialDistanceMatrix,
                  config: SwapEngineConfig | None = None) -> AssociationProblem:
    """Front door for constructing an AssociationProblem."""
    return AssociationProblem(scenario, graph, x, config)


# --------------------------------------------------------------------------
# baseline
# --------------------------------------------------------------------------

def scbs_reception(scenario: RadioScenario) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) SCBS-to-UE received power in mW and the matching in-range mask."""
    d_su = scbs_ue_distances(scenario)
    prx = (dbm_to_mw(scenario.scbs_power_dbm)
           * 10.0 ** (-pathloss_db(SCBS, d_su, scenario.pathloss) / 10.0)
           * scenario.fading_gain)
    return prx, d_su <= scenario.scbs_radius_m


def max_rssi(prx: np.ndarray, in_range: np.ndarray) -> np.ndarray:
    """Strongest in-range SCBS of each UE, ties to the lowest id; -1 if none."""
    best = np.argmax(np.where(in_range, prx, -np.inf), axis=0)
    return np.where(in_range.any(axis=0), best, -1).astype(np.int64)


def max_rssi_baseline(scenario: RadioScenario) -> Matching:
    """Classical cell selection: strongest in-range SCBS, ties to lowest id.

    No D2D, no load awareness.  UEs outside every SCBS's radius stay
    unserved.  Invariant to any common rescaling of transmit powers, since
    only the argmax matters.
    """
    nodes = tuple(ServingNode(SN_SCBS, i) for i in range(scenario.n_scbs))
    return Matching(assign=max_rssi(*scbs_reception(scenario)), serving_nodes=nodes)


# --------------------------------------------------------------------------
# annealed swap search
# --------------------------------------------------------------------------

def _beta_at(cfg: SwapEngineConfig, t: int, total: int) -> float:
    frac = 0.0 if total <= 1 else t / (total - 1)
    if cfg.cooling == "literal":
        return cfg.beta_start * (1.0 - frac)
    if cfg.schedule == "linear":
        return cfg.beta_start + (cfg.beta_end - cfg.beta_start) * frac
    return cfg.beta_start * (cfg.beta_end / cfg.beta_start) ** frac


def _accept_prob(beta: float, delta_w: float, w_current: float, floor: float) -> float:
    z = beta * (delta_w / max(abs(w_current), floor))
    z = min(max(z, -700.0), 700.0)
    return 1.0 / (1.0 + math.exp(-z))


def anneal_on_problem(problem: AssociationProblem) -> AnnealResult:
    """Run the annealed swap search on a prepared problem."""
    cfg = problem.config
    rng = np.random.default_rng(cfg.seed)
    assign = problem.initial_assignment()
    # Loads, quotas and each UE's feasible nodes as Python lists: filtering
    # a UE's one or two nodes in Python beats a numpy mask per proposal.
    counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns).tolist()
    quota = problem.quota.tolist()
    reach = [np.flatnonzero(row).tolist() for row in problem.feasible_sn]
    w_cur = problem.evaluate(assign).welfare
    best = assign.copy()
    w_best = w_cur
    best_iter = 0

    pool = np.flatnonzero(problem.servable)
    trace: list[TraceRow] = []
    stall = 0
    iterations = 0

    for t in range(1, cfg.max_iterations + 1):
        if len(pool) == 0:
            break
        iterations = t
        beta = _beta_at(cfg, t - 1, cfg.max_iterations)
        kind = MOVE_SWAP if rng.random() < cfg.move_mix else MOVE_SINGLE
        accepted = False
        proposal = None

        if kind == MOVE_SWAP and len(pool) >= 2:
            i1 = int(rng.integers(len(pool)))
            i2 = int(rng.integers(len(pool) - 1))
            if i2 >= i1:
                i2 += 1
            m, n = int(pool[i1]), int(pool[i2])
            if problem.swap_ok(assign, m, n):
                proposal = assign.copy()
                proposal[m], proposal[n] = assign[n], assign[m]
                moved = (m, n)
        elif kind == MOVE_SINGLE:
            m = int(pool[rng.integers(len(pool))])
            here = assign[m]
            targets = [k for k in reach[m] if k != here and counts[k] < quota[k]]
            if targets:
                k = targets[int(rng.integers(len(targets)))]
                proposal = assign.copy()
                proposal[m] = k
                moved = (m,)

        if proposal is not None:
            ev = problem.evaluate(proposal)
            ok_rate = (cfg.min_rate_bps <= 0
                       or all(ev.rates[u] >= cfg.min_rate_bps for u in moved))
            if ok_rate:
                p = _accept_prob(beta, ev.welfare - w_cur, w_cur, cfg.welfare_floor)
                if rng.random() < p:
                    if len(moved) == 1:           # a swap leaves the loads alone
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

    return AnnealResult(matching=problem.matching(best),
                        report=problem.report(best),
                        trace=tuple(trace),
                        best_iteration=best_iter,
                        iterations_run=iterations,
                        ranking=problem.ranking,
                        problem=problem)


# --------------------------------------------------------------------------
# two-sided stability
# --------------------------------------------------------------------------

# Reason codes of the two-sided check, in the order it tests them.
_APPROVED, _BELOW_MIN_RATE, _SOMEONE_WORSE, _NOBODY_BETTER = range(4)
_REASONS = ("approved", "below-min-rate", "someone-worse", "nobody-better")

#: Candidate swaps evaluated per `_evaluate_rows` call by the scanner.
_SCAN_BLOCK = 64


def _judge(problem: AssociationProblem, assign: np.ndarray, base: EvalResult,
           m: np.ndarray, n: np.ndarray, k: np.ndarray):
    """Evaluate a block of feasible swaps of `assign` and judge each one.

    Swap i moves UE m[i] to serving node k[i]; when n[i] >= 0 it is a pair
    swap in which UE n[i] (now on k[i]) takes m[i]'s node.  Returns the
    reason codes, the welfare deltas against `base` (the evaluation of
    `assign`) and the `_evaluate_rows` result of the swapped states.
    """
    rows = np.arange(len(m))
    pair = n >= 0
    swapped = np.repeat(assign[None, :], len(m), axis=0)
    swapped[rows, m] = k
    swapped[rows[pair], n[pair]] = assign[m[pair]]
    after = problem._evaluate_rows(swapped)
    utilities, rates, sn_util, welfare = after
    # every touched player: the movers and the nodes they leave and join;
    # a move stands in m for the missing partner and k for a missing node
    n = np.where(pair, n, m)
    left = np.where(assign[m] >= 0, assign[m], k)
    now = np.stack([utilities[rows, m], utilities[rows, n],
                    sn_util[rows, left], sn_util[rows, k]])
    before = np.stack([base.utilities[m], base.utilities[n],
                       base.sn_utilities[left], base.sn_utilities[k]])
    floor = problem.config.min_rate_bps
    low = (floor > 0) & ((rates[rows, m] < floor) | (rates[rows, n] < floor))
    codes = np.select([low, (now < before).any(axis=0), (now > before).any(axis=0)],
                      [_BELOW_MIN_RATE, _SOMEONE_WORSE, _APPROVED], _NOBODY_BETTER)
    return codes, welfare - base.welfare, after


def is_stable_swap(problem: AssociationProblem, assign: np.ndarray, m: int,
                   n: int | None = None, target: int | None = None) -> SwapCheck:
    """Two-sided swap condition: nobody touched loses, someone strictly gains.

    Pass `n` for a pair swap, or `target` (a serving-node index with spare
    quota) for a single move.  A True result means the swap would be
    executed by the greedy pass; an assignment is swap-stable exactly when
    no such swap exists.  The check is the scanner's, on a block of one.
    """
    assign = np.asarray(assign, dtype=np.int64)
    if n is not None:
        if n == m:
            return SwapCheck(satisfied=False, reason="degenerate")
        if not problem.swap_ok(assign, m, n):
            return SwapCheck(satisfied=False, reason="infeasible")
        target = int(assign[n])
    elif target is None:
        return SwapCheck(satisfied=False, reason="no-target")
    else:
        counts = np.bincount(assign[assign >= 0], minlength=problem.n_sns)
        if not problem.move_ok(assign, counts, m, target):
            return SwapCheck(satisfied=False, reason="infeasible")
    codes, delta, _ = _judge(problem, assign, problem.evaluate(assign), np.array([m]),
                             np.array([-1 if n is None else n]), np.array([target]))
    code = int(codes[0])
    return SwapCheck(satisfied=code == _APPROVED, reason=_REASONS[code],
                     welfare_delta=(float("nan") if code == _BELOW_MIN_RATE
                                    else float(delta[0])))


def _swap_masks(problem: AssociationProblem,
                assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, M) pair-swap and (M, S) single-move feasibility of `assign`.

    Elementwise equal to `swap_ok` and to `move_ok` under the loads of
    `assign`.
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


def _approved_swaps(problem: AssociationProblem, assign: np.ndarray):
    """Yield (violation, post-swap evaluation) for every approvable swap.

    Scans pair swaps m < n first, then single moves of each servable UE to
    each feasible serving node, always judging against the live `assign`.
    The feasible swaps are listed by one mask and judged `_SCAN_BLOCK` at a
    time: one `_evaluate_rows` call evaluates the block and one vector
    check judges it, with results bit-identical to judging one swap at a
    time.  A caller may apply the yielded swap to `assign` before resuming;
    the scan then lists the feasible swaps of the new state and continues
    after the applied one, with the yielded evaluation as its new base.
    """
    M, S = problem.n_ues, problem.n_sns
    base = problem.evaluate(assign)
    todo = _scan_order(problem, assign)
    while len(todo):
        block, todo = todo[:_SCAN_BLOCK], todo[_SCAN_BLOCK:]
        pair = block < M * M
        move = block - M * M
        m = np.where(pair, block // M, move // S)
        n = np.where(pair, block % M, -1)
        k = np.where(pair, assign[n], move % S)
        codes, delta, after = _judge(problem, assign, base, m, n, k)
        for i in np.flatnonzero(codes == _APPROVED):
            was = assign[m[i]]
            ev = _eval_row(after, i)
            yield StabilityViolation(int(m[i]), None if n[i] < 0 else int(n[i]),
                                     int(k[i]), float(delta[i])), ev
            if assign[m[i]] != was:
                base = ev
                todo = _scan_order(problem, assign)
                todo = todo[todo > block[i]]
                break


def audit_stability(problem: AssociationProblem,
                    assign: np.ndarray) -> list[StabilityViolation]:
    """Exhaustively list every approvable pair swap and single move."""
    return [v for v, _ in _approved_swaps(problem, assign)]


@dataclass(frozen=True)
class StabilizeResult:
    assign: np.ndarray
    applied: int
    welfares: tuple[float, ...]


def greedy_stabilize(problem: AssociationProblem, assign: np.ndarray,
                     max_swaps: int = 100000) -> StabilizeResult:
    """Apply approvable swaps in deterministic order until none remain.

    Scans pair swaps then single moves, applying each approved swap on the
    spot, and repeats until a full pass applies nothing -- at that point
    audit_stability() is empty by construction.  `max_swaps` caps runaway
    instances; hitting it raises RuntimeError rather than returning a
    not-actually-stable state.
    """
    assign = np.array(assign, dtype=np.int64)
    welfares: list[float] = []
    changed = True
    while changed:
        changed = False
        for v, after in _approved_swaps(problem, assign):
            if v.other_ue is None:
                assign[v.ue] = v.target_sn
            else:
                assign[v.ue], assign[v.other_ue] = assign[v.other_ue], assign[v.ue]
            welfares.append(after.welfare)
            changed = True
            if len(welfares) >= max_swaps:
                raise RuntimeError("greedy stabilization did not settle")
    return StabilizeResult(assign=assign, applied=len(welfares), welfares=tuple(welfares))


# --------------------------------------------------------------------------
# exports
# --------------------------------------------------------------------------

def matching_to_csv(matching: Matching, report: UtilityReport, path,
                    meta: dict | None = None) -> None:
    """Write `ue_id,sn_id,sn_kind,rate_bps,utility` rows, one per UE.

    Metadata (config hash, seed, ...) goes into leading `# key=value`
    comment lines.  Unserved UEs get sn_id -1 and kind "none".
    """
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
                writer.writerow([m, sn.node_id, sn.kind,
                                 repr(float(report.ue_rates[m])),
                                 repr(float(report.ue_utilities[m]))])


def load_matching_csv(path) -> tuple[dict, list[tuple[int, int, str]]]:
    """Read back a matching CSV; returns (meta, [(ue, sn_id, sn_kind), ...])."""
    meta: dict[str, str] = {}
    rows: list[tuple[int, int, str]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        lines = []
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    meta[key.strip()] = val.strip()
            else:
                lines.append(line)
        reader = csv.DictReader(lines)
        for row in reader:
            try:
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
            if sn_id not in problem.relay_sn_of:
                raise InputError(f"ue{sn_id} is not a relay in this scenario")
            k = problem.relay_sn_of[sn_id]
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "welfare", "best_welfare", "accepted", "move_kind"])
        for row in trace:
            writer.writerow([row.iteration, repr(row.welfare), repr(row.best_welfare),
                             int(row.accepted), row.move_kind])
