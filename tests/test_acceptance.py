"""Acceptance battery: nine end-to-end checks of the whole deliverable.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line with the measured
numbers, then asserts, so `pytest -v` shows one verdict per criterion and
failures carry the evidence in their message.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import clustered_instance, exhaustive_best_welfare, state_count
from test_socialgraph import _random_graph, brute_force_edge_betweenness

from socialcell import matching, reference
from socialcell import socialgraph as sg
from socialcell.cli import main as cli_main
from socialcell.config import ScenarioConfig
from socialcell.harness import (METHOD_BASELINE, METHOD_SOCIAL, ExperimentSpec,
                                run_experiment)
from socialcell.matching import (anneal_on_problem, audit_stability, build_problem,
                                 greedy_stabilize)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# --------------------------------------------------------------------------
# shared desk-scale sweeps (criteria 6, 7, 8)
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def n_sweep():
    """N in {4,8,12,16}, M=60, 20 replications, stock defaults."""
    cfg = ScenarioConfig(sweep_variable="n_scbs", sweep_values=(4, 8, 12, 16),
                         replications=20)
    t0 = time.perf_counter()
    result = run_experiment(ExperimentSpec.from_config(cfg))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def m_sweep():
    """M in {60,120}, N=16, 20 replications, stock defaults."""
    cfg = ScenarioConfig(sweep_variable="n_ues", sweep_values=(60, 120),
                         replications=20)
    t0 = time.perf_counter()
    result = run_experiment(ExperimentSpec.from_config(cfg))
    return result, time.perf_counter() - t0


def _by_method(result, method):
    return {a.x: a for a in result.aggregates if a.method == method}


# --------------------------------------------------------------------------
# criterion 1: golden reference network
# --------------------------------------------------------------------------

def test_acceptance_1_golden_reference_network():
    t0 = time.perf_counter()
    rows = reference.golden_checks()
    elapsed_ms = 1e3 * (time.perf_counter() - t0)

    g = reference.reference_graph()
    b = sg.edge_betweenness(g)
    counts = brute_force_edge_betweenness(g.adjacency.astype(float), 1.0)
    raw = sg.common_neighbours(g)

    def entry(matrix, a, c):
        u, v = (sg.vertex(sg.parse_node_label(label), g.n_scbs, g.n_vertices - g.n_scbs)
                for label in (a, c))
        return float(matrix[u, v])

    # B is the raw counts over (V-1)(V-2) = 12 for V = 5
    spot_ok = (np.allclose(b * 12.0, counts, atol=1e-12, rtol=0)
               and entry(raw, "scbs0", "ue1") == pytest.approx(0.583, abs=1e-3)
               and entry(raw, "ue1", "ue2") == pytest.approx(0.50, abs=1e-3)
               and entry(raw, "scbs0", "ue3") == pytest.approx(0.25, abs=1e-3))
    n_ok = sum(r.ok for r in rows)
    ok = n_ok == len(rows) and spot_ok and elapsed_ms < 500.0
    line = _verdict(1, ok, f"{n_ok}/{len(rows)} reference checks within 1e-3, "
                           f"raw similarity spot values ok={spot_ok}, "
                           f"{elapsed_ms:.1f} ms (budget: milliseconds)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 2: betweenness equals brute force
# --------------------------------------------------------------------------

def test_acceptance_2_betweenness_matches_brute_force():
    rng = np.random.default_rng(20250823)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_vertices = int(rng.integers(3, 9))
        p = float(rng.uniform(0.15, 0.85))
        g = _random_graph(rng, n_vertices, p)
        got = sg.edge_betweenness(g)
        want = brute_force_edge_betweenness(g.adjacency.astype(float),
                                            (n_vertices - 1) * (n_vertices - 2))
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    line = _verdict(2, ok, f"200 random graphs (V<=8), max |diff|={worst:.2e} "
                           f"(tol 1e-9), {elapsed:.1f} s (budget: seconds)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 3: anneal reaches the enumerated optimum
# --------------------------------------------------------------------------

def test_acceptance_3_anneal_matches_exhaustive_search():
    t0 = time.perf_counter()
    hits = exceeds = 0
    for seed in range(100):
        engine = ScenarioConfig(seed=seed, max_iterations=3000, stall_window=0)
        inst = clustered_instance(seed, n_scbs=2, n_ues=8, engine=engine)
        problem = inst.problem
        assert len(problem.relay_ues) <= 2
        assert state_count(problem) <= 300_000
        assert (problem.start_assignment[problem.servable] >= 0).all()
        w_star = exhaustive_best_welfare(problem)
        fresh = build_problem(inst.scenario, inst.graph, inst.x, engine)
        w = fresh.evaluate(anneal_on_problem(fresh).matching.assign).welfare
        if w > w_star * (1.0 + 1e-9):
            exceeds += 1
        if abs(w - w_star) <= 1e-9 * abs(w_star):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and exceeds == 0 and elapsed < 120.0
    line = _verdict(3, ok, f"optimum hit in {hits}/100 seeds (need >=95), "
                           f"exceeded it {exceeds} times (need 0), "
                           f"{elapsed:.1f} s (budget 120 s)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 4: greedy post-pass leaves no approved swap
# --------------------------------------------------------------------------

def test_acceptance_4_stability_after_greedy_post_pass():
    t0 = time.perf_counter()
    dirty = 0
    for seed in range(50):
        n_ues = 8 + seed % 13           # 8..20 UEs
        n_scbs = 2 + seed % 3
        assert n_ues <= 20
        engine = ScenarioConfig(seed=seed, max_iterations=400)
        inst = clustered_instance(seed, n_scbs=n_scbs, n_ues=n_ues, engine=engine)
        result = anneal_on_problem(inst.problem)
        settled = greedy_stabilize(inst.problem, result.matching.assign)
        if audit_stability(inst.problem, settled.assign):
            dirty += 1
    elapsed = time.perf_counter() - t0
    ok = dirty == 0 and elapsed < 60.0
    line = _verdict(4, ok, f"{50 - dirty}/50 instances audit clean after the "
                           f"post-pass, {elapsed:.1f} s (budget 60 s)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 5: trace monotonicity and from-scratch welfare agreement
# --------------------------------------------------------------------------

class _RecordingKernel:
    """Pass-through wrapper of the kernel that logs every row it evaluates."""

    def __init__(self):
        self._inner = matching._evaluate_rows
        self.calls = []

    def __call__(self, shape, tables, A, cols=None):
        rows = self._inner(shape, tables, A, cols)
        self.calls.extend(zip(np.array(A), rows[3].tolist()))
        return rows


def test_acceptance_5_welfare_trace_integrity(monkeypatch):
    runs = accepted_checked = 0
    worst_rel = 0.0
    monotone = True
    for seed in range(8):
        engine = ScenarioConfig(seed=seed, max_iterations=400)
        inst = clustered_instance(seed, n_ues=10 + seed % 5, engine=engine)
        recorder = _RecordingKernel()
        with monkeypatch.context() as patch:
            patch.setattr(matching, "_evaluate_rows", recorder)
            result = anneal_on_problem(inst.problem)
        runs += 1

        best_seen = -np.inf
        for row in result.trace:
            monotone &= row.best_welfare >= best_seen
            best_seen = row.best_welfare

        fresh = build_problem(inst.scenario, inst.graph, inst.x, engine)
        by_welfare = {w: a for a, w in recorder.calls}
        for row in result.trace:
            if not row.accepted:
                continue
            assert row.welfare in by_welfare, "accepted welfare has no recorded state"
            again = fresh.evaluate(by_welfare[row.welfare]).welfare
            rel = abs(again - row.welfare) / max(abs(again), 1e-12)
            worst_rel = max(worst_rel, rel)
            accepted_checked += 1
    ok = monotone and worst_rel <= 1e-9 and accepted_checked > 0
    line = _verdict(5, ok, f"best-so-far nondecreasing in {runs}/{runs} runs; "
                           f"{accepted_checked} accepted swaps re-evaluated from "
                           f"scratch, max rel diff {worst_rel:.2e} (tol 1e-9)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 6: desk-scale rate gains and trends
# --------------------------------------------------------------------------

def test_acceptance_6_rate_gain_and_trends(n_sweep, m_sweep):
    n_res, n_secs = n_sweep
    m_res, m_secs = m_sweep
    soc_n = _by_method(n_res, METHOD_SOCIAL)
    xs = sorted(soc_n)
    gains = [soc_n[x].gain_pct for x in xs]
    rates_n = [soc_n[x].mean_rate for x in xs]
    soc_m = _by_method(m_res, METHOD_SOCIAL)
    ms = sorted(soc_m)
    rates_m = [soc_m[x].mean_rate for x in ms]

    ok_floor = all(g >= 10.0 for g in gains)
    ok_monotone = all(b >= a for a, b in zip(gains, gains[1:]))
    ok_rate_up = all(b > a for a, b in zip(rates_n, rates_n[1:]))
    ok_rate_down = all(b < a for a, b in zip(rates_m, rates_m[1:]))
    elapsed = n_secs + m_secs
    ok = ok_floor and ok_monotone and ok_rate_up and ok_rate_down and elapsed < 600.0

    gain_txt = "/".join(f"{g:+.2f}%" for g in gains)
    rate_n_txt = "->".join(f"{r / 1e6:.2f}" for r in rates_n)
    rate_m_txt = "->".join(f"{r / 1e6:.2f}" for r in rates_m)
    line = _verdict(
        6, ok,
        f"gain over max-RSSI at N={xs}: {gain_txt} "
        f"(>=10% everywhere: {'PASS' if ok_floor else 'FAIL'}; "
        f"nondecreasing in N: {'PASS' if ok_monotone else 'FAIL'}); "
        f"mean rate vs N {rate_n_txt} Mbps (increasing: "
        f"{'PASS' if ok_rate_up else 'FAIL'}); "
        f"mean rate vs M {rate_m_txt} Mbps (decreasing: "
        f"{'PASS' if ok_rate_down else 'FAIL'}); "
        f"{elapsed:.0f} s (budget 600 s)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 7: welfare above baseline at every point
# --------------------------------------------------------------------------

def test_acceptance_7_welfare_exceeds_baseline(n_sweep, m_sweep):
    margins = []
    for result, _ in (n_sweep, m_sweep):
        soc = _by_method(result, METHOD_SOCIAL)
        base = _by_method(result, METHOD_BASELINE)
        for x in sorted(soc):
            margins.append((x, 100.0 * (soc[x].mean_welfare - base[x].mean_welfare)
                            / base[x].mean_welfare))
    ok = all(m > 0.0 for _, m in margins)
    txt = ", ".join(f"x={x}:{m:+.2f}%" for x, m in margins)
    line = _verdict(7, ok, f"social-aware mean welfare vs baseline: {txt} "
                           f"(must be positive everywhere)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 8: more UEs need more iterations
# --------------------------------------------------------------------------

def test_acceptance_8_iterations_grow_with_load(m_sweep):
    m_res, _ = m_sweep
    soc = _by_method(m_res, METHOD_SOCIAL)
    iters = {x: soc[x].mean_iters for x in soc}
    ok = iters[120] > iters[60]
    line = _verdict(8, ok, f"mean iterations to best: M=60 -> {iters[60]:.1f}, "
                           f"M=120 -> {iters[120]:.1f} (must grow)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 9: repeated sweeps are byte identical
# --------------------------------------------------------------------------

def test_acceptance_9_sweep_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "n_scbs = 2\nn_ues = 6\nmacro_radius_m = 80.0\nseed = 9\n"
        "max_iterations = 120\nstall_window = 0\n"
        "sweep_variable = n_ues\nsweep_values = 4,6\nreplications = 3\n")
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", out,
                       "--quiet"])
        assert rc == 0
        outs.append(out)

    identical = {}
    for name in ("sweep_M.csv", "replications.csv"):
        b1 = Path(outs[0], name).read_bytes()
        b2 = Path(outs[1], name).read_bytes()
        identical[name] = b1 == b2
    s1 = json.loads(Path(outs[0], "summary.json").read_text())
    s2 = json.loads(Path(outs[1], "summary.json").read_text())
    s1.pop("generated_at"), s2.pop("generated_at")
    ok = all(identical.values()) and s1 == s2
    line = _verdict(9, ok, "two sweep invocations: "
                    + ", ".join(f"{k} identical={v}" for k, v in identical.items())
                    + f", summaries equal up to timestamp={s1 == s2}")
    assert ok, line
