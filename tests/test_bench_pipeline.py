"""The benchmark's replay, perfbench/pipeline.py, against the sweep harness.

The benchmark calls socialcell's public builders one layer at a time, with
the signatures it was written against.  This drives that replay on a tiny
stabilized sweep, bare and traced, so a change to any function it calls
fails here rather than only in a benchmark run.  It also runs
perfbench/run.py on each workload, shrunken, end to end, for the calls
run.py makes itself.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from socialcell.config import ScenarioConfig
from socialcell.harness import ExperimentSpec, emit_results, run_experiment

ROOT = Path(__file__).resolve().parents[1]
PIPELINE = ROOT / "perfbench" / "pipeline.py"


def _load_pipeline():
    spec = importlib.util.spec_from_file_location("perfbench_pipeline", PIPELINE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    # write no bytecode cache into the benchmark's directory
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


pipeline = _load_pipeline()

CFG = ScenarioConfig(n_scbs=2, macro_radius_m=80.0, seed=9, max_iterations=120,
                     stall_window=0, stabilize=True, sweep_variable="n_ues",
                     sweep_values=(4, 6), replications=2)

LAYER_SPANS = {"radio.topology", "socialgraph.graph", "socialgraph.betweenness",
               "socialgraph.similarity", "socialgraph.distance", "matching.build",
               "matching.evaluate", "matching.anneal", "matching.stabilize",
               "matching.report", "matching.audit"}


@pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
def test_replay_equals_run_experiment_and_audits_clean(traced, tmp_path):
    spec = ExperimentSpec.from_config(CFG)
    tracer = pipeline.Tracer() if traced else pipeline.NO_TRACE
    rep = pipeline.replay(spec, tmp_path / "replay", tracer)
    assert rep.failed == []
    assert rep.attempted == 4

    want = run_experiment(spec)
    assert tuple(rep.rows) == want.rows
    for name, path in emit_results(want, tmp_path / "harness").items():
        if name != "summary":      # the summary carries a timestamp
            assert Path(rep.emitted[name]).read_bytes() == Path(path).read_bytes(), name

    assert [cell.stabilized for cell in rep.cells] == [True] * 4
    assert pipeline.audit_cells(rep.cells, tracer) == [0] * 4

    if traced:
        assert LAYER_SPANS <= {sp.name for sp in tracer.spans}
        metrics = pipeline.layer_metrics(tracer, rep)
        assert all(math.isfinite(v) for v in metrics.values())
        assert metrics["matching.evaluate_calls"] > 0



@pytest.mark.parametrize("workload", ["desk-sweep", "wide-m500", "dense-stabilize"])
def test_the_bench_runs_a_shrunken_workload_end_to_end(workload):
    """run.py's warm-up, its `cli.main` sweep and its reference checks, on
    each workload's smoke shape: every operation passes, and the metrics
    are the end-to-end ones BENCHMARK.json declares, in its units."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--smoke", "--trace", "0"],
        cwd=ROOT, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert ({name: metric["unit"] for name, metric in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared["end_to_end"]})
