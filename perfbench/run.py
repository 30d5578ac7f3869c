"""Benchmark of the `socialcell sweep` path on three fixed workloads.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a socialcell checkout; it imports the package
from that checkout's `src/` and refuses to run without it.  The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics, timed
with tracing off; `--trace 1` replays the sweep with a span around every
call into a layer and reports the per-layer metrics.  The line before it,
starting with `info `, records the machine, library versions, seed and raw
samples.  perfbench/README.md describes the workloads and metrics.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is first imported,
# so a run loads one core however many the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import dataclasses
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Workload = stock ScenarioConfig plus these keys, the base seed and
#: workers = 1.  `smoke` shrinks it for perfbench/smoke.py.
WORKLOADS = {
    # 80 small problems (V <= 76): per-replication fixed cost and the
    # anneal's proposal loop, which evaluates under a tenth of its proposals.
    "desk-sweep": {
        "keys": {"sweep_variable": "n_scbs", "sweep_values": "4,8,12,16",
                 "n_ues": "60", "replications": "40"},
        "smoke": {"sweep_values": "4,16", "replications": "2"},
    },
    # V = 516 over a 500 m disk: edge betweenness carries the run and the
    # matching layer is nearly idle.
    "wide-m500": {
        "keys": {"n_scbs": "16", "sweep_variable": "n_ues", "sweep_values": "500",
                 "replications": "3"},
        "smoke": {"sweep_values": "120", "replications": "1"},
    },
    # Most UEs covered and stabilize on: evaluate() carries the run, called
    # from the anneal, greedy_stabilize and the audit of every matching.
    # 24 replications of M = 100 rather than 4 of M = 200: the cost and the
    # rate gain of one replication vary several-fold with the drop, so few
    # replications make them differ from seed to seed.
    "dense-stabilize": {
        "keys": {"n_scbs": "8", "macro_radius_m": "100", "sweep_variable": "n_ues",
                 "sweep_values": "100", "replications": "24", "stabilize": "true"},
        "smoke": {"sweep_values": "40", "replications": "2"},
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_time_ref": "ref", "peak_rss_mb": "MB", "rate_ratio_pct": "%",
}

PER_LAYER_UNITS = {
    "config.load_s": "s",
    "radio.topology_s": "s",
    "socialgraph.graph_s": "s",
    "socialgraph.betweenness_s": "s",
    "socialgraph.betweenness_edge_visits": "count",
    "socialgraph.similarity_s": "s",
    "socialgraph.distance_s": "s",
    "matching.build_s": "s",
    "matching.evaluate_calls": "count",
    "matching.evaluate_s": "s",
    "matching.evaluate_us_p50": "us",
    "matching.anneal_s": "s",
    "matching.anneal_iterations": "count",
    "matching.anneal_evaluated_ratio": "ratio",
    "matching.anneal_accept_ratio": "ratio",
    "matching.best_iteration_mean": "count",
    "matching.stabilize_s": "s",
    "matching.stabilize_applied": "count",
    "matching.stabilize_evaluate_calls": "count",
    "matching.audit_s": "s",
    "matching.audit_evaluate_calls": "count",
    "matching.welfare_ratio_pct": "%",
    "harness.emit_s": "s",
    "harness.emit_bytes": "B",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "cli.sweep_wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 5
#: Reference loops timed before and after each sweep, about 1.2 s together.
REFERENCE_LOOPS = 3


def _say(text: str) -> None:
    print(f"perfbench: {text}", file=sys.stderr, flush=True)


def import_program() -> None:
    """Import socialcell from this checkout's src/, never from elsewhere."""
    init = SRC / "socialcell" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a socialcell checkout")
    sys.path.insert(0, str(SRC))
    import socialcell
    if Path(socialcell.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {socialcell.__file__}, expected {init}")


class Ledger:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            _say(f"FAILED: {what}")
        return ok


def config_text(workload: str, seed: int, smoke: bool) -> str:
    keys = dict(WORKLOADS[workload]["keys"])
    if smoke:
        keys.update(WORKLOADS[workload]["smoke"])
    lines = [f"seed = {seed}", "workers = 1"] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def machine_info() -> dict:
    import networkx
    import numpy
    import scipy
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# --------------------------------------------------------------------------
# pieces shared by both modes
# --------------------------------------------------------------------------

def golden(ledger: Ledger) -> None:
    from socialcell.reference import golden_checks
    bad = [row.name for row in golden_checks() if not row.ok]
    ledger.op(not bad, f"reference.golden_checks failed: {bad}")


def warm_up(spec) -> None:
    """One replication of the first point, so lazy imports and caches are filled."""
    from socialcell import harness
    harness.run_experiment(dataclasses.replace(
        spec, sweep_values=spec.sweep_values[:1], replications=1))


def checked_replay(spec, out_dir: Path, ledger: Ledger, tracer):
    """Replay every replication; each one is an operation."""
    import pipeline
    rep = pipeline.replay(spec, out_dir, tracer)
    for _ in range(rep.attempted - len(rep.failed)):
        ledger.op(True, "replication")
    for what in rep.failed:
        ledger.op(False, what)
    return rep


def checked_audit(cells, ledger: Ledger, tracer) -> bool:
    """Audit every kept matching; a stabilized one must have no approvable swap."""
    import pipeline
    try:
        found = pipeline.audit_cells(cells, tracer)
    except Exception:
        ledger.op(False, "audit_stability raised:\n" + traceback.format_exc())
        return False
    for cell, n in zip(cells, found):
        ledger.op(not (cell.stabilized and n),
                  f"stabilized matching of replication {cell.replication} "
                  f"has {n} approvable swaps")
    return True


def deterministic_outputs(paths: dict) -> dict[str, bytes]:
    """The sweep's CSV files by name (summary.json carries a timestamp)."""
    return {Path(paths[k]).name: Path(paths[k]).read_bytes()
            for k in ("aggregates", "replications")}


def checked_sweep(rc: int, out_dir: Path, expected: dict[str, bytes],
                  ledger: Ledger) -> None:
    """A CLI sweep is correct when it exits 0 and its CSV files equal the
    replay's byte for byte."""
    if ledger.op(rc == 0, f"socialcell sweep exited {rc}"):
        got = {name: (out_dir / name).read_bytes() for name in expected}
        ledger.op(got == expected, "sweep outputs differ from the replay's")


def checked_aggregates(rep, ledger: Ledger) -> list[dict]:
    """The replay's per-point aggregates; every number must be finite."""
    from socialcell import harness
    with open(rep.emitted["aggregates"], newline="", encoding="utf-8") as fh:
        rows = [{k: v if k == "method" else float(v or "nan") for k, v in row.items()}
                for row in csv.DictReader(fh)]
    numbers = [v for row in rows for k, v in row.items() if k != "method"
               and not (k == "gain_pct" and row["method"] == harness.METHOD_BASELINE)]
    ledger.op(all(math.isfinite(v) for v in numbers), "non-finite sweep aggregate")
    return rows


def _social_and_baseline(aggregates: list[dict]):
    from socialcell import harness
    base = {r["x"]: r for r in aggregates if r["method"] == harness.METHOD_BASELINE}
    return [(r, base[r["x"]]) for r in aggregates if r["method"] == harness.METHOD_SOCIAL]


def rate_ratio_pct(aggregates: list[dict]) -> float:
    """Mean over sweep points of 100 x social-aware / max-RSSI mean rate,
    which is 100 + the harness gain_pct."""
    return statistics.mean(100.0 + soc["gain_pct"]
                           for soc, _ in _social_and_baseline(aggregates))


def welfare_ratio_pct(aggregates: list[dict]) -> float:
    """Mean over sweep points of 100 x social-aware / max-RSSI mean welfare."""
    return statistics.mean(100.0 * soc["mean_welfare"] / base["mean_welfare"]
                           for soc, base in _social_and_baseline(aggregates))


# --------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# --------------------------------------------------------------------------

def measure_setup(cfg_path: Path, ledger: Ledger) -> list[float]:
    """Fresh-process time to import socialcell, parse the config and build
    the ExperimentSpec, each measured inside its child."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(cfg_path)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if ledger.op(proc.returncode == 0,
                     f"setup probe exited {proc.returncode}: {proc.stderr.strip()}"):
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def time_reference() -> float:
    """Seconds REFERENCE_LOOPS calls of refloop.reference_loop() take now."""
    from refloop import reference_loop
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(REFERENCE_LOOPS):
        reference_loop()
    return time.perf_counter() - t0


def run_untraced(spec, cfg_path: Path, work: Path, seconds: float, ledger: Ledger):
    import pipeline
    from socialcell import cli

    setup = measure_setup(cfg_path, ledger)
    # The replay runs every replication once before the timed loop, so it
    # is also the warm-up.
    rep = checked_replay(spec, work / "replay", ledger, pipeline.NO_TRACE)
    expected = deterministic_outputs(rep.emitted)

    sweep_dir = work / "sweep"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir), "--quiet"]
    # The reference loop runs before and after every sweep; each sweep is
    # divided by the mean of the two, which were timed at the machine's
    # speed of the moment.  After two sweeps, another starts only if it is
    # expected to end within `seconds`.
    walls, refs = [], [time_reference()]
    start = time.perf_counter()
    while (len(walls) < 2
           or time.perf_counter() - start + walls[-1] + refs[-1] <= seconds):
        gc.collect()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        walls.append(time.perf_counter() - t0)
        refs.append(time_reference())
        checked_sweep(rc, sweep_dir, expected, ledger)
    ratios = [wall / ((before + after) / 2.0)
              for wall, before, after in zip(walls, refs, refs[1:])]

    checked_audit(rep.cells, ledger, pipeline.NO_TRACE)

    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "sweep_time_ref": statistics.median(ratios),
               "rate_ratio_pct": rate_ratio_pct(checked_aggregates(rep, ledger))}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    return metrics, {"setup_s": setup, "sweep_wall_s": walls, "reference_s": refs}


# --------------------------------------------------------------------------
# --trace 1: per-layer metrics
# --------------------------------------------------------------------------

@contextlib.contextmanager
def spanned(module, name: str, tracer, results: dict):
    """Record a span around every call to module.<name> and keep its result."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        with tracer.span(f"{module.__name__.rsplit('.', 1)[-1]}.{name}"):
            out = original(*args, **kwargs)
        results[name] = out
        return out

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def traced_pass(cfg_path: Path, work: Path, ledger: Ledger):
    """One CLI sweep timed at the cli -> harness boundary only, then the
    replay and audit with a span around every layer call."""
    import pipeline
    from socialcell import cli, harness
    from socialcell import config as cfgmod

    outer, results = pipeline.Tracer(), {}
    sweep_dir = work / "sweep"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir), "--quiet"]
    gc.collect()
    with spanned(harness, "run_experiment", outer, results), \
            spanned(harness, "emit_results", outer, results):
        with outer.span("cli.main"):
            rc = cli.main(argv)

    tracer = pipeline.Tracer()
    with tracer.span("config.load"):
        spec = harness.ExperimentSpec.from_config(cfgmod.load_config(cfg_path))
    gc.collect()
    rep = checked_replay(spec, work / "replay", ledger, tracer)
    checked_audit(rep.cells, ledger, tracer)

    ran = results.get("run_experiment")
    ledger.op(ran is not None and ran.rows == tuple(rep.rows),
              "traced replay rows differ from run_experiment's rows")

    checked_sweep(rc, sweep_dir, deterministic_outputs(rep.emitted), ledger)
    metrics = pipeline.layer_metrics(tracer, rep)
    metrics["matching.welfare_ratio_pct"] = welfare_ratio_pct(checked_aggregates(rep, ledger))
    metrics["cli.self_s"] = pipeline.self_time_by_name(outer.spans).get("cli.main", 0.0)
    metrics["cli.sweep_wall_s"] = sum(sp.end - sp.start for sp in outer.spans
                                      if sp.name == "cli.main")
    untraced = sum(sp.end - sp.start for sp in outer.spans
                   if sp.name in ("harness.run_experiment", "harness.emit_results"))
    traced = sum(sp.end - sp.start for sp in tracer.spans if sp.parent == -1
                 and sp.name in ("harness.replication", "harness.aggregate", "harness.emit"))
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, outer, tracer


def run_traced(spec, cfg_path: Path, work: Path, seconds: float, ledger: Ledger,
               trace_file: Path):
    import pipeline
    warm_up(spec)
    passes, first = [], None
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        metrics, outer, tracer = traced_pass(cfg_path, work, ledger)
        last = time.perf_counter() - t0
        passes.append(metrics)
        first = first or (outer, tracer)

    counts = [k for k, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")]
    ledger.op(all(p[k] == passes[0][k] for p in passes for k in counts),
              "layer counts differ between identical passes")

    outer, tracer = first
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    pipeline.write_spans(trace_file, {"cli": outer.spans, "replay": tracer.spans})
    own = sorted(pipeline.self_time_by_name(tracer.spans).items(), key=lambda kv: -kv[1])
    _say("self time by span, first pass: "
         + ", ".join(f"{name} {t:.3f}s" for name, t in own))
    _say(f"spans written to {trace_file}")

    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    return metrics, {"passes": len(passes)}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="base seed of the workload")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed loop runs (at least two sweeps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload (used by perfbench/smoke.py)")
    args = parser.parse_args(argv)

    import_program()
    from socialcell import config as cfgmod
    from socialcell import harness

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        cfg_path = work / "workload.cfg"
        cfg_path.write_text(config_text(args.workload, args.seed, args.smoke),
                            encoding="utf-8")
        spec = harness.ExperimentSpec.from_config(cfgmod.load_config(cfg_path))
        golden(ledger)
        if args.trace:
            trace_file = OUT / "trace" / f"{args.workload}-seed{args.seed}.csv"
            metrics, samples = run_traced(spec, cfg_path, work, args.seconds, ledger,
                                          trace_file)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = run_untraced(spec, cfg_path, work, args.seconds, ledger)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing or not all(math.isfinite(v) for v in metrics.values()):
        _say(f"no result: metrics missing {missing} or not finite")
        return 1
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, **machine_info(),
            "samples": samples}
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
