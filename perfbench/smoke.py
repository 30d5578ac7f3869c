"""Smoke test of the benchmark: every workload, shrunk, in both modes.

    python3 perfbench/smoke.py

Each run must exit 0, pass its own correctness gate with no failed
operation (the traced run's gate includes the equality of the traced
replay's rows with run_experiment's, the untraced run's the byte equality
of the CLI's sweep files with the replay's), and emit exactly the metrics
BENCHMARK.json names for its mode, each with its unit.  Last, the benchmark
must refuse to run, without printing a result, where the program is absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}\n"
                        f"{proc.stderr[-2000:]}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    return problems


def check_refuses_without_program(bench: dict) -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_run(bench, workload["name"], trace)
    problems += check_refuses_without_program(bench)
    for p in problems:
        print(f"smoke: FAIL {p}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'ok'} "
          f"({len(bench['workloads'])} workloads x 2 modes, bare-directory refusal)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
