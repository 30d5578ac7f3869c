"""Command line front end.

Subcommands:

* ``run``      simulate one scenario: cell (0, 0) of a sweep's point function,
  with one matching per configured method, the searching method's trace
  and the metrics, every number checked finite before any file is written
* ``sweep``    replicate a scenario over a swept variable and aggregate
* ``validate`` recompute the built-in reference network checks
* ``audit``    re-load a saved matching and audit it for swap stability

Exit codes: 0 success, 1 configuration/input problems, 2 runtime failures,
3 failed validate/audit checks.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import config as cfgmod
from . import harness, matching, radio
from .errors import ConfigError, InputError, SocialCellError
from .reference import golden_checks


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _load_config(args) -> cfgmod.ScenarioConfig:
    """The config file, then the overrides, then --seed, as one config."""
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    return cfgmod.load_config(args.config, [*args.override, *seed])


def cmd_run(args) -> int:
    cfg = _load_config(args)
    sha = cfgmod.config_sha(cfg)
    # A single run is cell (0, 0) of the sweep's point function.  Every number
    # it would write is checked before --out is made, so an error leaves no --out.
    t0 = time.perf_counter()
    cells = harness.point_cells(cfg, 0, [0])
    elapsed = time.perf_counter() - t0
    methods = {}
    for _, method, _, _, iterations, search, report in cells:
        stats = methods[method] = {"avg_rate_bps": float(report.ue_rates.mean()),
                                   "welfare": float(report.welfare),
                                   "unserved": list(report.unserved),
                                   "iterations": iterations}
        written = {"rate_bps": report.ue_rates, "utility": report.ue_utilities, **stats}
        if search is not None:
            stats["stabilized"] = cfg.stabilize
            written["trace welfare"] = (search.start_welfare, *search.accepted_welfares)
        harness.check_finite(written, f"method {method}")

    out = args.out
    os.makedirs(out, exist_ok=True)
    problem = cells[0][2]
    meta = {"config_sha": sha, "seed": str(cfg.seed)}
    radio.positions_to_csv(problem.scenario, os.path.join(out, "positions.csv"))
    for _, method, _, assign, _, search, report in cells:
        matching.matching_to_csv(problem.matching(assign), report,
                                 os.path.join(out, f"matching_{method}.csv"), meta=meta)
        if search is not None:
            matching.trace_to_csv(search.trace, os.path.join(out, f"trace_{method}.csv"))
    metrics = {"config_sha": sha, "config": cfgmod.config_as_dict(cfg),
               "relay_ues": [int(v) for v in problem.relay_ues], "methods": methods,
               "elapsed_s": elapsed}
    import json
    with open(os.path.join(out, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _say(args, f"run complete in {elapsed:.2f}s; outputs in {out}")
    for method, stats in methods.items():
        _say(args, f"  {method + ':':<13} avg_rate={stats['avg_rate_bps']:.1f} bps "
                   f"welfare={stats['welfare']:.1f} iters={stats['iterations']}")
    return 0


def cmd_sweep(args) -> int:
    spec = harness.ExperimentSpec.from_config(_load_config(args))
    # Like run, the sweep computes and checks every number before
    # emit_results makes --out, so an error leaves no --out.
    t0 = time.perf_counter()
    paths = harness.emit_results(harness.run_experiment(spec), args.out)
    _say(args, f"sweep complete in {time.perf_counter() - t0:.2f}s")
    for p in paths.values():
        _say(args, f"  wrote {p}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    rows = golden_checks(alpha=cfg.alpha, beta=cfg.beta)
    failed = 0
    for row in rows:
        status = "PASS" if row.ok else "FAIL"
        if not row.ok:
            failed += 1
        _say(args, f"{status}  {row.name:<22} expected={row.expected} actual={row.actual}")
    _say(args, f"{len(rows) - failed}/{len(rows)} reference checks passed")
    return 0 if failed == 0 else 3


def cmd_audit(args) -> int:
    cfg = _load_config(args)
    sha = cfgmod.config_sha(cfg)
    meta, rows = matching.load_matching_csv(args.matching)
    saved_sha = meta.get("config_sha", "")
    if saved_sha and saved_sha != sha:
        raise ConfigError(
            f"matching file was produced under config {saved_sha}, current "
            f"config hashes to {sha}; re-run before auditing")
    _, problem = harness.build_replication(cfg, 0, 0)
    assign = matching.assignment_from_rows(problem, rows)
    violations = matching.audit_stability(problem, assign)
    if not violations:
        _say(args, "stable: no approved swap found")
        return 0
    for v in violations:
        other = "<open slot>" if v.other_ue is None else f"ue{v.other_ue}"
        kind, node_id = matching.serving_node(v.target_sn, problem.n_scbs, problem.relay_ues)
        node = f"scbs{node_id}" if kind == matching.SN_SCBS else f"relay ue{node_id}"
        _say(args, f"unstable: ue{v.ue} <-> {other} via {node} "
                   f"(welfare delta {v.welfare_delta:+.6g})")
    _say(args, f"{len(violations)} approved swap(s) remain")
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialcell",
        description="Socially weighted user association simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=False):
        p.add_argument("--config", default="", help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base seed from the config")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if needs_out:
            p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="simulate one scenario")
    common(p_run, needs_out=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a replicated parameter sweep")
    common(p_sweep, needs_out=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check the built-in reference network")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_audit = sub.add_parser("audit", help="audit a saved matching for stability")
    common(p_audit)
    p_audit.add_argument("--matching", required=True,
                         help="matching CSV produced by the run command")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SocialCellError, OSError, RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
