"""Command line interface: exit codes, outputs, determinism."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialcell
from socialcell.cli import main
from socialcell.config import _RANGES, ScenarioConfig, apply_overrides, dump_config
from socialcell.errors import ConfigError

RUN_CFG = """\
# small, fast scenario for CLI tests
n_scbs = 2
n_ues = 8
macro_radius_m = 80.0
seed = 18
max_iterations = 150
stall_window = 0
stabilize = true
"""

SWEEP_CFG = """\
n_scbs = 2
n_ues = 6
macro_radius_m = 80.0
seed = 9
max_iterations = 120
stall_window = 0
sweep_variable = n_ues
sweep_values = 4,6
replications = 2
"""


@pytest.fixture()
def run_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CFG)
    return str(path)


@pytest.fixture()
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CFG)
    return str(path)


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def test_validate_passes_on_defaults(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
    assert "reference checks passed" in out


def test_validate_quiet_prints_nothing(capsys):
    assert main(["validate", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_validate_fails_with_doctored_weights(capsys):
    rc = main(["validate", "--override", "alpha=0.9", "--override", "beta=0.1"])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def test_run_writes_expected_outputs(run_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", run_cfg, "--out", out, "--quiet"]) == 0
    for name in ("positions.csv", "matching_social-aware.csv",
                 "matching_max-rssi.csv", "trace_social-aware.csv",
                 "metrics.json"):
        assert os.path.exists(os.path.join(out, name)), name
    metrics = json.loads(Path(out, "metrics.json").read_text())
    assert len(metrics["config_sha"]) == 12
    assert metrics["config"]["n_ues"] == 8
    assert metrics["config"]["seed"] == 18
    soc = metrics["methods"]["social-aware"]
    base = metrics["methods"]["max-rssi"]
    assert soc["stabilized"] is True
    assert soc["welfare"] >= base["welfare"]
    assert base["iterations"] == 0
    assert soc["avg_rate_bps"] >= 0.0
    assert isinstance(metrics["relay_ues"], list)


def test_run_outputs_are_deterministic(run_cfg, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", "--config", run_cfg, "--out", out, "--quiet"]) == 0
        outs.append(out)
    for name in ("positions.csv", "matching_social-aware.csv",
                 "matching_max-rssi.csv", "trace_social-aware.csv"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, name
    m1 = json.loads(Path(outs[0], "metrics.json").read_text())
    m2 = json.loads(Path(outs[1], "metrics.json").read_text())
    m1.pop("elapsed_s"), m2.pop("elapsed_s")
    assert m1 == m2


def test_run_metrics_equal_a_one_replication_sweep(run_cfg, tmp_path):
    # `run` is replication 0 of a one-point experiment: its figures must be
    # the sweep's rows exactly, through both files' float formatting
    assert main(["run", "--config", run_cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())["methods"]
    assert main(["sweep", "--config", run_cfg, "--override", "sweep_variable=n_ues",
                 "--override", "sweep_values=8", "--override", "replications=1",
                 "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
    with open(tmp_path / "sweep" / "replications.csv", newline="") as fh:
        rows = {row["method"]: row for row in csv.DictReader(fh)}
    assert set(rows) == set(metrics)
    for method, row in rows.items():
        got = metrics[method]
        assert got["avg_rate_bps"] == float(row["avg_rate_bps"]), method
        assert got["welfare"] == float(row["welfare"]), method
        assert got["iterations"] == int(row["iterations"]), method
        assert len(got["unserved"]) == int(row["unserved"]), method


def test_run_seed_flag_overrides_config(run_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", "--config", run_cfg, "--seed", "11",
                 "--out", out, "--quiet"]) == 0
    metrics = json.loads(Path(out, "metrics.json").read_text())
    assert metrics["config"]["seed"] == 11


def test_a_max_rssi_run_writes_that_method_alone(run_cfg, tmp_path, capsys):
    # `run` honours `methods`: no search, no social files, and the baseline's
    # figures are those of the two-method run
    both, alone = tmp_path / "both", tmp_path / "alone"
    assert main(["run", "--config", run_cfg, "--out", str(both), "--quiet"]) == 0
    assert main(["run", "--config", run_cfg, "--override", "methods=max-rssi",
                 "--out", str(alone)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("  max-rssi:")
    assert sorted(os.listdir(alone)) == ["matching_max-rssi.csv", "metrics.json",
                                         "positions.csv"]
    assert (alone / "positions.csv").read_bytes() == (both / "positions.csv").read_bytes()

    def rows(out):      # the config_sha line differs, since `methods` does
        text = (out / "matching_max-rssi.csv").read_text().splitlines()
        return [line for line in text if not line.startswith("# config_sha=")]

    assert rows(alone) == rows(both)
    got, want = (json.loads((out / "metrics.json").read_text()) for out in (alone, both))
    assert got["methods"] == {"max-rssi": want["methods"]["max-rssi"]}
    assert got["relay_ues"] == want["relay_ues"]


@pytest.mark.parametrize("field", ["welfare", "trace welfare"])
def test_a_non_finite_run_result_exits_2(field, run_cfg, tmp_path, monkeypatch, capsys):
    # a NaN that gets past the config's bounds is refused before --out is made
    from socialcell import harness
    if field == "welfare":
        evaluate = harness.reports

        def spoiled(pairs):
            reports = list(evaluate(pairs))
            return [dataclasses.replace(reports[0], welfare=float("nan")), *reports[1:]]

        monkeypatch.setattr(harness, "reports", spoiled)
    else:
        anneal = harness.anneal_problems

        def spoiled(problems):
            for i, result in anneal(problems):
                yield i, dataclasses.replace(result, start_welfare=float("inf"))

        monkeypatch.setattr(harness, "anneal_problems", spoiled)
    out = tmp_path / "o"
    assert main(["run", "--config", run_cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and f"non-finite {field} = " in err
    assert not out.exists()


#: Seed 2, N8/M40 over a 100 m disk: the social-aware matching serves two
#: UEs by relay, and the max-RSSI audit then names a relay target.
RELAY_RUN = ["--seed", "2", "--override", "n_scbs=8", "--override", "macro_radius_m=100",
             "--override", "n_ues=40"]

#: sha256 of what `run` writes for RELAY_RUN, besides the timed metrics.json.
RELAY_RUN_PINS = {
    "positions.csv": "e83d8f25ced0adc2c916cdaf743dceb025f98cc960d7972a51ed962b4ed97e8d",
    "matching_max-rssi.csv": "fdb4aeb0739a3941d7a9c04fda8ce8115217c38eb7cf9db51bac0ef4da118554",
    "matching_social-aware.csv":
        "0d55c1b1554e4aed66fc5b1abf6301b81b83f46d006b6c211264f05d22213bfd",
    "trace_social-aware.csv": "3e76d5087562732675857fea54058bcc3c53fe67b7d1afb4a878e628313cf2a6",
}


def test_run_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["run", *RELAY_RUN, "--out", str(out), "--quiet"]) == 0
    assert ",relay," in (out / "matching_social-aware.csv").read_text()
    for name, want in RELAY_RUN_PINS.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, (
            f"{name} changed (sha256 {got}).  Run outputs are pinned: a change "
            "that alters them must name the change in CHANGES.md and update the pin.")


# --------------------------------------------------------------------------
# the edge-file social model
# --------------------------------------------------------------------------

EDGE_FILE = """\
# hand-written social ties over 2 SCBSs and 60 UEs

scbs0 ue0
scbs1   ue1      # an SCBS tie
ue0 ue1
ue1 ue2
ue2 ue59
"""


def _edge_run(run_cfg, tmp_path, text, *overrides):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    out = tmp_path / "out"
    flags = ["--override", "social_model=edges", "--override", "n_ues=60",
             "--override", f"social_edge_file={path}"]
    for item in overrides:
        flags += ["--override", item]
    return main(["run", "--config", run_cfg, *flags, "--out", str(out), "--quiet"]), out


def test_run_with_an_edge_file_writes_outputs(run_cfg, tmp_path):
    rc, out = _edge_run(run_cfg, tmp_path, EDGE_FILE)
    assert rc == 0
    for name in ("positions.csv", "matching_social-aware.csv",
                 "matching_max-rssi.csv", "trace_social-aware.csv",
                 "metrics.json"):
        assert (out / name).exists(), name
    metrics = json.loads(Path(out / "metrics.json").read_text())
    assert metrics["config"]["social_model"] == "edges"


def test_edge_file_naming_an_unknown_ue_is_a_usage_error(run_cfg, tmp_path, capsys):
    rc, out = _edge_run(run_cfg, tmp_path, EDGE_FILE + "ue3 ue60\n")
    assert rc == 1
    err = capsys.readouterr().err
    # EDGE_FILE has seven lines, so the bad edge is on line 8
    assert err.startswith(f"error: {tmp_path / 'edges.txt'}:8: ") and "ue60" in err
    assert not out.exists()


def test_edges_model_without_an_edge_file_is_a_usage_error(run_cfg, tmp_path, capsys):
    rc, out = _edge_run(run_cfg, tmp_path, EDGE_FILE, "social_edge_file=")
    assert rc == 1
    assert "social_edge_file" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------

def test_audit_accepts_the_stabilized_matching(run_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--config", run_cfg, "--out", out, "--quiet"])
    rc = main(["audit", "--config", run_cfg,
               "--matching", os.path.join(out, "matching_social-aware.csv")])
    assert rc == 0
    assert "stable" in capsys.readouterr().out


def test_audit_flags_the_unstable_baseline(run_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--config", run_cfg, "--out", out, "--quiet"])
    rc = main(["audit", "--config", run_cfg,
               "--matching", os.path.join(out, "matching_max-rssi.csv")])
    assert rc == 3
    assert "unstable" in capsys.readouterr().out


def test_audit_names_a_relay_target_by_its_ue_id(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", *RELAY_RUN, "--out", str(out), "--quiet"])
    capsys.readouterr()
    rc = main(["audit", *RELAY_RUN, "--matching", str(out / "matching_social-aware.csv")])
    assert rc == 3
    lines = capsys.readouterr().out.splitlines()
    # node 9 is relay ue18, the 2nd relay after the 8 SCBSs
    assert lines[0].startswith("unstable: ue19 <-> <open slot> via relay ue18 ")
    assert all(" via relay ue" in ln or " via scbs" in ln for ln in lines[:-1])
    assert not any(" via sn" in ln for ln in lines)


def test_audit_rejects_a_stale_config_hash(run_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--config", run_cfg, "--out", out, "--quiet"])
    rc = main(["audit", "--config", run_cfg, "--override", "n_ues=12",
               "--matching", os.path.join(out, "matching_social-aware.csv")])
    assert rc == 1
    assert "re-run before auditing" in capsys.readouterr().err


def test_audit_rejects_a_malformed_matching_file(run_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--config", run_cfg, "--out", out, "--quiet"])
    lines = Path(out, "matching_social-aware.csv").read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")] + ["ue_id,sn_id,sn_kind,rate_bps,utility"]
    rows = lines[len(head):]
    everyone_on_scbs0 = [f"{r.split(',')[0]},0,scbs,0.0,0.0" for r in rows]
    cases = {
        "unparsable": ["0,not-a-number,scbs,0,0"],
        "out of range": everyone_on_scbs0,
        "duplicated ue": rows + [rows[1]],
        "missing ue": rows[:-1],
    }
    for name, body in cases.items():
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(head + body) + "\n")
        rc = main(["audit", "--config", run_cfg, "--matching", str(bad)])
        assert rc == 1, name
        assert "error:" in capsys.readouterr().err, name


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_writes_aggregates_and_rows(sweep_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", sweep_cfg, "--out", out, "--quiet"]) == 0
    for name in ("sweep_M.csv", "replications.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name)), name
    lines = Path(out, "replications.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2        # 2 points x 2 reps x 2 methods


def test_sweep_is_byte_deterministic(sweep_cfg, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["sweep", "--config", sweep_cfg, "--out", out, "--quiet"]) == 0
        outs.append(out)
    for name in ("sweep_M.csv", "replications.csv"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, name


def test_sweep_requires_a_sweep_variable(run_cfg, tmp_path, capsys):
    rc = main(["sweep", "--config", run_cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 1
    assert "sweep_variable" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_non_finite_sweep_result_exits_2(sweep_cfg, tmp_path, monkeypatch, capsys):
    # a NaN that gets past the config's bounds is refused, not written
    from socialcell import harness
    run = harness.run_experiment

    def nan_rate(spec):
        result = run(spec)
        rows = (dataclasses.replace(result.rows[0], avg_rate_bps=float("nan")),
                *result.rows[1:])
        return dataclasses.replace(result, rows=rows)

    monkeypatch.setattr(harness, "run_experiment", nan_rate)
    out = tmp_path / "o"
    assert main(["sweep", "--config", sweep_cfg, "--out", str(out), "--quiet"]) == 2
    assert "non-finite avg_rate_bps" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# error handling
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command, flags, message", [
    ("run", ["--seed", "-1"], "seed must be non-negative"),
    ("sweep", ["--override", "seed=-1"], "seed must be non-negative"),
    ("sweep", ["--override", "sweep_values=4,6,4"], "repeats a value"),
    ("run", ["--override", "macro_radius_m=nan"], "not a finite number"),
    ("run", ["--override", "noise_psd_dbm_hz=nan"], "not a finite number"),
    ("run", ["--override", "beta_end=nan"], "not a finite number"),
    ("sweep", ["--override", "scbs_power_dbm=-inf"], "not a finite number"),
    ("sweep", ["--override", "d2d_quota=0"], "d2d_quota must be >= 1"),
    ("sweep", ["--override", "social_model=foo"], "unknown social_model"),
    ("run", ["--override", "methods=round-robin"], "methods must be one or more of"),
    ("run", ["--override", "methods="], "methods must be one or more of"),
    ("sweep", ["--override", "methods=max-rssi,round-robin"], "methods must be one or more of"),
    ("run", ["--override", "methods=social-aware,max-rssi,social-aware"],
     "methods repeats a name"),
    ("sweep", ["--override", "methods=max-rssi,max-rssi"], "methods repeats a name"),
], ids=["run-negative-seed", "sweep-negative-seed", "sweep-repeated-value",
        "run-nan-radius", "run-nan-noise", "run-nan-beta-end",
        "sweep-inf-power", "sweep-zero-d2d-quota", "sweep-unknown-social-model",
        "run-unknown-method", "run-no-method", "sweep-unknown-method",
        "run-repeated-method", "sweep-repeated-method"])
def test_bad_config_values_are_usage_errors(command, flags, message, run_cfg,
                                            sweep_cfg, tmp_path, capsys):
    cfg = run_cfg if command == "run" else sweep_cfg
    out = tmp_path / "o"
    assert main([command, "--config", cfg, *flags, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


#: Social, sweep and method keys, each list refused as one config.
BAD_KEYS = [["alpha=0.7"], ["alpha=-0.1", "beta=1.1"], ["ws_rewire=2"], ["er_edge_prob=-1"],
            ["ws_neighbors=-1"], ["similarity_normalization=foo"], ["social_model=foo"],
            ["social_model=edges"], ["sweep_variable=n_noise"], ["sweep_values=0"],
            ["replications=0"], ["workers=0"], ["methods=foo"]]


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("overrides", BAD_KEYS, ids=",".join)
def test_bad_keys_are_refused_when_the_config_is_read(command, overrides, run_cfg, sweep_cfg,
                                                      tmp_path, monkeypatch, capsys):
    # every command reads the config the same way, and no cell is built
    from socialcell import harness
    built, build = [], harness.build_replications
    monkeypatch.setattr(harness, "build_replications",
                        lambda *args: built.append(args) or build(*args))
    cfg = sweep_cfg if command == "sweep" else run_cfg
    out = tmp_path / "o"
    flags = [arg for item in overrides for arg in ("--override", item)]
    outs = [] if command == "validate" else ["--out", str(out)]
    assert main([command, "--config", cfg, *flags, *outs, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and overrides[0].partition("=")[0] in err
    assert not out.exists() and not built


@pytest.mark.parametrize("line, override", [
    ("social_model = edges", "social_edge_file={edges}"),
    ("alpha = 0.9", "beta=0.1"),
], ids=["edges-then-file", "alpha-then-beta"])
def test_a_cross_key_rule_sees_the_file_and_its_overrides_together(line, override, run_cfg,
                                                                    tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("scbs0 ue0\nue0 ue1\n")
    path, out = tmp_path / "cross.cfg", tmp_path / "o"
    path.write_text(Path(run_cfg).read_text() + line + "\n")
    assert main(["run", "--config", str(path), "--override", override.format(edges=edges),
                 "--out", str(out), "--quiet"]) == 0
    config = json.loads((out / "metrics.json").read_text())["config"]
    for item in (line, override.format(edges=edges)):
        key, _, value = item.partition("=")
        assert str(config[key.strip()]) == value.strip()


#: One value each config key is refused at on its own; a later key must
#: join this table or `UNRULED`, the keys refused at no value on their own.
REFUSED = {"n_scbs": "0", "n_ues": "0", "seed": "-1", "macro_radius_m": "0",
           "system_bandwidth_hz": "0", "subcarriers": "0", "noise_psd_dbm_hz": "1",
           "scbs_power_dbm": "101", "scbs_radius_m": "0", "ue_power_dbm": "101",
           "d2d_radius_m": "0", "d2d_pathloss_alpha": "0", "scbs_pathloss_intercept_db": "-1",
           "scbs_pathloss_slope_db": "0", "min_distance_m": "0", "alpha": "0.7",
           "beta": "0.7", "social_model": "foo", "ws_neighbors": "-1", "ws_rewire": "2",
           "er_edge_prob": "-1", "similarity_normalization": "foo", "max_iterations": "0",
           "beta_start": "-1", "beta_end": "-1", "stall_window": "-1", "scbs_quota": "-1",
           "d2d_quota": "0", "sweep_variable": "n_noise", "sweep_values": "0",
           "replications": "0", "methods": "foo", "workers": "0"}
UNRULED = {"d2d_interference", "stabilize", "social_edge_file"}


def test_every_config_key_has_a_rule_or_is_listed_without_one():
    keys = {field.name for field in dataclasses.fields(ScenarioConfig)}
    assert keys == REFUSED.keys() | UNRULED and not REFUSED.keys() & UNRULED
    for key, value in REFUSED.items():
        with pytest.raises(ConfigError, match=key):
            apply_overrides(ScenarioConfig(), [f"{key}={value}"])


RADIO_BOUNDS = ["n_scbs=0", "n_ues=0", "subcarriers=0", "macro_radius_m=0",
                "system_bandwidth_hz=0", "scbs_radius_m=0", "d2d_radius_m=0",
                "d2d_pathloss_alpha=0", "min_distance_m=0", "scbs_pathloss_slope_db=-36.7",
                "ue_power_dbm=1e308", "scbs_power_dbm=1e308", "scbs_pathloss_intercept_db=-1e308",
                "noise_psd_dbm_hz=-1e308", "noise_psd_dbm_hz=1e308",
                "scbs_pathloss_slope_db=1e308", "d2d_pathloss_alpha=1e308",
                "min_distance_m=1e-300", "system_bandwidth_hz=1e-300",
                "system_bandwidth_hz=1e308", "macro_radius_m=1e308"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("override", RADIO_BOUNDS)
def test_out_of_bounds_radio_values_are_usage_errors(command, override, run_cfg,
                                                     sweep_cfg, tmp_path, capsys):
    # rejected as the config is read, before --out is made or a node is drawn
    cfg = run_cfg if command == "run" else sweep_cfg
    out = tmp_path / "o"
    rc = main([command, "--config", cfg, "--override", override, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and override.partition("=")[0] in err
    assert not out.exists()


#: The float keys of the drop, the radio and the social graph, each drawn in
#: its range, at zero, the smallest and largest magnitudes and its bounds, or
#: anywhere.
RADIO_FLOATS = sorted(_RANGES)
SHRUNKEN = ScenarioConfig(n_scbs=2, n_ues=6, macro_radius_m=80.0, max_iterations=20)


def radio_value(key):
    _, low, high = _RANGES[key]
    return (st.sampled_from([0.0, 1e-300, -1e-300, 1e308, -1e308, low, min(high, 1e308)])
            | st.floats(low, min(high, 1e308))
            | st.floats(allow_nan=False, allow_infinity=False))


def finite_outputs(out: Path) -> bool:
    """Whether every number `run` wrote under `out` is finite: metrics.json
    holds no NaN or Infinity, and every CSV cell that reads as a float is
    finite."""
    def refuse(constant):
        raise ValueError(constant)

    json.loads((out / "metrics.json").read_text(), parse_constant=refuse)
    for path in out.glob("*.csv"):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for row in csv.reader(lines[1:]):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(RADIO_FLOATS), min_size=1, max_size=3, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries({key: radio_value(key) for key in keys})))
@example({"scbs_pathloss_slope_db": 1e308})
@example({"system_bandwidth_hz": 1e-300})
@example({"alpha": 0.9, "beta": 0.1})
def test_radio_floats_are_refused_or_give_finite_outputs(keys):
    """One to three drop, radio or social floats at once either fail to parse
    (exit 1, no --out) or give a shrunken run that writes only finite
    numbers."""
    flags = [f"{key}={value!r}" for key, value in keys.items()]
    try:
        apply_overrides(SHRUNKEN, flags)
        refused = False
    except ConfigError:
        refused = True
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "run.cfg"), Path(tmp, "out")
        path.write_text(dump_config(SHRUNKEN))
        overrides = [arg for flag in flags for arg in ("--override", flag)]
        rc = main(["run", "--config", str(path), *overrides, "--out", str(out), "--quiet"])
        if refused:
            assert rc == 1 and not out.exists()
        else:
            assert rc == 0 and finite_outputs(out)


@pytest.mark.parametrize("override, message", [
    ("max_iterations=0", "max_iterations must be >= 1"),
    ("beta_end=-1", "beta_start and beta_end must be >= 0"),
    ("stall_window=-1", "stall_window must be >= 0"),
    ("scbs_quota=-1", "scbs_quota must be >= 0"),
    ("d2d_quota=0", "d2d_quota must be >= 1"),
])
def test_validate_rejects_out_of_bounds_engine_values(override, message, capsys):
    # the bounds hold when the config is read, not when a problem is built
    assert main(["validate", "--override", override, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_validate_reads_the_seed_flag_too(capsys):
    assert main(["validate", "--seed", "-1", "--quiet"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(capsys):
    assert main(["run", "--config", "/no/such/file.cfg", "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_undecodable_config_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe\x00")
    assert main(["validate", "--config", str(bad), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


@pytest.mark.parametrize("case", ["undecodable", "directory", "missing column"])
def test_unreadable_matching_file_is_a_usage_error(case, run_cfg, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    if case == "undecodable":
        bad.write_bytes(b"\xff\xfe\x00")
    elif case == "directory":
        bad.mkdir()
    else:
        bad.write_text("ue_id,sn_id,sn_kind\n0,1\n")
    assert main(["audit", "--config", run_cfg, "--matching", str(bad), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    if case == "missing column":
        assert "malformed matching row" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unreadable_social_edge_file_is_a_usage_error(command, run_cfg, sweep_cfg,
                                                      tmp_path, capsys):
    # read as the replications build, before either command makes --out
    cfg = run_cfg if command == "run" else sweep_cfg
    missing, out = tmp_path / "no-such-edges.txt", tmp_path / "o"
    rc = main([command, "--config", cfg, "--override", "social_model=edges",
               "--override", f"social_edge_file={missing}", "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and str(missing) in err
    assert not out.exists()


def test_unknown_override_key_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", "--override", "warp_factor=9"]) == 1
    assert "error:" in capsys.readouterr().err
    # keys of search, radio and constraint variants the simulator no longer has
    for key, value in (("cooling", "literal"), ("schedule", "geometric"),
                       ("move_mix", "0.5"), ("d2d_weight_epsilon", "0.05"),
                       ("fading_gain", "1.0"), ("min_rate_bps", "0")):
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {value}\n")
        for flags in (["--config", str(path)], ["--override", f"{key}={value}"]):
            assert main(["validate", *flags, "--quiet"]) == 1
            assert f"unknown configuration key {key!r}" in capsys.readouterr().err


def test_bad_override_value_is_a_usage_error(capsys):
    assert main(["run", "--override", "n_ues=abc", "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs_in_a_subprocess():
    # run from the directory holding the package under test, so the child
    # imports it even when it is not installed
    proc = subprocess.run([sys.executable, "-m", "socialcell.cli",
                           "validate", "--quiet"],
                          capture_output=True, text=True,
                          cwd=os.path.dirname(os.path.dirname(socialcell.__file__)))
    assert proc.returncode == 0


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "socialcell", "validate", "--quiet"],
                          capture_output=True, text=True,
                          cwd=os.path.dirname(os.path.dirname(socialcell.__file__)))
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_output_modules():
    """hashlib, json and csv are imported by the functions that write or
    read files, and `socialcell.seeds` by those that seed, so `import
    socialcell` loads none of them."""
    code = ("import sys, socialcell\n"
            "print(sorted({'hashlib', 'json', 'csv', 'socialcell.seeds'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=os.path.dirname(os.path.dirname(socialcell.__file__)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
