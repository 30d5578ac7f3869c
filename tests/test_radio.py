"""Radio layer: pathloss numbers, link budgets, and scenario plumbing."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from socialcell import matching, radio
from socialcell import socialgraph as sg
from socialcell.config import ScenarioConfig, scenario_from_config, social_graph_from_config
from socialcell.errors import ConfigError, InputError, LinkRangeError
from socialcell.radio import (RadioScenario, dbm_to_mw, link_rate, pathloss_db,
                              positions_to_csv, received_power_mw, scbs_ue_distances,
                              subcarrier_offsets, ue_distances)

PARAMS = ScenarioConfig()


def scenario_with(scbs_xy, ue_xy, **radio_keys):
    return RadioScenario(scbs_xy=np.asarray(scbs_xy, dtype=float),
                         ue_xy=np.asarray(ue_xy, dtype=float),
                         config=ScenarioConfig(**radio_keys))


def drop(n_scbs, n_ues, rng_seed=0, **radio_keys):
    """The seeded uniform drop of n_scbs SCBSs and n_ues UEs."""
    return scenario_from_config(ScenarioConfig(n_scbs=n_scbs, n_ues=n_ues, **radio_keys),
                                seed=rng_seed)


# --------------------------------------------------------------------------
# pathloss
# --------------------------------------------------------------------------

def test_d2d_pathloss_golden_values():
    assert pathloss_db("ue", 10.0, PARAMS) == pytest.approx(30.0, abs=1e-12)
    assert pathloss_db("ue", 1.0, PARAMS) == pytest.approx(0.0, abs=1e-12)
    assert pathloss_db("ue", 100.0, PARAMS) == pytest.approx(60.0, abs=1e-12)


def test_scbs_pathloss_golden_value():
    got = pathloss_db("scbs", 50.0, PARAMS)
    assert got == pytest.approx(140.7 + 36.7 * math.log10(0.05), abs=1e-9)
    assert got == pytest.approx(92.96, abs=1e-2)


def test_pathloss_distance_floor():
    # distances below the floor evaluate as the floor distance
    assert pathloss_db("ue", 0.001, PARAMS) == pathloss_db("ue", 1.0, PARAMS)
    assert pathloss_db("scbs", 0.0, PARAMS) == pathloss_db("scbs", 1.0, PARAMS)


def test_pathloss_accepts_arrays_and_rejects_unknown_kinds():
    d = np.array([1.0, 10.0, 100.0])
    np.testing.assert_allclose(pathloss_db("ue", d, PARAMS),
                               [0.0, 30.0, 60.0], atol=1e-12)
    with pytest.raises(InputError):
        pathloss_db("macro", 10.0, PARAMS)


def test_pathloss_params_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(d2d_pathloss_alpha=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(min_distance_m=0.0)


# --------------------------------------------------------------------------
# unit conversions
# --------------------------------------------------------------------------

def test_conversion_anchor_points():
    assert dbm_to_mw(0.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert dbm_to_mw(3.0) == pytest.approx(10 ** 0.3, rel=1e-12)


# --------------------------------------------------------------------------
# link budget
# --------------------------------------------------------------------------

def _noise_for_target_sinr(target_sinr, distance, share, tx_kind="scbs"):
    """Noise density (dBm/Hz) that makes one interference-free link hit
    `target_sinr`."""
    base = scenario_with([[0.0, 0.0]], [[distance, 0.0]])
    received = (float(dbm_to_mw(base.tx_power_dbm(tx_kind)))
                * dbm_to_mw(-pathloss_db(tx_kind, distance, base.config)))
    return 10.0 * math.log10(received / (target_sinr * share * base.config.system_bandwidth_hz))


def test_engineered_rate_quarter_share():
    # share*BW = 5 MHz / 16 = 312.5 kHz and SINR = 15 gives exactly
    # 312.5 kHz * log2(16) = 1.25 Mb/s
    share = 1.0 / 16.0
    noise = _noise_for_target_sinr(15.0, 40.0, share)
    scen = scenario_with([[0.0, 0.0]], [[40.0, 0.0]], noise_psd_dbm_hz=noise)
    budget = link_rate(("scbs", 0), 0, 0, scen, share=share)
    assert budget.rate_bps == pytest.approx(1.25e6, rel=1e-9)
    assert budget.sinr == pytest.approx(15.0, rel=1e-9)
    assert budget.interference_mw == 0.0


def test_no_interferers_means_snr_equals_sinr():
    scen = scenario_with([[0.0, 0.0]], [[25.0, 0.0]])
    budget = link_rate(("scbs", 0), 0, 3, scen)
    assert budget.sinr == pytest.approx(budget.received_mw / budget.noise_mw, rel=1e-12)
    assert budget.subcarrier == 3


def test_received_power_matches_hand_computation():
    scen = scenario_with([[0.0, 0.0]], [[30.0, 0.0]])
    want = dbm_to_mw(23.0) * 10.0 ** (-(140.7 + 36.7 * math.log10(0.03)) / 10.0)
    assert received_power_mw(("scbs", 0), 0, scen) == pytest.approx(want, rel=1e-12)
    budget = link_rate(("scbs", 0), 0, 0, scen)
    assert budget.received_mw == pytest.approx(want, rel=1e-12)


def test_rate_decreases_with_interferer_power():
    # interferer is a UE, so its power scales independently of the serving link
    layout = dict(scbs_xy=np.array([[0.0, 0.0]]),
                  ue_xy=np.array([[30.0, 0.0], [30.0, 40.0]]))
    rates = []
    for ue_dbm in (5.0, 15.0, 25.0):
        scen = RadioScenario(config=ScenarioConfig(ue_power_dbm=ue_dbm), **layout)
        rates.append(link_rate(("scbs", 0), 0, 0, scen,
                               cochannel=[("ue", 1)]).rate_bps)
    assert rates[0] > rates[1] > rates[2]


def test_rate_decreases_with_noise():
    quiet = scenario_with([[0.0, 0.0]], [[30.0, 0.0]], noise_psd_dbm_hz=-174.0)
    loud = scenario_with([[0.0, 0.0]], [[30.0, 0.0]], noise_psd_dbm_hz=-140.0)
    assert (link_rate(("scbs", 0), 0, 0, quiet).rate_bps
            > link_rate(("scbs", 0), 0, 0, loud).rate_bps)


def test_rate_linear_in_share_at_fixed_sinr():
    # doubling the share doubles the noise, so halving the noise density as
    # well holds SINR fixed and the rate must double exactly
    s1 = scenario_with([[0.0, 0.0]], [[35.0, 0.0]],
                       noise_psd_dbm_hz=_noise_for_target_sinr(7.0, 35.0, 0.25))
    s2 = scenario_with([[0.0, 0.0]], [[35.0, 0.0]],
                       noise_psd_dbm_hz=_noise_for_target_sinr(7.0, 35.0, 0.5))
    r1 = link_rate(("scbs", 0), 0, 0, s1, share=0.25)
    r2 = link_rate(("scbs", 0), 0, 0, s2, share=0.5)
    assert r1.sinr == pytest.approx(r2.sinr, rel=1e-12)
    assert r2.rate_bps == pytest.approx(2.0 * r1.rate_bps, rel=1e-12)


def test_cochannel_skips_self_receiver_and_honours_d2d_flag():
    layout = dict(scbs_xy=np.array([[0.0, 0.0]]),
                  ue_xy=np.array([[10.0, 0.0], [10.0, 5.0]]))
    scen_on = RadioScenario(config=ScenarioConfig(d2d_interference=True), **layout)
    scen_off = RadioScenario(config=ScenarioConfig(d2d_interference=False), **layout)
    cochannel = [("scbs", 0), ("ue", 0), ("ue", 1)]
    with_flag = link_rate(("scbs", 0), 0, 0, scen_on, cochannel=cochannel)
    only_other_ue = received_power_mw(("ue", 1), 0, scen_on)
    assert with_flag.interference_mw == pytest.approx(only_other_ue, rel=1e-12)
    without = link_rate(("scbs", 0), 0, 0, scen_off, cochannel=cochannel)
    assert without.interference_mw == 0.0


def test_out_of_range_links_rejected():
    scen = scenario_with([[0.0, 0.0]], [[60.0, 0.0], [0.0, 25.0]])
    with pytest.raises(LinkRangeError):
        link_rate(("scbs", 0), 0, 0, scen)        # 60 m > 50 m SCBS radius
    with pytest.raises(LinkRangeError):
        link_rate(("ue", 0), 1, 0, scen)          # ~64 m > 20 m D2D radius
    with pytest.raises(InputError):
        link_rate(("scbs", 0), 1, 0, scen, share=0.0)
    with pytest.raises(InputError):
        link_rate(("scbs", 0), 1, 0, scen, share=1.5)


# --------------------------------------------------------------------------
# topology generation
# --------------------------------------------------------------------------

def test_generate_topology_is_deterministic():
    a = drop(4, 30, rng_seed=99)
    b = drop(4, 30, rng_seed=99)
    c = drop(4, 30, rng_seed=100)
    np.testing.assert_array_equal(a.scbs_xy, b.scbs_xy)
    np.testing.assert_array_equal(a.ue_xy, b.ue_xy)
    assert not np.array_equal(a.ue_xy, c.ue_xy)


def test_generate_topology_stays_inside_disk():
    scen = drop(8, 200, macro_radius_m=500.0, rng_seed=5)
    assert np.all(np.linalg.norm(scen.scbs_xy, axis=1) <= 500.0)
    assert np.all(np.linalg.norm(scen.ue_xy, axis=1) <= 500.0)


def test_generate_topology_is_area_uniform():
    # for uniform sampling on a disk the mean radius is 2R/3
    scen = drop(1, 20000, macro_radius_m=300.0, rng_seed=12)
    mean_r = np.linalg.norm(scen.ue_xy, axis=1).mean()
    assert mean_r == pytest.approx(200.0, rel=0.02)


def test_generate_topology_validation():
    with pytest.raises(ConfigError):
        drop(0, 10)
    with pytest.raises(ConfigError):
        drop(1, 10, macro_radius_m=-5.0)
    with pytest.raises(ConfigError):
        drop(1, 10, rng_seed=-1)
    with pytest.raises(ConfigError):
        drop(1, 10, d2d_radius_m=0.0)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        scenario_with([[600.0, 0.0]], [[0.0, 0.0]])    # outside the disk
    with pytest.raises(ConfigError):
        scenario_with([[0.0, 0.0]], [[1.0, 1.0]], system_bandwidth_hz=0.0)
    with pytest.raises(ConfigError):
        scenario_with([[0.0, 0.0]], [[1.0, 1.0]], subcarriers=0)
    with pytest.raises(InputError):
        scenario_with([[0.0, 0.0]], [[1.0, 1.0]]).position(("scbs", 4))


def test_distance_matrices_match_manual_norms():
    scen = scenario_with([[0.0, 0.0], [40.0, 0.0]], [[0.0, 30.0], [40.0, 30.0]])
    d_su = scbs_ue_distances(scen)
    assert d_su.shape == (2, 2)
    assert d_su[0, 0] == pytest.approx(30.0)
    assert d_su[1, 0] == pytest.approx(50.0)
    d_uu = ue_distances(scen, np.array([1]))
    assert d_uu.shape == (1, 2)
    assert d_uu[0, 0] == pytest.approx(40.0)
    assert d_uu[0, 1] == 0.0
    # rows of the given UEs, in the given order, against every UE
    scen = drop(3, 25, rng_seed=6)
    ues = np.array([7, 0, 19])
    want = [[np.linalg.norm(scen.ue_xy[u] - scen.ue_xy[m]) for m in range(25)] for u in ues]
    np.testing.assert_allclose(ue_distances(scen, ues), want, rtol=1e-12, atol=0)
    assert ue_distances(scen, np.array([], dtype=np.int64)).shape == (0, 25)


# --------------------------------------------------------------------------
# subcarrier offsets and position files
# --------------------------------------------------------------------------

def offsets_of(scen):
    """The scenario's subcarrier offsets: every SCBS, then every UE."""
    return subcarrier_offsets([scen.seed], len(scen.scbs_xy), len(scen.ue_xy),
                              scen.config.subcarriers)[0]


def test_subcarrier_offsets_deterministic_and_in_range():
    scen = drop(4, 30, rng_seed=8)
    offs = offsets_of(scen)[4:].tolist()
    offs2 = offsets_of(scen)[4:].tolist()
    assert offs == offs2
    assert all(0 <= o < scen.config.subcarriers for o in offs)
    assert len(set(offs)) > 1
    # kind participates in the derivation: SCBS k and UE k draw apart
    assert offsets_of(scen)[:4].tolist() != offs[:4]


def test_subcarrier_offsets_change_with_scenario_seed():
    a = drop(1, 64, rng_seed=8)
    b = drop(1, 64, rng_seed=9)
    assert offsets_of(a)[1:].tolist() != offsets_of(b)[1:].tolist()


def test_positions_round_trip(tmp_path):
    scen = drop(3, 12, rng_seed=4)
    path = tmp_path / "positions.csv"
    positions_to_csv(scen, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = ([(str(i), "scbs", x, y) for i, (x, y) in enumerate(scen.scbs_xy)]
                + [(str(m), "ue", x, y) for m, (x, y) in enumerate(scen.ue_xy)])
    assert [(r["id"], r["kind"], float(r["x"]), float(r["y"])) for r in rows] == expected


# --------------------------------------------------------------------------
# the config reaches the link model
# --------------------------------------------------------------------------

# every radio key of ScenarioConfig, with a second valid value
RADIO_KEYS = {
    "macro_radius_m": 100.0, "system_bandwidth_hz": 1e7, "subcarriers": 4,
    "noise_psd_dbm_hz": -170.0, "scbs_power_dbm": 30.0, "scbs_radius_m": 30.0,
    "ue_power_dbm": 10.0, "d2d_radius_m": 10.0, "d2d_pathloss_alpha": 3.5,
    "scbs_pathloss_intercept_db": 128.1, "scbs_pathloss_slope_db": 37.6,
    "min_distance_m": 2.0, "d2d_interference": False,
}


def link_model_outputs(cfg: ScenarioConfig) -> list:
    """What a scenario under cfg computes: a seeded drop, its SCBS
    reception, received powers near and past the distance floor, two link
    budgets on a fixed layout, and the kernel shape of a problem."""
    scen = scenario_from_config(cfg, seed=3)
    graph = social_graph_from_config(cfg, scen, seed=3)
    problem = matching.build_problem(scen, graph, sg.social_pipeline(graph), cfg)
    out = [scen.scbs_xy, scen.ue_xy, *radio.scbs_reception(scen), problem._shape]
    d = np.array([0.5, 1.5, 15.0, 40.0])
    out += [radio.received_mw(kind, d, scen) for kind in ("scbs", "ue")]
    # ue0 40 m from the SCBS, ue1 15 m from ue0: an SCBS link with a D2D
    # co-channel interferer, and the D2D link itself
    layout = RadioScenario(scbs_xy=[[0.0, 0.0]], ue_xy=[[40.0, 0.0], [40.0, 15.0]], config=cfg)
    for tx in (("scbs", 0), ("ue", 1)):
        try:
            out.append(link_rate(tx, 0, 0, layout, cochannel=[("scbs", 0), ("ue", 1)]))
        except LinkRangeError as exc:
            out.append(str(exc))
    return out


def same_outputs(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


@pytest.mark.parametrize("key", sorted(RADIO_KEYS))
def test_every_radio_key_reaches_the_link_model(key):
    base = ScenarioConfig(n_scbs=2, n_ues=12, macro_radius_m=80.0)
    changed = dataclasses.replace(base, **{key: RADIO_KEYS[key]})
    assert getattr(changed, key) != getattr(base, key)
    assert same_outputs(link_model_outputs(base), link_model_outputs(base))
    assert not same_outputs(link_model_outputs(base), link_model_outputs(changed))


def test_scenario_keeps_its_config_and_seed():
    cfg = ScenarioConfig(n_scbs=3, n_ues=7)
    for seed in (0, 5):
        scen = scenario_from_config(cfg, seed=seed)
        assert scen.config is cfg
        assert scen.seed == seed
        assert (scen.n_scbs, scen.n_ues) == (3, 7)
    assert scenario_from_config(cfg).seed == cfg.seed
