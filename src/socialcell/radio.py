"""System-level radio model: topology, pathloss, SINR and link rates.

Distance-based pathloss only (no fading), equal bandwidth sharing inside
each serving node, and subcarrier-level co-channel interference.  All
powers are handled in mW internally; the public parameters use the
customary dBm / dB units.

Every radio parameter is a key of the run's one `ScenarioConfig`, which
bounds them; a `RadioScenario` is a drop of nodes plus that config, and
each function here reads the radio keys from `scenario.config`.  SCBS
links use an NLOS-style log-distance curve in dB over km, D2D links a bare
power law over metres:

    PL_scbs = scbs_pathloss_intercept_db + scbs_pathloss_slope_db * log10(d_km)
    PL_d2d  = 10 * d2d_pathloss_alpha * log10(d_m)

with distances floored at `min_distance_m` before either formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError, InputError, LinkRangeError
from .socialgraph import SCBS, UE, NodeRef

# --------------------------------------------------------------------------
# unit conversions
# --------------------------------------------------------------------------

def dbm_to_mw(dbm):
    """dBm -> milliwatts (dB -> linear power ratio likewise)."""
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


# --------------------------------------------------------------------------
# scenario
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadioScenario:
    """One drop of nodes under the run's radio parameters.

    Positions are metres in a plane with the deployment disk centred on the
    origin: scbs_xy is (N, 2), ue_xy is (M, 2).  `config` supplies every
    radio value (powers, radii, bandwidth, subcarriers, noise, pathloss and
    `d2d_interference`); its `n_scbs`, `n_ues` and `seed` are not read
    here, since the positions and `seed` (the topology seed, from which
    the subcarrier offsets derive) say what this drop is.
    """

    scbs_xy: np.ndarray
    ue_xy: np.ndarray
    config: ScenarioConfig = ScenarioConfig()
    seed: int = 0

    def __post_init__(self):
        scbs_xy = np.asarray(self.scbs_xy, dtype=float).reshape(-1, 2)
        ue_xy = np.asarray(self.ue_xy, dtype=float).reshape(-1, 2)
        scbs_xy.setflags(write=False)
        ue_xy.setflags(write=False)
        object.__setattr__(self, "scbs_xy", scbs_xy)
        object.__setattr__(self, "ue_xy", ue_xy)
        if len(scbs_xy) < 1 or len(ue_xy) < 1:
            raise ConfigError("need at least one SCBS and one UE")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        limit = self.config.macro_radius_m * (1.0 + 1e-9)
        for xy, what in ((scbs_xy, "SCBS"), (ue_xy, "UE")):
            if np.any(np.linalg.norm(xy, axis=1) > limit):
                raise ConfigError(f"{what} position outside the deployment disk")

    @property
    def n_scbs(self) -> int:
        return len(self.scbs_xy)

    @property
    def n_ues(self) -> int:
        return len(self.ue_xy)

    def tx_power_dbm(self, kind: str) -> float:
        if kind == SCBS:
            return self.config.scbs_power_dbm
        if kind == UE:
            return self.config.ue_power_dbm
        raise InputError(f"unknown transmitter kind {kind!r}")

    def tx_radius_m(self, kind: str) -> float:
        if kind == SCBS:
            return self.config.scbs_radius_m
        if kind == UE:
            return self.config.d2d_radius_m
        raise InputError(f"unknown transmitter kind {kind!r}")

    def position(self, ref: NodeRef) -> np.ndarray:
        kind, nid = ref
        pool = self.scbs_xy if kind == SCBS else self.ue_xy
        if not 0 <= nid < len(pool):
            raise InputError(f"no such node {kind}{nid}")
        return pool[nid]


def disk_points(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n points uniform over a disk of the given radius, centred on origin."""
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


# --------------------------------------------------------------------------
# pathloss and gains
# --------------------------------------------------------------------------

def pathloss_db(tx_kind: str, distance_m, cfg: ScenarioConfig):
    """Pathloss in dB for the given transmitter kind, by the module
    docstring's formulas over cfg's keys; accepts arrays."""
    d = np.maximum(np.asarray(distance_m, dtype=float), cfg.min_distance_m)
    if tx_kind == SCBS:
        return cfg.scbs_pathloss_intercept_db + cfg.scbs_pathloss_slope_db * np.log10(d / 1000.0)
    if tx_kind == UE:
        return 10.0 * cfg.d2d_pathloss_alpha * np.log10(d)
    raise InputError(f"unknown transmitter kind {tx_kind!r}")


def channel_gain(tx_kind: str, distance_m, scenario: RadioScenario):
    """Linear channel gain: the inverse of the pathloss."""
    return dbm_to_mw(-pathloss_db(tx_kind, distance_m, scenario.config))


def received_power_mw(tx: NodeRef, rx_ue: int, scenario: RadioScenario) -> float:
    """Received power in mW at UE rx_ue from transmitter tx, at full power."""
    d = float(np.linalg.norm(scenario.position(tx) - scenario.ue_xy[rx_ue]))
    gain = channel_gain(tx[0], d, scenario)
    return float(dbm_to_mw(scenario.tx_power_dbm(tx[0]))) * float(gain)


def received_mw(tx_kind: str, distance_m, scenario: RadioScenario):
    """Received power in mW at the given distances from a transmitter of the
    given kind at full power; accepts arrays."""
    return (dbm_to_mw(scenario.tx_power_dbm(tx_kind))
            * 10.0 ** (-pathloss_db(tx_kind, distance_m, scenario.config) / 10.0))


def scbs_ue_distances(scenario: RadioScenario) -> np.ndarray:
    """(N, M) matrix of SCBS-to-UE distances in metres."""
    diff = scenario.scbs_xy[:, np.newaxis, :] - scenario.ue_xy[np.newaxis, :, :]
    return np.linalg.norm(diff, axis=2)


def ue_distances(scenario: RadioScenario, ues: np.ndarray) -> np.ndarray:
    """(len(ues), M) matrix of distances in metres from the given UEs to
    every UE."""
    diff = scenario.ue_xy[ues, np.newaxis, :] - scenario.ue_xy[np.newaxis, :, :]
    return np.linalg.norm(diff, axis=2)


def scbs_reception(scenario: RadioScenario) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) SCBS-to-UE received power in mW and the in-range mask: the UEs
    inside each SCBS's service radius."""
    d_su = scbs_ue_distances(scenario)
    return received_mw(SCBS, d_su, scenario), d_su <= scenario.config.scbs_radius_m


# --------------------------------------------------------------------------
# link budget
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkBudget:
    """Everything that went into one link's rate."""

    tx: NodeRef
    rx_ue: int
    subcarrier: int
    gain: float
    received_mw: float
    interference_mw: float
    noise_mw: float
    sinr: float
    rate_bps: float


def link_rate(tx: NodeRef, rx_ue: int, subcarrier: int, scenario: RadioScenario,
              cochannel: Iterable[NodeRef] = (), share: float = 1.0) -> LinkBudget:
    """Achievable rate of one link under equal-share scheduling.

    `share` is the fraction of the serving node's bandwidth granted to this
    link (1/|served set| under equal sharing).  `cochannel` lists every
    transmitter active on the same subcarrier; the transmitter itself and
    the receiver are ignored, and UE-kind interferers are dropped when the
    scenario disables D2D interference.  Raises LinkRangeError when the
    receiver lies outside the transmitter's service radius.
    """
    if not 0.0 < share <= 1.0:
        raise InputError(f"bandwidth share must be in (0, 1], got {share}")
    kind = tx[0]
    d = float(np.linalg.norm(scenario.position(tx) - scenario.ue_xy[rx_ue]))
    radius = scenario.tx_radius_m(kind)
    if d > radius:
        raise LinkRangeError(
            f"{kind}{tx[1]} -> ue{rx_ue}: distance {d:.1f} m exceeds radius {radius:.1f} m")

    gain = float(channel_gain(kind, d, scenario))
    received = float(dbm_to_mw(scenario.tx_power_dbm(kind))) * gain

    interference = 0.0
    for other in cochannel:
        if other == tx or other == (UE, rx_ue):
            continue
        if other[0] == UE and not scenario.config.d2d_interference:
            continue
        interference += received_power_mw(other, rx_ue, scenario)

    bandwidth = share * scenario.config.system_bandwidth_hz
    noise = float(dbm_to_mw(scenario.config.noise_psd_dbm_hz)) * bandwidth
    sinr = received / (noise + interference)
    rate = bandwidth * np.log2(1.0 + sinr)
    return LinkBudget(tx=tx, rx_ue=rx_ue, subcarrier=subcarrier, gain=gain,
                      received_mw=received, interference_mw=interference,
                      noise_mw=noise, sinr=float(sinr), rate_bps=float(rate))


def subcarrier_offsets(seeds, n_scbs: int, n_ues: int, subcarriers: int) -> np.ndarray:
    """Deterministic starting subcarriers, uniform over [0, C), of every
    SCBS and then every UE of the scenario of each topology seed in
    `seeds`, in one bulk pass: a (len(seeds), n_scbs + n_ues) int64 array.
    A node's offset is the first `integers(C)` of
    `np.random.default_rng([seed, kind, id])`, where kind is 0 for an SCBS
    and 1 for a UE."""
    # imported where used, so that `import socialcell` does not compile it
    from .seeds import first_integers
    seeds = np.asarray(seeds)
    kinds = np.repeat([0, 1], [n_scbs, n_ues])
    ids = np.concatenate([np.arange(n_scbs), np.arange(n_ues)])
    return first_integers([np.repeat(seeds, len(ids)), np.tile(kinds, len(seeds)),
                           np.tile(ids, len(seeds))], subcarriers).reshape(len(seeds), len(ids))


# --------------------------------------------------------------------------
# position I/O
# --------------------------------------------------------------------------

def positions_to_csv(scenario: RadioScenario, path) -> None:
    """Write node positions as `id,kind,x,y` rows."""
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "kind", "x", "y"])
        for i, (x, y) in enumerate(scenario.scbs_xy):
            writer.writerow([i, SCBS, repr(float(x)), repr(float(y))])
        for m, (x, y) in enumerate(scenario.ue_xy):
            writer.writerow([m, UE, repr(float(x)), repr(float(y))])
