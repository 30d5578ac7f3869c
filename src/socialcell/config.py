"""Plain-text configuration: one `key = value` per line, `#` comments.

A single flat schema covers the radio scenario, the social-graph model, the
swap engine and the sweep/harness controls, so one file can drive a single
run or a whole experiment.  Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from . import socialgraph as sg

if TYPE_CHECKING:   # radio imports this module, so the builders import it when called
    from .radio import RadioScenario


#: Closed ranges of the radio keys whose extremes overflow the link budget
#: (a power of 1e308 dBm, a noise density of -1e308 dBm/Hz or an intercept
#: of -1e308 dB gives inf or nan): within them, with the other radio keys
#: at their defaults, every received power, SINR and rate is finite.
_RADIO_RANGES = {
    "scbs_power_dbm": (-100.0, 100.0),
    "ue_power_dbm": (-100.0, 100.0),
    "noise_psd_dbm_hz": (-300.0, 0.0),
    "scbs_pathloss_intercept_db": (0.0, 300.0),
}


# Slotted: every AssociationProblem holds its replication's config, and the
# benchmark keeps every problem alive for its audit.  A dict-backed instance
# of these 36 fields takes about 1.6 kB, a slotted one about 330 B.
@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Every tunable in one place, with the stock defaults.

    Radio values mirror the usual small-cell simulation assumptions: 5 MHz
    system bandwidth split over 16 subcarriers, -174 dBm/Hz noise floor,
    23 dBm / 50 m small cells, 15 dBm / 20 m device-to-device links and a
    cubic D2D pathloss exponent, all inside a 500 m deployment disk.

    A `radio.RadioScenario` carries its run's config and reads every radio
    value from it.  The swap engine reads its keys from this record too.
    Its sigmoid acceptance uses an inverse-temperature ramp, linear from
    beta_start to beta_end, so the walk turns greedy late; scbs_quota = 0
    lets an SCBS serve one UE per subcarrier.  `__post_init__` bounds the
    drop's, the radio's and the engine's values, so a bad one fails when a
    config is parsed, overridden or replaced, before any work.
    """

    # deployment
    n_scbs: int = 16
    n_ues: int = 60
    seed: int = 1
    macro_radius_m: float = 500.0
    # radio
    system_bandwidth_hz: float = 5e6
    subcarriers: int = 16
    noise_psd_dbm_hz: float = -174.0
    scbs_power_dbm: float = 23.0
    scbs_radius_m: float = 50.0
    ue_power_dbm: float = 15.0
    d2d_radius_m: float = 20.0
    d2d_pathloss_alpha: float = 3.0
    scbs_pathloss_intercept_db: float = 140.7
    scbs_pathloss_slope_db: float = 36.7
    min_distance_m: float = 1.0
    d2d_interference: bool = True
    # social graph
    alpha: float = 0.5
    beta: float = 0.5
    social_model: str = "watts-strogatz"
    ws_neighbors: int = 4
    ws_rewire: float = 0.1
    er_edge_prob: float = 0.1
    social_edge_file: str = ""
    similarity_normalization: str = sg.SAW
    # swap engine
    max_iterations: int = 3000
    beta_start: float = 1.0
    beta_end: float = 50.0
    stall_window: int = 200
    scbs_quota: int = 0
    d2d_quota: int = 3
    stabilize: bool = False
    # sweep / harness
    sweep_variable: str = ""
    sweep_values: tuple[int, ...] = ()
    replications: int = 20
    methods: tuple[str, ...] = ("social-aware", "max-rssi")
    workers: int = 1

    def __post_init__(self):
        for name in ("n_scbs", "n_ues", "subcarriers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("macro_radius_m", "system_bandwidth_hz", "scbs_radius_m",
                     "d2d_radius_m", "d2d_pathloss_alpha", "scbs_pathloss_slope_db",
                     "min_distance_m"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name, (low, high) in _RADIO_RANGES.items():
            if not low <= getattr(self, name) <= high:
                raise ConfigError(f"{name} must be in [{low:g}, {high:g}], "
                                  f"got {getattr(self, name)}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.beta_start < 0 or self.beta_end < 0:
            raise ConfigError("beta_start and beta_end must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.stall_window < 0:
            raise ConfigError("stall_window must be >= 0 (0 disables early stop)")
        if self.scbs_quota < 0:
            raise ConfigError("scbs_quota must be >= 0 (0 = one per subcarrier)")
        if self.d2d_quota < 1:
            raise ConfigError("d2d_quota must be >= 1")


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _parse_value(name: str, text: str):
    """Coerce one raw string according to the schema field's type."""
    field = _FIELDS[name]
    text = text.strip()
    ftype = field.type
    try:
        if ftype == "bool":
            low = text.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if ftype == "int":
            return int(text)
        if ftype == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {text!r}")
            return value
        if ftype == "str":
            return text
        if ftype == "tuple[int, ...]":
            return tuple(int(p) for p in text.replace(",", " ").split()) if text else ()
        if ftype == "tuple[str, ...]":
            return tuple(p for p in text.replace(",", " ").split()) if text else ()
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None
    raise ConfigError(f"unhandled config field type {ftype!r} for {name}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse `key = value` lines on top of `base` (or the defaults)."""
    cfg = base or ScenarioConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        updates[key] = _parse_value(key, val)
    return dataclasses.replace(cfg, **updates)


def load_config(path, base: ScenarioConfig | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base=base)


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply repeatable KEY=VALUE command-line overrides."""
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        updates[key] = _parse_value(key, val)
    return dataclasses.replace(cfg, **updates)


def dump_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back reproduces cfg exactly."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in dataclasses.fields(ScenarioConfig)]
    return "\n".join(lines) + "\n"


def config_sha(cfg: ScenarioConfig) -> str:
    """Short fingerprint of the effective configuration."""
    import hashlib
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:12]


def config_as_dict(cfg: ScenarioConfig) -> dict:
    out = {}
    for f in dataclasses.fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

def scenario_from_config(cfg: ScenarioConfig, seed: int | None = None) -> RadioScenario:
    """A drop of cfg's SCBSs, then its UEs, i.i.d. uniform on the deployment
    disk from `default_rng(seed)` (cfg.seed by default), under cfg's radio
    values: `scenario.config` is cfg."""
    from .radio import RadioScenario, disk_points
    seed = cfg.seed if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    scbs_xy = disk_points(rng, cfg.n_scbs, cfg.macro_radius_m)
    ue_xy = disk_points(rng, cfg.n_ues, cfg.macro_radius_m)
    return RadioScenario(scbs_xy=scbs_xy, ue_xy=ue_xy, config=cfg, seed=seed)


def social_graph_from_config(cfg: ScenarioConfig, scenario: RadioScenario,
                             seed: int | None = None,
                             reception: tuple[np.ndarray, np.ndarray] | None = None
                             ) -> sg.SocialGraph:
    """Build the social graph over every SCBS and UE in the scenario.

    The random models wire the UE population only; every SCBS is then linked
    to the UEs inside its service radius, the coverage mask of
    `radio.scbs_reception` (it can only develop social ties with users it
    could actually serve), which a caller that has it already passes as
    `reception`.  An explicit edge file replaces both parts verbatim.
    Vertices are numbered SCBSs first, then UEs.
    """
    from .radio import scbs_reception
    N, M = scenario.n_scbs, scenario.n_ues
    if cfg.social_model == "edges":
        if not cfg.social_edge_file:
            raise ConfigError("social_model=edges needs social_edge_file")
        return sg.load_edge_list(cfg.social_edge_file, N, M)

    seed = cfg.seed if seed is None else seed
    adj = np.zeros((N + M, N + M), dtype=np.int8)
    if cfg.social_model == "watts-strogatz":
        adj[N:, N:] = sg.watts_strogatz_adjacency(M, cfg.ws_neighbors, cfg.ws_rewire, seed)
    elif cfg.social_model == "erdos-renyi":
        adj[N:, N:] = sg.gnp_adjacency(M, cfg.er_edge_prob, seed)
    else:
        raise ConfigError(f"unknown social_model {cfg.social_model!r}")
    adj[:N, N:] = (reception or scbs_reception(scenario))[1]
    adj[N:, :N] = adj[:N, N:].T
    return sg.SocialGraph(n_scbs=N, adjacency=adj)


def engine_config_from_config(cfg: ScenarioConfig, seed: int | None = None) -> ScenarioConfig:
    """cfg with the swap engine's seed replaced by `seed`, when one is given."""
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)
