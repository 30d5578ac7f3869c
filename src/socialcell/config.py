"""Plain-text configuration: one `key = value` per line, `#` comments.

A single flat schema covers the radio scenario, the social-graph model, the
swap engine and the sweep/harness controls, so one file can drive a single
run or a whole experiment.  Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError
from . import socialgraph as sg

if TYPE_CHECKING:   # radio imports this module, so the builders import it when called
    from .radio import RadioScenario


#: Ranges of the float keys, as (bracket, low, high): "[" includes the low
#: end and "(" excludes it; the high end is included.  Past a finite end of
#: a drop or radio range the link budget overflows (a power of 1e308 dBm, a
#: pathloss slope of 1e308 dB, a bandwidth of 1e-300 Hz or a disk of 1e308 m
#: gives inf or nan).  Within them every received power, SINR and rate is
#: finite, at their corners too.  The social floats are convex weights and
#: probabilities.
_RANGES = {
    "macro_radius_m": ("(", 0.0, 1e6),
    "scbs_radius_m": ("(", 0.0, math.inf),
    "d2d_radius_m": ("(", 0.0, math.inf),
    "system_bandwidth_hz": ("[", 1.0, 1e12),
    "scbs_power_dbm": ("[", -100.0, 100.0),
    "ue_power_dbm": ("[", -100.0, 100.0),
    "noise_psd_dbm_hz": ("[", -300.0, 0.0),
    "scbs_pathloss_intercept_db": ("[", 0.0, 300.0),
    "scbs_pathloss_slope_db": ("(", 0.0, 100.0),
    "d2d_pathloss_alpha": ("(", 0.0, 10.0),
    "min_distance_m": ("[", 1e-3, math.inf),
    "alpha": ("[", 0.0, 1.0),
    "beta": ("[", 0.0, 1.0),
    "ws_rewire": ("[", 0.0, 1.0),
    "er_edge_prob": ("[", 0.0, 1.0),
}

METHOD_SOCIAL = "social-aware"
METHOD_BASELINE = "max-rssi"
#: The names `methods` may hold; `harness.METHODS` maps each to its search.
METHOD_NAMES = (METHOD_SOCIAL, METHOD_BASELINE)

#: The values each string key may take; an empty sweep_variable sweeps nothing.
_CHOICES = {
    "social_model": ("watts-strogatz", "erdos-renyi", "edges"),
    "similarity_normalization": (sg.SAW, sg.RAW_CLIPPED),
    "sweep_variable": ("", "n_scbs", "n_ues"),
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
    lets an SCBS serve one UE per subcarrier.  `__post_init__` is the one
    place that decides whether a config is valid: it bounds every key, alone
    and against the others, so a bad one fails when a config is parsed,
    overridden or replaced, before any work.
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
        for name in ("n_scbs", "n_ues", "subcarriers", "max_iterations", "d2d_quota",
                     "replications", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("ws_neighbors", "stall_window", "scbs_quota"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name, (bracket, low, high) in _RANGES.items():
            value = getattr(self, name)
            if not (low < value if bracket == "(" else low <= value) or value > high:
                raise ConfigError(f"{name} must be in {bracket}{low:g}, {high:g}], "
                                  f"got {value}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}, "
                                  f"expected one of {allowed}")
        if self.beta_start < 0 or self.beta_end < 0:
            raise ConfigError("beta_start and beta_end must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ConfigError(f"alpha + beta must equal 1, got {self.alpha + self.beta}")
        if self.social_model == "edges" and not self.social_edge_file:
            raise ConfigError("social_model=edges needs social_edge_file")
        # config text cuts a value at `#` and at each line break that
        # `str.splitlines` knows, so `dump_config` could not write it back
        path = self.social_edge_file
        if "#" in path or "".join(path.splitlines()) != path:
            raise ConfigError(f"social_edge_file must hold no '#' or line break, "
                              f"got {path!r}")
        if self.sweep_variable and not self.sweep_values:
            raise ConfigError(f"sweep_values must not be empty when sweeping "
                              f"{self.sweep_variable}")
        if any(v < 1 for v in self.sweep_values):
            raise ConfigError(f"sweep_values must be >= 1, got {self.sweep_values}")
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ConfigError(f"sweep_values repeats a value: {self.sweep_values}")
        if not self.methods or not set(self.methods) <= set(METHOD_NAMES):
            raise ConfigError(f"methods must be one or more of {METHOD_NAMES}, "
                              f"got {self.methods}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods repeats a name: {self.methods}")


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


def _update(items: Iterable[tuple[str, str]]) -> dict:
    """One update of the schema's fields from (place, `key = value`) items, a
    later key overriding an earlier one; `place` prefixes each error."""
    updates = {}
    for place, item in items:
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{place}: expected `key = value`, got {item!r}")
        if key not in _FIELDS:
            raise ConfigError(f"{place}: unknown configuration key {key!r}")
        updates[key] = _parse_value(key, val)
    return updates


def _text_items(text: str) -> Iterator[tuple[str, str]]:
    """The `key = value` items of config text, `#` starting a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"line {lineno}", line


def load_config(path="", overrides: Sequence[str] = ()) -> ScenarioConfig:
    """The defaults updated by the config file at `path` (none if empty), then
    by KEY=VALUE `overrides`, in one update, so every rule, cross-key ones
    too, sees the final values."""
    text = ""
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    items = [*_text_items(text), *(("override", item) for item in overrides)]
    return ScenarioConfig(**_update(items))


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
        return sg.load_edge_list(cfg.social_edge_file, N, M)

    seed = cfg.seed if seed is None else seed
    adj = np.zeros((N + M, N + M), dtype=np.int8)
    if cfg.social_model == "watts-strogatz":
        adj[N:, N:] = sg.watts_strogatz_adjacency(M, cfg.ws_neighbors, cfg.ws_rewire, seed)
    else:
        adj[N:, N:] = sg.gnp_adjacency(M, cfg.er_edge_prob, seed)
    adj[:N, N:] = (reception or scbs_reception(scenario))[1]
    adj[N:, :N] = adj[:N, N:].T
    return sg.SocialGraph(n_scbs=N, adjacency=adj)


def engine_config_from_config(cfg: ScenarioConfig, seed: int | None = None) -> ScenarioConfig:
    """cfg with the swap engine's seed replaced by `seed`, when one is given."""
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)
