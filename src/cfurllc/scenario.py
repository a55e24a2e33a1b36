"""Factory deployment: geometry, large-scale fading and configuration.

All large-scale gains are normalized by the thermal noise power at
generation time, so every downstream SINR expression uses unit noise.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN_J_PER_K = 1.381e-23
NOISE_TEMPERATURE_K = 290.0

# Devices closer than this to an AP are treated as being at this distance,
# to keep the path-loss model finite at collocation.
MIN_DISTANCE_M = 1.0


class ConfigError(ValueError):
    """Raised for inconsistent or unparsable configuration."""


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters. Defaults follow the standard smart-factory setup."""

    bandwidth_hz: float = 10e6
    blocklength: int = 1000
    num_devices: int = 10
    num_aps: int = 4
    antennas_per_ap: int = 36
    carrier_freq_mhz: float = 2100.0
    ap_height_m: float = 15.0
    device_height_m: float = 1.6
    noise_figure_db: float = 9.0
    dep_target: float = 1e-5
    rate_req_bps: float = 5e6
    energy_budget: float = 2e13
    ap_select_threshold: float = 0.9
    master_seed: int = 1
    gp_tolerance: float = 1e-9
    sca_tolerance: float = 0.01
    area_side_m: float = 1000.0
    near_breakpoint_m: float = 10.0
    far_breakpoint_m: float = 50.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name, low in (("num_devices", 1), ("num_aps", 1), ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.num_devices >= self.antennas_per_ap:
            raise ConfigError(
                f"num_devices ({self.num_devices}) must be smaller than "
                f"antennas_per_ap ({self.antennas_per_ap})"
            )
        if self.num_devices >= self.blocklength:
            raise ConfigError("pilot length equals num_devices and must be below blocklength")
        if not 0.0 < self.ap_select_threshold <= 1.0:
            raise ConfigError("ap_select_threshold must lie in (0, 1]")
        if not 0.0 < self.dep_target <= 0.5:
            raise ConfigError("dep_target must lie in (0, 0.5]")
        for name in ("bandwidth_hz", "rate_req_bps", "energy_budget", "area_side_m",
                     "carrier_freq_mhz", "ap_height_m", "device_height_m", "gp_tolerance",
                     "sca_tolerance"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.near_breakpoint_m <= 0 or self.far_breakpoint_m <= self.near_breakpoint_m:
            raise ConfigError("breakpoints must satisfy 0 < near < far")

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class LargeScaleModel:
    """One deployment: noise-normalized gains, service sets, per-device budgets."""

    beta: np.ndarray                      # (M, K) noise-normalized linear gains
    service_sets: tuple[tuple[int, ...], ...]  # per device, descending beta order
    positions_ap: np.ndarray              # (M, 2) meters
    positions_dev: np.ndarray             # (K, 2) meters
    weights: np.ndarray                    # (K,) in [0, 1]
    energy: np.ndarray                     # (K,) per-device energy budget

    @property
    def num_aps(self) -> int:
        return self.beta.shape[0]

    @property
    def num_devices(self) -> int:
        return self.beta.shape[1]

    @functools.cached_property
    def service_mask(self) -> np.ndarray:
        """(K, M) indicator of the service sets: entry (k, m) is 1 when m in S_k.
        Built once per deployment and read-only, since every caller shares it."""
        sizes = [len(aps) for aps in self.service_sets]
        mask = np.zeros((self.num_devices, self.num_aps))
        mask[np.repeat(np.arange(self.num_devices), sizes),
             np.concatenate(self.service_sets).astype(int)] = 1.0
        mask.flags.writeable = False
        return mask

    def serving_subset(self) -> "LargeScaleModel":
        """The deployment restricted to the APs that serve at least one device.

        Their beta rows and positions keep their order, and each service set
        is re-indexed to the kept rows; self when every AP serves.
        """
        kept = sorted(set().union(*self.service_sets))
        if len(kept) == self.num_aps:
            return self
        new_index = {m: i for i, m in enumerate(kept)}
        return dataclasses.replace(
            self, beta=self.beta[kept], positions_ap=self.positions_ap[kept],
            service_sets=tuple(tuple(new_index[m] for m in aps)
                               for aps in self.service_sets))


def loss_constant_db(cfg: SystemConfig) -> float:
    """Frequency/height dependent constant of the three-slope path-loss model."""
    lf = math.log10(cfg.carrier_freq_mhz)
    return (46.3 + 33.9 * lf - 13.82 * math.log10(cfg.ap_height_m)
            - (1.1 * lf - 0.7) * cfg.device_height_m + (1.56 * lf - 0.8))


def path_loss_db(distance_m, cfg: SystemConfig):
    """Three-slope path loss in dB; continuous at the far breakpoint by construction.

    Accepts a scalar or an ndarray of distances (all strictly positive).
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be strictly positive")
    d0, d1 = cfg.near_breakpoint_m, cfg.far_breakpoint_m
    base = loss_constant_db(cfg)
    mid = base + 15.0 * np.log10(d1)
    pl = np.where(
        d > d1,
        base + 35.0 * np.log10(d),
        np.where(d <= d0, mid + 20.0 * math.log10(d0), mid + 20.0 * np.log10(d)),
    )
    return float(pl) if np.isscalar(distance_m) else pl


def noise_power_w(cfg: SystemConfig) -> float:
    """Thermal noise power over the signal bandwidth, including the noise figure."""
    return (cfg.bandwidth_hz * BOLTZMANN_J_PER_K * NOISE_TEMPERATURE_K
            * 10.0 ** (cfg.noise_figure_db / 10.0))


def select_aps(beta_col: np.ndarray, threshold: float) -> tuple[int, ...]:
    """Smallest set of strongest APs whose gain share reaches ``threshold``.

    Gains are sorted descending and accumulated until the cumulative fraction
    of the total reaches the threshold; a threshold of 1 selects every AP.
    """
    beta_col = np.asarray(beta_col, dtype=float)
    if beta_col.size == 0:
        raise ValueError("empty gain column")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    order = np.argsort(-beta_col, kind="stable")
    cum = np.cumsum(beta_col[order])
    target = threshold * cum[-1]
    # first index where the cumulative sum reaches the target share
    count = int(np.searchsorted(cum, target * (1.0 - 1e-12)) + 1)
    count = min(count, beta_col.size)
    return tuple(int(i) for i in order[:count])


def ap_grid(num_aps: int, area_side_m: float) -> np.ndarray:
    """Uniform grid constellation with half-spacing margins; M must be square or 1."""
    if num_aps == 1:
        return np.array([[area_side_m / 2.0, area_side_m / 2.0]])
    side = math.isqrt(num_aps)
    if side * side != num_aps:
        raise ConfigError(f"num_aps = {num_aps} is neither 1 nor a perfect square")
    spacing = area_side_m / side
    coords = (np.arange(side) + 0.5) * spacing
    xx, yy = np.meshgrid(coords, coords)
    return np.column_stack([xx.ravel(), yy.ravel()])


def generate_topology(cfg: SystemConfig, seed: int) -> LargeScaleModel:
    """Drop devices uniformly in the square and build the large-scale model.

    Deterministic for a given (cfg, seed): positions, weights and gains are
    all drawn from one counter-based stream.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    aps = ap_grid(cfg.num_aps, cfg.area_side_m)
    devices = rng.uniform(0.0, cfg.area_side_m, size=(cfg.num_devices, 2))
    weights = rng.uniform(0.0, 1.0, size=cfg.num_devices)

    diff = aps[:, None, :] - devices[None, :, :]
    dist = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), MIN_DISTANCE_M)
    pl_db = path_loss_db(dist, cfg)
    beta = 10.0 ** (-pl_db / 10.0) / noise_power_w(cfg)

    sets = tuple(select_aps(beta[:, k], cfg.ap_select_threshold)
                 for k in range(cfg.num_devices))
    energy = np.full(cfg.num_devices, cfg.energy_budget, dtype=float)
    return LargeScaleModel(beta=beta, service_sets=sets, positions_ap=aps,
                           positions_dev=devices, weights=weights, energy=energy)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SystemConfig)}


def load_config(path: str, base: SystemConfig | None = None) -> SystemConfig:
    """Read a plain-text ``key = value`` configuration file.

    Unknown keys, repeated keys and malformed lines raise ConfigError with the
    line number. Lines starting with '#' and blank lines are ignored.
    """
    values, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key '{key}' repeated, "
                                  f"first set on line {seen[key]}")
            seen[key] = lineno
            try:
                if _FIELD_TYPES[key] == "int":
                    values[key] = int(text)
                else:
                    values[key] = float(text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {text}") from exc
    base = base or SystemConfig()
    try:
        return base.replace(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_hash(cfg: SystemConfig, extra: dict | None = None) -> str:
    """Short stable hash of a configuration (plus optional experiment knobs)."""
    items = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(SystemConfig)}
    if extra:
        items.update(extra)
    text = "\n".join(f"{k}={items[k]!r}" for k in sorted(items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
