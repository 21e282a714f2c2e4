"""Compact electrical model of a single SOT-MRAM cell.

Everything here is a closed-form function of the device parameters: MTJ
resistance from the resistance-area product, heavy-metal channel resistance
from geometry, and a perpendicular-macrospin switching threshold with
voltage-controlled magnetic anisotropy (VCMA) assist. No time-domain
magnetization dynamics are modeled; switching is a threshold decision.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

MU0 = 4.0e-7 * math.pi        # vacuum permeability [H/m]
Q_E = 1.602176634e-19         # elementary charge [C]
HBAR = 1.054571817e-34        # reduced Planck constant [J s]
OERSTED = 79.577              # A/m per oersted
UM2 = 1e-12                   # m^2 per um^2 (RA is specified in ohm um^2)


class ConfigError(ValueError):
    """Raised for invalid or unknown device-parameter configuration."""


class MagState(Enum):
    """Free-layer magnetization relative to the fixed layer.

    P (parallel, low resistance) maps to logic '1'; AP (anti-parallel,
    high resistance) maps to logic '0'. The mapping is fixed throughout.
    """

    AP = 0
    P = 1

    @property
    def bit(self) -> int:
        return self.value

    @classmethod
    def from_bit(cls, bit: int) -> "MagState":
        return cls.P if bit else cls.AP

    @property
    def flipped(self) -> "MagState":
        return MagState.AP if self is MagState.P else MagState.P


class Polarity(Enum):
    """Requested switching transition; sign of the drive current must match."""

    P_TO_AP = 1
    AP_TO_P = -1


_POSITIVE_FIELDS = ("D", "t_f", "t_ox", "Ms", "RA", "theta_SH", "L", "W", "T",
                    "rho_SOT", "Ic_cal", "J_stt_crit")


@dataclass(frozen=True)
class DeviceParams:
    """Single home of all per-cell device parameters.

    Units: lengths in meters, Ms in A/m, Ki0 in J/m^2, RA in ohm um^2,
    beta in J/(V m), H_EX in A/m (sign-sensitive), rho_SOT in ohm m,
    R_on in ohm, J_stt_crit in A/m^2. TMR0 is dimensionless (1.0 = 100%).

    Defaults are a reference 50 nm perpendicular MTJ on a 60x50x3 nm
    heavy-metal channel; RA defaults to the low-RA (read-current) variant,
    ``default_vgsot`` gives the high-RA variant.

    Note: ``alpha``, ``P`` and ``H_EX`` are stored for completeness but are
    inert under the default threshold law; H_EX enters only when the
    optional exchange-field correction in :func:`critical_sot_current`
    is enabled.
    """

    D: float = 50e-9            # MTJ diameter
    t_f: float = 1.1e-9         # free layer thickness
    t_ox: float = 1.4e-9        # oxide (MgO) thickness
    Ms: float = 6.25e5          # saturation magnetization
    Ki0: float = 3.2e-4         # interfacial anisotropy at 0 V
    alpha: float = 0.05         # Gilbert damping
    P: float = 0.58             # spin polarization
    RA: float = 10.0            # resistance-area product
    TMR0: float = 1.0           # TMR ratio at 0 V
    beta: float = 60e-15        # VCMA coefficient
    theta_SH: float = 0.25      # spin Hall angle
    H_EX: float = -50.0 * OERSTED   # exchange bias field
    L: float = 60e-9            # SOT channel length
    W: float = 50e-9            # SOT channel width
    T: float = 3e-9             # SOT channel thickness
    rho_SOT: float = 2.78e-6    # SOT channel resistivity
    R_on: float = 1000.0        # access transistor on-resistance
    Ic_cal: float = 1.0         # threshold calibration factor
    J_stt_crit: float = 5e10    # STT read-disturb current density limit

    def __post_init__(self) -> None:
        for name in _FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in _POSITIVE_FIELDS:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.TMR0 < 0.0:
            raise ConfigError("TMR0 must be >= 0")
        if self.theta_SH > 1.0:
            raise ConfigError("theta_SH must be in (0, 1]")
        # R_on = 0 is allowed so ideal-access analyses stay expressible.
        if self.R_on < 0.0:
            raise ConfigError("R_on must be >= 0")

    def replace(self, **changes) -> "DeviceParams":
        return dataclasses.replace(self, **changes)

    @classmethod
    def default_2t1r(cls) -> "DeviceParams":
        """Reference parameter set for the read-current (2T-1R) array."""
        return cls(RA=10.0)

    @classmethod
    def default_vgsot(cls) -> "DeviceParams":
        """Reference parameter set for the voltage-gated (VGSOT) array."""
        return cls(RA=650.0)


_FIELDS = tuple(f.name for f in dataclasses.fields(DeviceParams))


def mtj_area(p: DeviceParams) -> float:
    """Junction surface area pi D^2 / 4 in m^2."""
    return math.pi * p.D * p.D / 4.0


def mtj_resistance(p: DeviceParams, state: MagState) -> float:
    """MTJ resistance in ohms for the given magnetization state.

    R_P = RA / A_MTJ, R_AP = R_P * (1 + TMR0); TMR has no bias roll-off.
    Array-valued fields of ``p`` give an array of resistances.
    """
    r_p = p.RA * UM2 / mtj_area(p)
    if state is MagState.P:
        return r_p
    return r_p * (1.0 + p.TMR0)


def channel_resistance(p: DeviceParams) -> float:
    """Heavy-metal/AFM channel resistance rho L / (W T) in ohms."""
    return p.rho_SOT * p.L / (p.W * p.T)


def critical_sot_current(p: DeviceParams, v_gate: float = 0.0,
                         include_exchange: bool = False) -> float:
    """Threshold channel current for SOT switching, in amperes.

    Perpendicular-macrospin damping-like threshold with VCMA assist:

        Ki(v)    = Ki0 - beta * v / t_ox
        K_eff(v) = Ki(v) / t_f - mu0 Ms^2 / 2
        H_k,eff  = 2 K_eff / (mu0 Ms)
        J_c      = (2e/hbar) (Ms t_f / theta_SH) mu0 H_k,eff / 2
        I_c      = Ic_cal * J_c * W * T

    Clamped to 0 once the effective barrier vanishes (K_eff <= 0), so the
    result is monotonically nonincreasing in v_gate for beta > 0.

    ``include_exchange`` subtracts the in-plane exchange-field term
    mu0 |H_EX| / sqrt(2) from the anisotropy field term (off by default;
    direction handling is left to the polarity logic).

    Fields of ``p`` and ``v_gate`` may be numpy arrays (one entry per
    trial); the result then is an array, clamped elementwise.
    """
    ki = p.Ki0 - p.beta * v_gate / p.t_ox
    k_eff = ki / p.t_f - MU0 * p.Ms * p.Ms / 2.0
    h_k_eff = 2.0 * k_eff / (MU0 * p.Ms)
    field_term = MU0 * h_k_eff / 2.0
    barrier = k_eff > 0.0
    if include_exchange:
        field_term = field_term - MU0 * abs(p.H_EX) / math.sqrt(2.0)
        barrier = barrier & (field_term > 0.0)
    j_c = (2.0 * Q_E / HBAR) * (p.Ms * p.t_f / p.theta_SH) * field_term
    i_c = p.Ic_cal * j_c * p.W * p.T
    if isinstance(barrier, np.ndarray):
        return np.where(barrier, i_c, 0.0)
    return i_c if barrier else 0.0


def switch_decision(i_applied, i_crit, polarity: Polarity):
    """Decide whether the applied channel current switches the free layer.

    Switch iff the current direction matches the requested transition and
    |i_applied| >= i_crit (ties switch). Elementwise when given arrays.
    """
    direction_ok = i_applied > 0.0 if polarity is Polarity.P_TO_AP \
        else i_applied < 0.0
    return direction_ok & (abs(i_applied) >= i_crit)


def check_read_disturb(p: DeviceParams, i_mtj: float) -> bool:
    """True when the MTJ current density stays below the STT switching limit.

    Fails (returns False) iff |i_mtj| / A_MTJ >= J_stt_crit. A verdict,
    never an exception; callers treat failures as advisory.
    """
    return abs(i_mtj) / mtj_area(p) < p.J_stt_crit


# --- parameter-file loading -------------------------------------------------
#
# Config keys mirror the DeviceParams field names, except the exchange bias
# which is given in oersted as H_EX_Oe and converted on load.

_CONFIG_FIELDS = tuple(name for name in _FIELDS if name != "H_EX")


def load_device_params(source: "str | Path | Mapping",
                       base: DeviceParams | None = None) -> DeviceParams:
    """Build DeviceParams from a JSON file path or a mapping.

    Keys not present fall back to ``base`` (the 2T-1R defaults if omitted).
    Unknown keys are a hard error, as are values failing validation.
    """
    if isinstance(source, (str, Path)):
        try:
            mapping = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file {source}: {exc}") from exc
    else:
        mapping = dict(source)
    if not isinstance(mapping, dict):
        raise ConfigError("device config must be a JSON object")

    base = base if base is not None else DeviceParams.default_2t1r()
    changes = {}
    for key, value in mapping.items():
        if key == "H_EX_Oe":
            changes["H_EX"] = _as_number(key, value) * OERSTED
        elif key in _CONFIG_FIELDS:
            changes[key] = _as_number(key, value)
        else:
            raise ConfigError(f"unknown device parameter key: {key!r}")
    return base.replace(**changes)


def dump_device_params(p: DeviceParams) -> dict:
    """Inverse of load_device_params: mapping with H_EX rendered in oersted."""
    out = {name: getattr(p, name) for name in _CONFIG_FIELDS}
    out["H_EX_Oe"] = p.H_EX / OERSTED
    return out


def _as_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"device parameter {key!r} must be a number")
    return float(value)
