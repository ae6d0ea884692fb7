"""Named parameter presets for the scenario runner.

Every preset is a flat, config-serializable mapping (section -> key ->
string) so it round-trips unchanged through the INI config format; the CLI
resolves it exactly like a user-supplied file. Frequencies carry the _hz
suffix and are converted to rad/s at build time. The key tables (SCHEMAS)
give every [params] and [grid] key of each scenario kind its type, range
and default; the CLI checks a config against them before it runs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

from .constants import TWO_PI, Phi0
from .detector import DetectorParams
from .hawking import LineParams, propagation_velocity

# SQUID detector device of the detection study: a 5 GHz stripline with an
# embedded dc SQUID coupled to a 4 MHz, 0.1 pg doubly clamped beam.
_CH2_BASE = {
    "Z_p_ohm": "50",
    "omega_T_hz": "5e9",
    "Q_T": "300",
    "omega_m_hz": "4e6",
    "Q_m": "1e3",
    "mass_kg": "1e-16",
    "I_c_A": "4.5e-6",
    "C_J_F": "1e-14",
    "phi_ext_phi0": "0.442",
    "B_ext_T": "0.05",
    "K_d": "-3.4e-6",
    "K_Tm": "1.1e-5",
    "loop_inductance_H": "1e-12",
}

PRESETS: dict[str, dict] = {
    "ch2-detection": {
        "scenario": {"kind": "detector-signal-noise"},
        "params": dict(_CH2_BASE),
        "grid": {
            # blue-detuned response destabilizes (R_gamma -> 0) well below
            # I_bi; the sweep covers the stable window, later points are
            # marked as gate failures
            "detuning_ratios": "0, 0.2, 0.4",
            "drive_min_ratio": "0.01",
            "drive_max_ratio": "0.32",
            "drive_points": "30",
            "bath_T_K": "0",
        },
    },
    "ch2-cooling-Q1e4": {
        "scenario": {"kind": "detector-cooling"},
        "params": dict(_CH2_BASE, Q_m="1e4"),
        "grid": {
            "detuning_ratio": "1.3",
            "drive_min_ratio": "0.2",
            "drive_max_ratio": "1.28",
            "drive_points": "40",
            "bath_T_K": "0, 0.001, 0.01, 0.05, 0.1",
        },
    },
    "ch2-goodcavity-Q1000": {
        "scenario": {"kind": "detector-cooling"},
        "params": dict(_CH2_BASE, Q_T="1000", Q_m="1e4"),
        "grid": {
            "detuning_ratio": "2.2",
            "drive_min_ratio": "0.2",
            "drive_max_ratio": "2.1",
            "drive_points": "40",
            "bath_T_K": "0, 0.001, 0.01, 0.05, 0.1",
        },
    },
    # Josephson array with junction parameters near fabricated amplifiers:
    # 2 uA junctions, 1 THz plasma frequency, 50 aF to ground, 0.25 um cells.
    "ch3-beltran": {
        "scenario": {"kind": "hawking-line"},
        "params": {
            "I_c_A": "2e-6",
            "plasma_freq_hz": "1e12",
            "C_0_F": "5e-17",
            "a_m": "0.25e-6",
            "N": "4800",
            "u_over_c0flux": "0.95",
            "amplitude_phi0": "0.2",
            "gradient_rate_over_plasma": "0.1",
            "loop_inductance_H": "1e-12",
        },
        "grid": {"xi_points": "201"},
    },
    "ch4-coherent9": {
        "scenario": {"kind": "trilinear-evolve"},
        "params": {
            "mean_occupation": "9",
            "dim_per_mode": "30",
        },
        "grid": {"tau_max": "3.0", "tau_points": "400"},
    },
}


def list_presets() -> dict[str, dict]:
    """Catalog of named presets (deep copies: safe to mutate)."""
    return {name: {sec: dict(kv) for sec, kv in body.items()}
            for name, body in PRESETS.items()}


# ---------------------------------------------------------------------------
# config key tables: every [params] and [grid] key of each scenario kind
# ---------------------------------------------------------------------------

# a range is (what a value must be, its test)
FINITE = ("finite", math.isfinite)
POSITIVE = ("positive and finite", lambda x: 0.0 < x < math.inf)
AT_LEAST_0 = ("finite and at least 0", lambda x: 0.0 <= x < math.inf)
AT_LEAST_1 = ("finite and at least 1", lambda x: 1.0 <= x < math.inf)
COUNT = ("a finite whole count of at least 1", lambda n: 1.0 <= n < math.inf and n == int(n))
REQUIRED, OPTIONAL = "required", "optional"
_PARSERS = {"float": float, "count": float, "word": lambda text: str(text).strip(),
            "floats": lambda text: [float(tok) for tok in str(text).replace(",", " ").split()],
            "words": lambda text: [tok.strip() for tok in str(text).split(",")]}


class Key(NamedTuple):
    """A [params] or [grid] key: the range of its value (of each item of a
    floats or words list), its typed default (an absent OPTIONAL key is left
    out), its ``_PARSERS`` type, and if it is inert: read by no formula."""

    range: tuple
    default: object = REQUIRED
    type: str = "float"
    inert: bool = False


DETECTOR_PARAMS = {
    **dict.fromkeys(("Z_p_ohm", "omega_T_hz", "Q_T", "omega_m_hz", "Q_m", "mass_kg", "I_c_A"),
                    Key(POSITIVE)),
    "C_J_F": Key(POSITIVE, inert=True),
    **dict.fromkeys(("phi_ext_phi0", "K_d", "K_Tm"), Key(FINITE)),
    "B_ext_T": Key(FINITE, OPTIONAL, inert=True),
    "loop_inductance_H": Key(FINITE, OPTIONAL),
}

LINE_PARAMS = {
    **dict.fromkeys(("I_c_A", "C_0_F", "a_m"), Key(POSITIVE)),
    "N": Key(COUNT, type="count"),
    # C_J_F or else plasma_freq_hz; rise_scale_m or else gradient_rate_over_plasma
    **dict.fromkeys(("C_J_F", "plasma_freq_hz", "rise_scale_m"), Key(POSITIVE, OPTIONAL)),
    "loop_inductance_H": Key(FINITE, OPTIONAL),
    "u_over_c0flux": Key(POSITIVE, 0.95),
    "amplitude_phi0": Key(("at least 0 and below 0.5", lambda x: 0.0 <= x < 0.5), 0.2),
    "gradient_rate_over_plasma": Key(POSITIVE, 0.1),
}

_TAU_GRID = {"tau_max": Key(POSITIVE, 3.0), "tau_points": Key(COUNT, 400, "count")}

# scenario kind -> ([params] keys, [grid] keys)
SCHEMAS = {
    "detector-signal-noise": (DETECTOR_PARAMS, {
        "detuning_ratios": Key(FINITE, (0.0, 0.2, 0.4), "floats"),
        "drive_points": Key(COUNT, 30, "count"),
        "drive_min_ratio": Key(POSITIVE, 0.05), "drive_max_ratio": Key(POSITIVE, 0.95),
        "bath_T_K": Key(AT_LEAST_0, 0.0),
    }),
    "detector-bistability": (DETECTOR_PARAMS, {
        # the bistable region: detunings of at least the onset detuning
        "ratio_min": Key(AT_LEAST_1, 1.0), "ratio_max": Key(AT_LEAST_1, 3.0),
        "points": Key(COUNT, 101, "count"),
    }),
    "detector-cooling": (DETECTOR_PARAMS, {
        "detuning_mode": Key(("ratio or optimal-harmonic",
                              {"ratio", "optimal-harmonic"}.__contains__), "ratio", "word"),
        "detuning_ratio": Key(("a number, read (and checked finite) in ratio mode only",
                               lambda x: True), 1.3),
        "drive_points": Key(COUNT, 40, "count"),
        "drive_min_ratio": Key(POSITIVE, 0.2), "drive_max_ratio": Key(POSITIVE, 1.2),
        "bath_T_K": Key(AT_LEAST_0, (0.0,), "floats"),
    }),
    "hawking-line": (LINE_PARAMS, {"xi_points": Key(COUNT, 201, "count")}),
    "trilinear-evolve": ({
        "mean_occupation": Key(POSITIVE, 9.0),  # the semiclassical tier needs N_a0 > 0
        "dim_per_mode": Key(("0 (auto) or a finite whole count of at least 2",
                             lambda n: n == 0.0 or (COUNT[1](n) and n >= 2.0)), 0, "count"),
    }, _TAU_GRID),
    "trilinear-info": ({
        "mean_occupations": Key(AT_LEAST_0, (1.0, 3.0, 6.0, 9.0), "floats"),
        "tiers": Key(("short or full", {"short", "full"}.__contains__), ("short", "full"),
                     "words"),
    }, _TAU_GRID),
}


def checked(keys: dict, raw: dict, family: str) -> dict:
    """The values of a flat [params] or [grid] mapping (strings or numbers),
    parsed and range-checked against its key table, with defaults filled in.
    An unknown key, a missing required one or a value out of range raises
    ValueError naming the key; ``family`` names the config."""
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise ValueError(f"unknown {family} config key {unknown[0]!r}; the keys are "
                         f"{', '.join(keys)}")
    values = {}
    for key, spec in keys.items():
        if key not in raw:
            if spec.default is REQUIRED:
                raise ValueError(f"{family} config needs {key}")
            if spec.default is not OPTIONAL:
                values[key] = spec.default
            continue
        what, ok = spec.range
        try:
            value = _PARSERS[spec.type](raw[key])
        except ValueError:  # text that is no number
            value = []
        items = value if isinstance(value, list) else [value]
        if not (items and all(map(ok, items))):
            raise ValueError(f"{key} must be {what}, got {raw[key]!r}")
        values[key] = int(value) if spec.type == "count" else value
    return values


def build_detector_params(p: dict) -> DetectorParams:
    """DetectorParams from a flat [params] mapping (strings or numbers),
    checked against DETECTOR_PARAMS; a 2 pi conversion to rad/s that
    overflows reaches the runner's finiteness check of the bistability
    onset."""
    v = checked(DETECTOR_PARAMS, p, "detector")
    return DetectorParams(
        Z_p=v["Z_p_ohm"],
        omega_T=TWO_PI * v["omega_T_hz"],
        Q_T=v["Q_T"],
        omega_m=TWO_PI * v["omega_m_hz"],
        Q_m=v["Q_m"],
        mass=v["mass_kg"],
        I_c=v["I_c_A"],
        phi_ext=v["phi_ext_phi0"],
        K_d=v["K_d"],
        K_Tm=v["K_Tm"],
        loop_inductance=v.get("loop_inductance_H"),
    )


def build_line_params(p: dict) -> LineParams:
    """LineParams from a flat [params] mapping (strings or numbers), checked
    against LINE_PARAMS; C_J may be given directly or implied by a target
    zero-flux plasma frequency. The two constants built here, C_J and the
    pulse speed u, are checked once: one out of floating-point range raises
    OverflowError."""
    v = checked(LINE_PARAMS, p, "hawking")
    I_c = v["I_c_A"]
    C_J = v.get("C_J_F")
    if C_J is None:
        if "plasma_freq_hz" not in v:
            raise ValueError("hawking config needs C_J_F or plasma_freq_hz")
        w_p = TWO_PI * v["plasma_freq_hz"]
        scale = 2.0 * Phi0 * (w_p * w_p)  # w_p^2 may overflow to inf or underflow to 0
        if not 0.0 < scale < math.inf:
            raise ValueError("plasma_freq_hz must be positive with a finite, nonzero "
                             f"square, got {p['plasma_freq_hz']}")
        C_J = TWO_PI * (2.0 * I_c) / scale
    params = LineParams(
        I_c=I_c,
        C_J=C_J,
        C_0=v["C_0_F"],
        a=v["a_m"],
        N=v["N"],
        u=1.0,  # placeholder, fixed next from the velocity ratio
        loop_inductance=v.get("loop_inductance_H"),
    )
    u = v["u_over_c0flux"] * propagation_velocity(0.0, params)
    if not (0.0 < C_J < math.inf and 0.0 < u < math.inf):
        raise OverflowError(f"C_J = {C_J} F or u = {u} m/s is out of floating-point range")
    return dataclasses.replace(params, u=u)
