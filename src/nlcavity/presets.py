"""Named parameter presets for the scenario runner.

Every preset is a flat, config-serializable mapping (section -> key ->
string) so it round-trips unchanged through the INI config format; the CLI
resolves it exactly like a user-supplied file. Frequencies carry the _hz
suffix and are converted to rad/s at build time.
"""

from __future__ import annotations

import dataclasses

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


def build_detector_params(p: dict) -> DetectorParams:
    """DetectorParams from a flat config mapping (strings or numbers);
    B_ext_T and loop_inductance_H are optional, every other key is required."""
    def g(key, optional=False):
        if key in p:
            return float(p[key])
        if optional:
            return None
        raise ValueError(f"detector config needs {key}")

    return DetectorParams(
        Z_p=g("Z_p_ohm"),
        omega_T=TWO_PI * g("omega_T_hz"),
        Q_T=g("Q_T"),
        omega_m=TWO_PI * g("omega_m_hz"),
        Q_m=g("Q_m"),
        mass=g("mass_kg"),
        I_c=g("I_c_A"),
        C_J=g("C_J_F"),
        phi_ext=g("phi_ext_phi0"),
        B_ext=g("B_ext_T", optional=True),
        K_d=g("K_d"),
        K_Tm=g("K_Tm"),
        loop_inductance=g("loop_inductance_H", optional=True),
    )


def build_line_params(p: dict) -> LineParams:
    """LineParams from a flat config mapping; C_J may be given directly or
    implied by a target zero-flux plasma frequency."""
    I_c = float(p["I_c_A"])
    if "C_J_F" in p:
        C_J = float(p["C_J_F"])
    else:
        w_p = TWO_PI * float(p["plasma_freq_hz"])
        C_J = TWO_PI * (2.0 * I_c) / (2.0 * Phi0 * w_p ** 2)
    params = LineParams(
        I_c=I_c,
        C_J=C_J,
        C_0=float(p["C_0_F"]),
        a=float(p["a_m"]),
        N=int(float(p["N"])),
        u=1.0,  # placeholder, fixed next from the velocity ratio
        loop_inductance=float(p["loop_inductance_H"]) if "loop_inductance_H" in p else None,
    )
    u = float(p.get("u_over_c0flux", "0.95")) * propagation_velocity(0.0, params)
    return dataclasses.replace(params, u=u)
