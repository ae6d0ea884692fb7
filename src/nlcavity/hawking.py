"""dc-SQUID-array transmission line as an analogue horizon: flux-tunable
propagation velocity, effective metric, horizon location, Hawking
temperature/power, photon-count estimates, and impedance validity gates.

Every horizon quantity is closed form: the horizon flux inverts the velocity
law c0 sqrt(cos(pi phi)) = u, the tanh pulse gives its own inverse and
slope, so the horizon, its gradient and the rise scale for a target gradient
follow without a root finder or a difference stencil, and the photon count
integrates a linearly decaying rate exactly.

Comoving coordinate xi = x - u*t; external flux is everywhere expressed in
units of the flux quantum and must stay below 1/2 (insulating transition).
The velocity law, the pulse and the flux gate act elementwise on
arrays, so a grid of positions is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import Phi0, R_Q, e_charge, hbar, k_B
from .errors import NoHorizonError


@dataclass(frozen=True)
class LineParams:
    """Array constants: per-junction critical current (A), junction and
    ground capacitances (F), cell length (m), cell count, pulse speed (m/s).
    Each cell is a dc SQUID of two junctions. The values are not checked
    here: ``presets.build_line_params`` checks a config's.
    """

    I_c: float
    C_J: float
    C_0: float
    a: float
    N: int
    u: float
    loop_inductance: Optional[float] = None

    def critical_current(self, phi_ext):
        """Flux-suppressed critical current I_c^s = 2 I_c cos(pi phi)."""
        _check_flux(phi_ext)
        return 2.0 * self.I_c * np.cos(np.pi * phi_ext)

    def plasma_frequency(self, phi_ext: float = 0.0) -> float:
        """Effective plasma frequency sqrt(2 pi I_c^s/(2 C_J Phi0)), rad/s."""
        return math.sqrt(2.0 * math.pi * self.critical_current(phi_ext)
                         / (2.0 * self.C_J * Phi0))

    def beta_L(self) -> Optional[float]:
        if self.loop_inductance is None:
            return None
        return 2.0 * math.pi * self.loop_inductance * self.I_c / Phi0


def _check_flux(phi_ext):
    phi = np.asarray(phi_ext)
    bad = ~((0.0 <= phi) & (phi < 0.5))  # NaN fails both comparisons
    if np.any(bad):
        raise ValueError(f"flux {phi[bad].flat[0]} Phi0 outside [0, 0.5): "
                         "insulating transition gate")


@dataclass(frozen=True)
class TanhPulse:
    """Step-like flux-bias profile phi(xi) = (amplitude/2)(1 - tanh(xi/w)),
    in units of Phi0, with w the rise scale: flux = amplitude behind the
    front (xi < 0), 0 ahead, 0 <= amplitude < 1/2.

    Calling it and ``slope`` map comoving coordinates (a scalar or an
    array) to the flux and to dphi/dxi; ``inverse`` maps a flux to the list
    of every xi with phi(xi) = flux: one point inside (0, amplitude), none
    outside.
    """

    amplitude: float
    rise_scale: float

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 0.5):
            raise ValueError("pulse amplitude must lie in [0, 0.5) Phi0")
        if not (self.rise_scale > 0.0) or not math.isfinite(self.rise_scale):
            raise ValueError(f"rise scale must be positive and finite, got {self.rise_scale}")

    @property
    def window(self) -> tuple:
        """Support searched for horizons and profiled: +-12 rise scales."""
        return (-12.0 * self.rise_scale, 12.0 * self.rise_scale)

    def __call__(self, xi):
        return 0.5 * self.amplitude * (1.0 - np.tanh(xi / self.rise_scale))

    def slope(self, xi):
        return -0.5 * self.amplitude / self.rise_scale / np.cosh(xi / self.rise_scale) ** 2

    def inverse(self, phi) -> list:
        if not (0.0 < phi < self.amplitude):
            return []
        return [self.rise_scale * math.atanh(1.0 - 2.0 * phi / self.amplitude)]


def propagation_velocity(phi_ext, params: LineParams):
    """Low-current propagation speed c = a/sqrt(L C_0) at flux phi_ext, with
    the small-current cell inductance L = Phi0/(2 pi I_c^s); this is
    c0 sqrt(cos(pi phi)), elementwise in phi_ext."""
    L = Phi0 / (2.0 * math.pi * params.critical_current(phi_ext))
    return params.a / np.sqrt(L * params.C_0)


def metric_components(c: float, params: LineParams):
    """Effective 1+1 metric entries (g_tt, g_tx, g_xx) = (c^2 - u^2, -u, -1)
    where the local propagation speed is c."""
    return (c * c - params.u ** 2, -params.u, -1.0)


def find_horizon(pulse: TanhPulse, params: LineParams):
    """All comoving positions where c(xi) = u, ascending: the pulse's
    inverse at the horizon flux phi_h = arccos((u/c0)^2)/pi, where
    c0 sqrt(cos(pi phi_h)) = u, kept inside the pulse window. No flux slows
    the line to u >= c0. A step-like pulse has one root, the black-hole
    horizon.
    """
    ratio = params.u / propagation_velocity(0.0, params)
    phi_h = math.acos(ratio ** 2) / math.pi if ratio < 1.0 else math.nan
    lo, hi = pulse.window
    roots = [x for x in pulse.inverse(phi_h) if lo <= x <= hi]
    if not roots:
        raise NoHorizonError(
            "propagation velocity never crosses the pulse velocity u")
    return roots


def velocity_gradient(pulse: TanhPulse, params: LineParams, xi: float) -> float:
    """|dc/dxi| = |dc/dphi * dphi/dxi| at xi, with the velocity law's
    dc/dphi = -c0 pi sin(pi phi) / (2 sqrt(cos(pi phi)))."""
    phi = pulse(xi)
    dc_dphi = (-propagation_velocity(0.0, params) * math.pi * math.sin(math.pi * phi)
               / (2.0 * math.sqrt(math.cos(math.pi * phi))))
    return abs(dc_dphi * pulse.slope(xi))


def hawking_temperature(pulse: TanhPulse, params: LineParams, xi_h: float) -> float:
    """T_H = (hbar / 2 pi kB) |dc/dxi| at the horizon xi_h, kelvin."""
    # the constant first: hbar times a gradient of 1e-292 1/s would underflow
    return velocity_gradient(pulse, params, xi_h) * (hbar / (2.0 * math.pi * k_B))


def radiated_power(T_H: float) -> float:
    """Single-channel bosonic heat flow (pi/12 hbar)(kB T_H)^2, watts."""
    if T_H < 0.0:
        raise ValueError("temperature must be nonnegative")
    return math.pi / (12.0 * hbar) * (k_B * T_H) ** 2


# fraction of T_H the bias pulse's dispersion takes per 1000 cells traversed
_DECAY_PER_1000_CELLS = 0.10


def photons_per_pulse(T_H: float, params: LineParams) -> float:
    """Expected photon count over one pulse traversal of the array, for a
    horizon that forms at temperature ``T_H`` (kelvin, as resolved by
    ``hawking_temperature``).

    Emission rate is P/(kB T_H) with mean photon energy taken as kB T_H;
    T_H decays linearly with the cells traversed (``_DECAY_PER_1000_CELLS``,
    dispersion of the bias pulse), and the horizon lives L = N*a/u.
    With the decay rate r, the rate integrates in closed form to
    pi kB T_H/(12 hbar) * (L - r L^2/2) while r L <= 1, and to
    pi kB T_H/(12 hbar) / (2 r) once the horizon fades before the far end.
    """
    lifetime = params.N * params.a / params.u
    decay_rate = _DECAY_PER_1000_CELLS * params.u / (1000.0 * params.a)  # 1/s
    rate = math.pi * k_B * T_H / (12.0 * hbar)
    if decay_rate * lifetime <= 1.0:
        return rate * lifetime * (1.0 - 0.5 * decay_rate * lifetime)
    return rate / (2.0 * decay_rate)


def array_impedance(params: LineParams, phi_ext: float) -> float:
    """Effective array impedance Z_A = R_Q sqrt(2 pi e^2 sec(pi phi) /
    (Phi0 C_0 I_c)), ohms."""
    _check_flux(phi_ext)
    sec = 1.0 / math.cos(math.pi * phi_ext)
    return R_Q * math.sqrt(2.0 * math.pi * e_charge ** 2 * sec
                           / (Phi0 * params.C_0 * params.I_c))


def validity_report(pulse: TanhPulse, params: LineParams) -> dict:
    """Gate triple reported with every run: beta_L (if known), max impedance
    ratio over the pulse, and the peak flux ratio."""
    max_flux = float(np.max(pulse(np.linspace(*pulse.window, 101))))
    return {
        "beta_L": params.beta_L(),
        "Z_A_over_R_Q": array_impedance(params, max_flux) / R_Q,
        "max_flux_ratio": max_flux,
    }


def rise_scale_for_gradient_rate(amplitude: float, params: LineParams,
                                 target_rate: float) -> float:
    """Rise scale making the horizon velocity-gradient rate |dc/dxi| equal
    ``target_rate`` (1/s) for a tanh step of the given amplitude.

    The tanh pulse is a function of xi/rise_scale alone, so the horizon sits
    at a fixed multiple of the rise scale and the gradient there is g1/w for
    a rise scale w, with g1 the gradient at w = 1 m. The rise scale is
    g1/target.
    """
    if not (target_rate > 0.0) or not math.isfinite(target_rate):
        raise ValueError(f"target rate must be positive and finite, got {target_rate}")
    c_hi = propagation_velocity(0.0, params)
    c_lo = propagation_velocity(amplitude, params)
    if not (c_lo < params.u < c_hi):
        raise NoHorizonError("pulse speed u outside (c_min, c_max): no horizon")
    unit = TanhPulse(amplitude, 1.0)
    return velocity_gradient(unit, params, find_horizon(unit, params)[0]) / target_rate
