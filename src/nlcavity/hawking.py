"""dc-SQUID-array transmission line as an analogue horizon: flux-tunable
propagation velocity, effective metric, horizon location, Hawking
temperature/power, photon-count estimates, and impedance validity gates.

Comoving coordinate xi = x - u*t; external flux is everywhere expressed in
units of the flux quantum and must stay below 1/2 (insulating transition).
The velocity law, the pulse shapes and the flux gate act elementwise on
arrays, so a grid of positions is one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import Phi0, R_Q, e_charge, hbar, k_B
from .errors import CriticalCurrentError, NoHorizonError
from .numerics import Tolerance, find_root_bracketed, integrate_adaptive


@dataclass(frozen=True)
class LineParams:
    """Array constants: per-junction critical current (A), junction and
    ground capacitances (F), cell length (m), cell count, pulse speed (m/s).
    Each cell is a dc SQUID of two junctions.
    """

    I_c: float
    C_J: float
    C_0: float
    a: float
    N: int
    u: float
    loop_inductance: Optional[float] = None

    def __post_init__(self):
        for name in ("I_c", "C_J", "C_0", "a", "N", "u"):
            x = getattr(self, name)
            if not (x > 0) or not math.isfinite(x):
                raise ValueError(f"{name} must be positive and finite, got {x}")
        if self.loop_inductance is not None and not math.isfinite(self.loop_inductance):
            raise ValueError(f"loop_inductance must be finite, got {self.loop_inductance}")

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
class FluxPulse:
    """Spatial flux-bias profile phi(xi) in units of Phi0, 0 <= phi < 1/2.

    ``shape`` maps comoving coordinates (a scalar or an array) to flux.
    """

    shape: Callable
    amplitude: float
    rise_scale: float

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 0.5):
            raise ValueError("pulse amplitude must lie in [0, 0.5) Phi0")
        if not (self.rise_scale > 0.0) or not math.isfinite(self.rise_scale):
            raise ValueError(f"rise scale must be positive and finite, got {self.rise_scale}")

    @property
    def window(self) -> tuple:
        """Support scanned for horizons and profiled: +-12 rise scales."""
        return (-12.0 * self.rise_scale, 12.0 * self.rise_scale)

    def __call__(self, xi):
        return self.shape(xi)


def tanh_pulse(amplitude: float, rise_scale: float) -> FluxPulse:
    """Step-like pulse: flux = amplitude behind the front (xi < 0), 0 ahead."""
    def shape(xi):
        return 0.5 * amplitude * (1.0 - np.tanh(xi / rise_scale))
    return FluxPulse(shape=shape, amplitude=amplitude, rise_scale=rise_scale)


def gaussian_pulse(amplitude: float, rise_scale: float) -> FluxPulse:
    """Bump pulse; generates a black-hole / white-hole horizon pair."""
    def shape(xi):
        return amplitude * np.exp(-(xi / rise_scale) ** 2)
    return FluxPulse(shape=shape, amplitude=amplitude, rise_scale=rise_scale)


def junction_inductance(I: float, phi_ext: float, params: LineParams) -> float:
    """Current- and flux-dependent cell inductance
    L = Phi0 arcsin(I/I_c^s)/(2 pi I), with the small-current limit
    Phi0/(2 pi I_c^s); scalar in both arguments."""
    ics = params.critical_current(phi_ext)
    if abs(I) >= ics:
        raise CriticalCurrentError(
            f"|I|={abs(I)} exceeds flux-suppressed critical current {ics}")
    if abs(I) < 1e-12 * ics:
        return Phi0 / (2.0 * math.pi * ics)
    return Phi0 * math.asin(I / ics) / (2.0 * math.pi * I)


def propagation_velocity(phi_ext, params: LineParams):
    """Low-current propagation speed c = a/sqrt(L C_0) at flux phi_ext, with
    the small-current cell inductance L = Phi0/(2 pi I_c^s); this is
    c0 sqrt(cos(pi phi)), elementwise in phi_ext."""
    L = Phi0 / (2.0 * math.pi * params.critical_current(phi_ext))
    return params.a / np.sqrt(L * params.C_0)


def dispersion(k: float, phi_ext: float, params: LineParams) -> float:
    """Lattice dispersion w = (2c/a) |sin(k a / 2)| inside the Brillouin
    zone |k| a <= pi, with c the propagation speed at phi_ext."""
    if abs(k) * params.a > math.pi + 1e-12:
        raise ValueError(f"|k|a = {abs(k) * params.a} outside the Brillouin zone")
    c = propagation_velocity(phi_ext, params)
    return 2.0 * c / params.a * abs(math.sin(0.5 * k * params.a))


def metric_components(c: float, params: LineParams):
    """Effective 1+1 metric entries (g_tt, g_tx, g_xx) = (c^2 - u^2, -u, -1)
    where the local propagation speed is c."""
    return (c * c - params.u ** 2, -params.u, -1.0)


def find_horizon(pulse: FluxPulse, params: LineParams, allow_pair: bool = False):
    """All comoving positions where c(xi) = u: one 2 001-point scan of the
    pulse window, then a Brent solve in each bracket where c - u changes
    sign.

    A single root (step-like pulse) is the black-hole horizon. Multiple
    roots mean a white-hole partner is present: rejected with a warning
    unless ``allow_pair``.
    """
    def gap(x):
        return propagation_velocity(pulse(x), params) - params.u

    xs = np.linspace(*pulse.window, 2001)
    vals = gap(xs)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    roots = [float(xs[i]) if vals[i] == 0.0 else find_root_bracketed(gap, xs[i], xs[i + 1])
             for i in hits]
    if not roots:
        raise NoHorizonError(
            "propagation velocity never crosses the pulse velocity u")
    if len(roots) > 1:
        warnings.warn(f"{len(roots)} horizons found: white-hole partner present",
                      RuntimeWarning, stacklevel=2)
        if not allow_pair:
            raise NoHorizonError(
                f"{len(roots)} horizons found; pass allow_pair=True for "
                "black-hole/white-hole pairs")
    return roots


def velocity_gradient(pulse: FluxPulse, params: LineParams, xi: float) -> float:
    """|dc/dxi| by 5-point central differences with one Richardson step."""
    h = 1e-3 * pulse.rise_scale

    def five_point(step):
        c = propagation_velocity(pulse(xi + np.array([-2, -1, 1, 2]) * step), params)
        return (c[0] - 8.0 * c[1] + 8.0 * c[2] - c[3]) / (12.0 * step)

    d1 = five_point(h)
    d2 = five_point(0.5 * h)
    return abs((16.0 * d2 - d1) / 15.0)


def hawking_temperature(pulse: FluxPulse, params: LineParams,
                        xi_h: float = None) -> float:
    """T_H = (hbar / 2 pi kB) |dc/dxi| at the horizon, kelvin."""
    if xi_h is None:
        xi_h = find_horizon(pulse, params)[0]
    return hbar * velocity_gradient(pulse, params, xi_h) / (2.0 * math.pi * k_B)


def radiated_power(T_H: float) -> float:
    """Single-channel bosonic heat flow (pi/12 hbar)(kB T_H)^2, watts."""
    if T_H < 0.0:
        raise ValueError("temperature must be nonnegative")
    return math.pi / (12.0 * hbar) * (k_B * T_H) ** 2


def photons_per_pulse(T_H: float, params: LineParams,
                      decay_per_1000_cells: float = 0.10) -> float:
    """Expected photon count over one pulse traversal of the array, for a
    horizon that forms at temperature ``T_H`` (kelvin, as resolved by
    ``hawking_temperature``).

    Emission rate is P/(kB T_H) with mean photon energy taken as kB T_H;
    T_H decays linearly with the cells traversed (default 10% per 1000
    cells, dispersion of the bias pulse), and the horizon lives N*a/u.
    """
    lifetime = params.N * params.a / params.u
    decay_rate = decay_per_1000_cells * params.u / (1000.0 * params.a)  # 1/s

    def rate(t, _):
        T = T_H * np.maximum(0.0, 1.0 - decay_rate * t)
        return math.pi * k_B * T / (12.0 * hbar)

    return integrate_adaptive(rate, 0.0, lifetime,
                              Tolerance(abs_tol=1e-12, rel_tol=1e-10))


def array_impedance(params: LineParams, phi_ext: float) -> float:
    """Effective array impedance Z_A = R_Q sqrt(2 pi e^2 sec(pi phi) /
    (Phi0 C_0 I_c)), ohms."""
    _check_flux(phi_ext)
    sec = 1.0 / math.cos(math.pi * phi_ext)
    return R_Q * math.sqrt(2.0 * math.pi * e_charge ** 2 * sec
                           / (Phi0 * params.C_0 * params.I_c))


def validity_report(pulse: FluxPulse, params: LineParams) -> dict:
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
    at a fixed multiple of the rise scale and the gradient there is G/w for a
    rise scale w (``velocity_gradient``'s stencil scales with w as well).
    One horizon solve at the dimensional estimate w = (c_max - c_min)/target
    gives G = w*g, and the rise scale G/target follows in closed form.
    """
    if not (target_rate > 0.0) or not math.isfinite(target_rate):
        raise ValueError(f"target rate must be positive and finite, got {target_rate}")
    c_hi = propagation_velocity(0.0, params)
    c_lo = propagation_velocity(amplitude, params)
    if not (c_lo < params.u < c_hi):
        raise NoHorizonError("pulse speed u outside (c_min, c_max): no horizon")
    w = (c_hi - c_lo) / target_rate
    pulse = tanh_pulse(amplitude, w)
    g = velocity_gradient(pulse, params, find_horizon(pulse, params)[0])
    return w * g / target_rate
