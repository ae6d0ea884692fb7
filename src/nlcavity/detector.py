"""Frequency-domain engine for the SQUID-embedded nonlinear cavity
displacement detector: driven mean-field response with bistability,
signal/noise/quantum-limit spectra, and effective back-action thermometry
for cooling curves, all from the two coupling constants K_d and K_Tm.

Conventions: omega_p = omega_T + delta_omega is the pump frequency,
gamma_pT = omega_T/(2 Q_T) and gamma_bm = omega_m/(2 Q_m) are amplitude
damping rates, and the pump phase phi_pT is set to zero (all reported
quantities are phase-insensitive).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .constants import Phi0, hbar, k_B
from .errors import (
    InstabilityError,
    NoBistabilityError,
    NonLorentzianError,
    OutsideRegionError,
    SingularFluxError,
)
from .numerics import Tolerance, fit_lorentzian, integrate_adaptive, solve_cubic_real
from .qinfo import bose_occupation


@dataclass(frozen=True)
class DetectorParams:
    """Circuit constants of the detector.

    phi_ext is in units of the flux quantum; K_d is the Duffing constant
    and K_Tm the cavity-mechanics coupling. loop_inductance (H) feeds the
    beta_L validity gate when provided. The values are not checked here:
    ``presets.build_detector_params`` checks a config's.
    """

    Z_p: float
    omega_T: float
    Q_T: float
    omega_m: float
    Q_m: float
    mass: float
    I_c: float
    phi_ext: float
    K_d: float
    K_Tm: float
    loop_inductance: Optional[float] = None

    @property
    def gamma_pT(self) -> float:
        return self.omega_T / (2.0 * self.Q_T)

    @property
    def gamma_bm(self) -> float:
        return self.omega_m / (2.0 * self.Q_m)

    def secant(self) -> float:
        cosv = math.cos(math.pi * self.phi_ext)
        if abs(cosv) < 1e-9:
            raise SingularFluxError(
                f"phi_ext={self.phi_ext} Phi0 is at the half-flux-quantum singularity")
        return 1.0 / cosv

    def validity_gates(self, drive_current: float) -> dict:
        """Expansion-validity gate values; both must be << 1."""
        sec = self.secant()
        gates = {"current_gate": abs(drive_current / self.I_c * sec)}
        if self.loop_inductance is not None:
            beta_L = 2.0 * math.pi * self.loop_inductance * self.I_c / Phi0
            gates["beta_L_gate"] = abs(beta_L * sec)
        return gates


@dataclass(frozen=True)
class DrivePoint:
    """Drive current amplitude (A) and pump detuning omega_p - omega_T (rad/s)."""

    I_0: float
    delta_omega: float


@dataclass(frozen=True)
class MeanFieldSolution:
    chi: complex
    E: float
    branch: str            # small | unstable | large
    residual: float


@dataclass(frozen=True)
class EffectiveThermo:
    """Thermal parametrization of the phase-preserving (+1) sideband at one
    (drive, bath temperature).

    R_omega and R_gamma are the fitted line center (offset from the pump,
    in omega_m) and width (in gamma_bm); G_plus is the detector gain,
    n_back_plus the back-action occupation and n_net the net mechanical
    occupation. chi is the mean field the drive was resolved at, so the
    band spectra of the same operating point need no second mean-field
    solve; weak_coupling flags a pole the drive has not moved off the bare
    damping, where n_back_plus and n_net are NaN.
    """

    R_omega: float
    R_gamma: float
    G_plus: float
    n_back_plus: float
    n_net: float
    lorentzian_residual: float
    chi: complex           # mean-field amplitude the response was resolved at
    weak_coupling: bool = False


def zero_point(params: DetectorParams) -> float:
    """Zero-point displacement sqrt(hbar/(2 m omega_m)) in meters."""
    return math.sqrt(hbar / (2.0 * params.mass * params.omega_m))


def effective_duffing(params: DetectorParams) -> float:
    """K_eff = K_d - 2 w_T w_m K_Tm^2/(w_m^2 + gamma_bm^2): the Duffing
    constant plus the always-softening mechanically-induced term."""
    gbm = params.gamma_bm
    return params.K_d - 2.0 * params.omega_T * params.omega_m * params.K_Tm ** 2 \
        / (params.omega_m ** 2 + gbm ** 2)


def _drive_source(params: DetectorParams, drive: DrivePoint) -> float:
    """RHS magnitude sqrt(2 pi I0^2 Z_p gamma_pT / (hbar omega_p))."""
    omega_p = params.omega_T + drive.delta_omega
    return math.sqrt(2.0 * math.pi * drive.I_0 ** 2 * params.Z_p
                     * params.gamma_pT / (hbar * omega_p))


def linear_amplitude(params: DetectorParams, drive: DrivePoint) -> complex:
    """Small-drive amplitude c = i sqrt(2 pi) sqrt(I0^2 Zp gpt/(h wp))
    / (gamma_pT - i d_omega)."""
    omega_p = params.omega_T + drive.delta_omega
    return (1j * math.sqrt(2.0 * math.pi)
            / (params.gamma_pT - 1j * drive.delta_omega)
            * math.sqrt(drive.I_0 ** 2 * params.Z_p * params.gamma_pT
                        / (hbar * omega_p)))


def mean_field(params: DetectorParams, drive: DrivePoint,
               frequency_pulling: bool = True) -> list[MeanFieldSolution]:
    """Steady drive response: solutions chi of
    (w_T - w_p - i g_pT) chi + (w_T/2pi) K chi|chi|^2 = source.

    Solves the cubic in E = |chi|^2/(2 pi); nonnegative roots are kept and
    labeled small/unstable/large by amplitude (the intermediate root is the
    unstable one). ``frequency_pulling=False`` drops the cubic term
    entirely (linear cavity response).
    """
    gpt = params.gamma_pT
    dw = drive.delta_omega
    src = _drive_source(params, drive)
    K = effective_duffing(params)

    def residual_of(chi):
        lhs = (-dw - 1j * gpt) * chi
        if frequency_pulling:
            lhs += (params.omega_T / (2.0 * math.pi)) * K * chi * abs(chi) ** 2
        return abs(lhs - src) / max(abs(src), 1e-300)

    if drive.I_0 == 0.0:
        return [MeanFieldSolution(chi=0j, E=0.0, branch="small", residual=0.0)]

    if not frequency_pulling or K == 0.0:
        chi = src / (-dw - 1j * gpt)
        return [MeanFieldSolution(chi=chi, E=abs(chi) ** 2 / (2.0 * math.pi),
                                  branch="small", residual=residual_of(chi))]

    wk = params.omega_T * K
    b_in_sq = drive.I_0 ** 2 * params.Z_p / (2.0 * hbar * (params.omega_T + dw))
    c2 = -2.0 * dw / wk
    c1 = (dw ** 2 + gpt ** 2) / wk ** 2
    c0 = -2.0 * gpt * b_in_sq / wk ** 2
    roots = [E for E in solve_cubic_real(c2, c1, c0) if E > 0.0]
    if not roots:  # c0 < 0 forces a positive root unless c0 underflowed to 0
        raise FloatingPointError("mean-field cubic produced no physical (E > 0) root")

    labels = {1: ("small",), 2: ("small", "large"),
              3: ("small", "unstable", "large")}[len(roots)]
    sols = []
    for E, branch in zip(roots, labels):
        M = math.sqrt(E)
        # phase from the amplitude-phase form of the mean-field equation
        phase = cmath.phase(complex(-dw + wk * E, -gpt) * M
                            / (math.sqrt(2.0 * gpt * b_in_sq)))
        chi = math.sqrt(2.0 * math.pi) * M * cmath.exp(-1j * phase)
        sols.append(MeanFieldSolution(chi=chi, E=E, branch=branch,
                                      residual=residual_of(chi)))
    return sols


def select_branch(solutions) -> MeanFieldSolution:
    """The small-amplitude stable branch."""
    return min((s for s in solutions if s.branch != "unstable"), key=lambda s: s.E)


def bistability_onset(params: DetectorParams):
    """(E_bi, delta_omega_bi, I_bi): onset amplitude-squared, detuning, and
    critical drive current."""
    K = effective_duffing(params)
    if K == 0.0:
        raise NoBistabilityError("effective Duffing constant is zero")
    gpt = params.gamma_pT
    E_bi = 2.0 * gpt / (math.sqrt(3.0) * params.omega_T * abs(K))
    dw_bi = math.sqrt(3.0) * gpt * math.copysign(1.0, K)
    omega_p = params.omega_T + dw_bi
    I_bi = 2.0 * gpt * math.sqrt(2.0 * hbar * omega_p
                                 / (3.0 * math.sqrt(3.0) * params.omega_T
                                    * abs(K) * params.Z_p))
    return E_bi, dw_bi, I_bi


def bistability_boundary(params: DetectorParams, delta_omega_ratio: float):
    """(I_lower/I_bi, I_upper/I_bi) at detuning ratio r = d_omega/d_omega_bi >= 1."""
    r = delta_omega_ratio
    if not r >= 1.0:  # NaN fails this test too
        raise OutsideRegionError(f"detuning ratio {r} outside the bistable region r >= 1")
    base = 1.0 + 3.0 / r ** 2
    wing = (1.0 - 1.0 / r ** 2) ** 1.5
    lower = 0.5 * r ** 1.5 * math.sqrt(base - wing)
    upper = 0.5 * r ** 1.5 * math.sqrt(base + wing)
    return lower, upper


# ---------------------------------------------------------------------------
# response coefficients (appendix closed forms)
# ---------------------------------------------------------------------------

class _Point(NamedTuple):
    """The drive- and mean-field-dependent factors of the response algebra
    at one operating point: detuning, chi, |chi|^2, |chi|^4, chi^2, the
    small-drive amplitude c and the drive- and coupling-strength prefactor
    of the signal kernel. ``band_spectra`` gathers them into per-node
    arrays."""

    dw: float
    chi: complex
    chi2: float
    chi4: float
    chi_sq: complex
    c: complex
    prefactor: float


def _point(params, drive, chi) -> _Point:
    """The ``_Point`` of (drive, chi), in scalar Python arithmetic: numpy's
    abs and power round differently on complex arrays, and every gathered
    copy must equal the scalar factor bit for bit."""
    gpt, dw = params.gamma_pT, drive.delta_omega
    prefactor = (drive.I_0 * params.K_Tm * params.omega_T / gpt) ** 2 \
        * gpt ** 2 / (gpt ** 2 + dw ** 2)
    chi2 = abs(chi) ** 2
    return _Point(dw, chi, chi2, chi2 ** 2, chi ** 2, linear_amplitude(params, drive),
                  prefactor)


def _response_terms(params, pt, omega):
    """(upper, lower, cross_w, determinant) of the 2x2 response system at
    omega. Plain arithmetic, so omega may be real or complex, scalar or
    array, and the ``_Point`` factors scalars or arrays of omega's shape;
    the zero-frequency argument is 0.0 * omega for the same reason.

    The coupling coefficients are the appendix closed forms
    b(w, w') = (w_T K_Tm)^2/(4 pi) / (w - w_T + i g_pT)
    * (1/(w' - w_m + i g_bm) + 1/(-w' - w_m - i g_bm)) and
    d(w) = w_T K_d/(2 pi) / (w - w_T + i g_pT), at w = omega and at the
    mirror omega - 2 dw with w' = 0 and w' = omega - omega_p; each cavity
    factor and mechanical bracket is formed once and shared."""
    wT, gpt, gbm, wm = params.omega_T, params.gamma_pT, params.gamma_bm, params.omega_m
    wp = wT + pt.dw

    mirror = omega - 2.0 * pt.dw
    cavity_w = omega - wT + 1j * gpt
    cavity_m = mirror - wT + 1j * gpt
    zero, shift = 0.0 * omega, omega - wp
    mech_0 = 1.0 / (zero - wm + 1j * gbm) + 1.0 / (-zero - wm - 1j * gbm)
    mech_s = 1.0 / (shift - wm + 1j * gbm) + 1.0 / (-shift - wm - 1j * gbm)
    b_pref = (wT * params.K_Tm) ** 2 / (4.0 * math.pi)
    d_pref = wT * params.K_d / (2.0 * math.pi)
    # b(w, w') = (b_pref / cavity(w)) * mech(w'), d(w) = d_pref / cavity(w)
    b_cav_w, b_cav_m = b_pref / cavity_w, b_pref / cavity_m
    b_w_s, b_m_s = b_cav_w * mech_s, b_cav_m * mech_s
    d_w, d_m = d_pref / cavity_w, d_pref / cavity_m

    upper = 1.0 - 2.0 * pt.chi2 * (b_cav_w * mech_0 + b_w_s + d_w)
    lower = 1.0 + 2.0 * pt.chi2 * (b_cav_m * mech_0 + b_m_s + d_m)
    cross_w = 2.0 * b_w_s + d_w
    cross_m = 2.0 * b_m_s + d_m
    return upper, lower, cross_w, upper * lower + pt.chi4 * cross_w * cross_m


def _quotients(params, pt, omega):
    """(lower/det, cross_w/det, det) of the response system at real omega,
    from the ``_Point`` factors. Warns when the determinant is within 1e-14
    of singular (bifurcation proximity)."""
    upper, lower, cross_w, det = _response_terms(params, pt, omega)

    scale = 1.0 + np.abs(upper) + np.abs(lower)
    if np.any(np.abs(det) < 1e-14 * scale):
        warnings.warn("response determinant nearly singular (bifurcation proximity)",
                      RuntimeWarning, stacklevel=4)
    return lower / det, cross_w / det, det


def _alphas(pt, beta1, ratio):
    """(alpha1, alpha2) from the first two ``_quotients``: all the signal
    kernel reads."""
    return beta1 * pt.chi, -ratio * pt.chi2 * pt.chi


def _coefficients(params, pt, omega):
    """``response_coeffs`` from the ``_Point`` factors at real omega."""
    beta1, ratio, det = _quotients(params, pt, omega)
    return (*_alphas(pt, beta1, ratio), beta1, ratio * pt.chi_sq, det)


def response_coeffs(params: DetectorParams, drive: DrivePoint, chi: complex, omega):
    """(alpha1, alpha2, beta1, beta2, determinant) at frequency omega.

    Accepts scalar or array omega. Warns when the determinant is within
    1e-14 of singular (bifurcation proximity).
    """
    return _coefficients(params, _point(params, drive, chi),
                         np.asarray(omega, dtype=float))


def _signal_terms(params, pt, omega, coeffs):
    """(cavity filter, |alpha1/c + alpha2/c * mirror-ratio|^2, bare
    mechanical Lorentzians at omega_p + omega_m and omega_p - omega_m) of
    the signal kernel, from the response coefficients at omega."""
    gpt, gbm, wm = params.gamma_pT, params.gamma_bm, params.omega_m
    dw = pt.dw
    wp = params.omega_T + dw
    cavity = (omega / wp) * gpt ** 2 / ((omega - wp + dw) ** 2 + gpt ** 2)
    a1, a2 = coeffs[:2]
    ratio = (omega - wp + dw + 1j * gpt) / (omega - wp - dw + 1j * gpt)
    combo = np.abs(a1 / pt.c + a2 / pt.c * ratio) ** 2
    lor_plus = 2.0 * gbm / ((omega - wp - wm) ** 2 + gbm ** 2)
    lor_minus = 2.0 * gbm / ((wp - omega - wm) ** 2 + gbm ** 2)
    return cavity, combo, lor_plus, lor_minus


def _occupied(kernel, lor_plus, lor_minus, x, bath_T):
    """Signal density from its bath-independent factors: kernel *
    (lor_plus + lor_minus) (2n(x) + 1) / 2pi with x = omega - omega_p.
    Both sidebands sit |x| from the pump, so they share one occupation."""
    if bath_T <= 0.0:
        occ = 1.0
    else:
        occ = 2.0 * (1.0 / np.expm1(hbar * np.abs(x) / (k_B * bath_T))) + 1.0
    return kernel * (lor_plus * occ + lor_minus * occ) / (2.0 * math.pi)


def _signal_at(params, pt, omega, coeffs, bath_T):
    """Signal density at omega from the response coefficients there."""
    cavity, combo, lor_plus, lor_minus = _signal_terms(params, pt, omega, coeffs)
    return _occupied(pt.prefactor * cavity * combo, lor_plus, lor_minus,
                     omega - (params.omega_T + pt.dw), bath_T)


def _noise_terms(params, pt, omega, coeffs):
    """Back-reaction noise density at omega from the response coefficients
    there."""
    gpt = params.gamma_pT
    dw = pt.dw
    wp = params.omega_T + dw
    b1, b2 = coeffs[2:4]
    x = omega - wp + dw
    mirror_ratio = (x ** 2 + gpt ** 2) / ((omega - wp - dw) ** 2 + gpt ** 2)
    bracket = (np.abs(b1) ** 2 + mirror_ratio * np.abs(b2) ** 2
               - np.real(b1) + x / gpt * np.imag(b1))
    return (hbar * omega / params.Z_p) * 2.0 * gpt ** 2 / (x ** 2 + gpt ** 2) \
        * bracket / (2.0 * math.pi)


def _caves_at(params, pt, omega, coeffs):
    """Integrand of the Caves bound over the band, without the signal
    prefactor."""
    cavity, combo, lor_plus, lor_minus = _signal_terms(params, pt, omega, coeffs)
    return cavity * combo * (lor_plus - lor_minus) / (2.0 * math.pi)


def added_noise(params: DetectorParams, omega_s, delta_band):
    """Probe-line zero-point noise added at the output (A^2 in the band)."""
    return hbar * omega_s * delta_band / (4.0 * math.pi * params.Z_p)


def _check_bath_T(bath_T: float) -> None:
    if not 0.0 <= bath_T < math.inf:
        raise ValueError(f"bath temperature must be finite and nonnegative, got {bath_T}")


_BAND_TOL = Tolerance(abs_tol=1e-300, rel_tol=1e-8, max_iter=40)


def band_spectra(params: DetectorParams, delta_omega: float, I_0s, chis,
                 omega_s, bands, bath_T: float = 0.0):
    """Band-integrated (signal, noise, Caves bound) variances (A^2) of
    operating points that share params and the pump detuning.

    Point j has drive current I_0s[j], mean-field amplitude chis[j] and the
    band of width bands[j] centred on omega_s[j]. The noise includes the
    added zero-point term; the Caves bound is the Heisenberg minimum-noise
    bound for the same band. All 3n band integrals run as one adaptive
    Gauss-Kronrod call (abs_tol 1e-300, rel_tol 1e-8), each node evaluating
    only its own point and kind, so entry j equals the one-point call bit
    for bit. Returns three arrays of length n (empty when n is 0).
    """
    _check_bath_T(bath_T)
    points = [_point(params, DrivePoint(I_0=float(I_0), delta_omega=delta_omega), chi)
              for I_0, chi in zip(I_0s, chis)]
    n = len(points)
    if n == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    table = _Point._make(np.array(column) for column in zip(*points))
    kinds = (functools.partial(_signal_at, bath_T=bath_T), _noise_terms, _caves_at)
    omega_s = np.asarray(omega_s, dtype=float)
    bands = np.asarray(bands, dtype=float)

    def densities(omega, k):
        # interval k is point k % n of kind k // n
        kind, j = np.divmod(k, n)
        out = np.empty_like(omega)
        for which, density in enumerate(kinds):
            mine = kind == which
            w = omega[mine]
            pt = _Point._make(column[j[mine]] for column in table)
            out[mine] = density(params, pt, w, _coefficients(params, pt, w))
        return out

    lo, hi = omega_s - bands / 2.0, omega_s + bands / 2.0
    signal, noise, caves = np.split(
        integrate_adaptive(densities, np.tile(lo, 3), np.tile(hi, 3), _BAND_TOL), 3)
    added = added_noise(params, omega_s, bands)
    return signal, noise + added, np.abs(added - table.prefactor * caves)


# ---------------------------------------------------------------------------
# effective thermal parametrization
# ---------------------------------------------------------------------------

def _determinant_zero(params, drive, chi):
    """Complex zero of the response determinant near omega_p + omega_m: the
    renormalized mechanical pole of the +1 sideband. Stability requires
    Im(zero) < 0."""
    gbm, wm = params.gamma_bm, params.omega_m
    wp = params.omega_T + drive.delta_omega
    pole = wp + wm - 1j * gbm

    pt = _point(params, drive, chi)

    def g(w):
        # bare mechanical pole cleared so the secant iteration sees only the zero
        return _response_terms(params, pt, w)[-1] * (w - pole)

    z = wp + wm - 0.5j * gbm
    step = 0.25 * gbm
    gz = g(z)
    z2 = z + step
    for _ in range(200):
        gz2 = g(z2)
        if gz2 == gz:
            break
        z_next = z2 - gz2 * (z2 - z) / (gz2 - gz)
        z, gz = z2, gz2
        z2 = z_next
        if abs(z2 - z) < 1e-10 * gbm:
            break
    return z2


def _select_for_thermo(params, drive):
    """Small-branch selection with a fold guard: inside the bistable
    detuning range, past the upper fold (where the small branch has merged
    with the unstable one and vanished) is a validity failure."""
    sols = mean_field(params, drive)
    try:
        E_bi, dw_bi, _ = bistability_onset(params)
    except NoBistabilityError:
        return select_branch(sols)
    in_range = drive.delta_omega / dw_bi >= 1.0
    stable = [s for s in sols if s.branch != "unstable"]
    if in_range and len(stable) == 1 and stable[0].E > E_bi:
        raise InstabilityError(
            "small-amplitude branch lost past the upper bistable boundary")
    return select_branch(sols)


# noise probe offsets from the fitted line center, in fitted linewidths
_NOISE_PROBES = np.array([0.0, -10.0, 10.0, -20.0, 20.0])


def _noise_peak_height(v):
    """Peak height of the mechanical noise Lorentzian above the broad
    added-noise background, from the noise density ``v`` at the
    ``_NOISE_PROBES`` offsets.

    With (center, gamma) pinned by the signal fit, symmetric probe pairs at
    0, 10 and 20 linewidths give three even-moment equations in (flat
    background, background curvature, Lorentzian height); interference
    terms odd about the peak cancel in the pair averages. The closed-form
    elimination below is exact for quadratic background + Lorentzian.
    """
    e0, e10, e20 = v[0], 0.5 * (v[1] + v[2]), 0.5 * (v[3] + v[4])
    return float((3.0 * e0 - 4.0 * e10 + e20) * (40501.0 / 120000.0))


# Lorentzian residual above which a sideband's thermal parametrization fails
_RESIDUAL_GATE = 0.05


def _sideband_fits(params, drive, chi, window, temps):
    """Lorentzian fits of the signal line in ``window``, one per bath
    temperature.

    Each temperature only applies its occupation factors to the window and
    fits the result. The noise probes and the signal peak of every fitted
    line are then evaluated in one response call. Returns, per temperature,
    (center, width, amplitude, noise-to-signal peak ratio, fit residual).
    """
    omega, kernel, lor_plus, lor_minus = window
    wp = params.omega_T + drive.delta_omega
    fits = [fit_lorentzian(omega, np.clip(
        _occupied(kernel, lor_plus, lor_minus, omega - wp, T), 0.0, None)) for T in temps]
    centers = np.array([fit[0] for fit in fits])
    widths = np.array([fit[1] for fit in fits])
    n_noise = _NOISE_PROBES.size * len(fits)
    probe = np.concatenate(
        [(centers[:, None] + widths[:, None] * _NOISE_PROBES).ravel(), centers])
    pt = _point(params, drive, chi)
    coeffs = response_coeffs(params, drive, chi, probe)
    noise = _noise_terms(params, pt, probe[:n_noise],
                         [c[:n_noise] for c in coeffs]).reshape(len(fits), -1)
    cavity, combo, pk_plus, pk_minus = _signal_terms(
        params, pt, centers, [c[n_noise:] for c in coeffs])
    pk_kernel = pt.prefactor * cavity * combo
    out = []
    for j, (T, (c_s, g_s, a_s, res_s)) in enumerate(zip(temps, fits)):
        s_pk = float(_occupied(pk_kernel[j], pk_plus[j], pk_minus[j], centers[j] - wp, T))
        out.append((c_s, g_s, a_s, _noise_peak_height(noise[j]) / s_pk, res_s))
    return out


def _resolve_drive(params, drive, frequency_pulling=True):
    """The bath-independent part of the +1 thermal parametrization at one
    drive: (chi, weak, window).

    chi is the fold-guarded small-branch mean field, weak flags a pole that
    the drive has not moved off the bare mechanical damping, and window
    holds the bath-independent factors of the signal density over +-5
    widths of the renormalized +1 pole (1601 points): (omega, prefactor *
    cavity * combo, lor_plus, lor_minus). Raises InstabilityError when
    that pole's damping is non-positive or the small branch has been lost,
    and OverflowError when the pole or the window kernel is not finite.
    """
    if frequency_pulling:
        chi = _select_for_thermo(params, drive).chi
    else:
        chi = mean_field(params, drive, frequency_pulling=False)[0].chi
    # stability probe: renormalized mechanical pole must stay in the lower
    # half plane
    pole = _determinant_zero(params, drive, chi)
    if not cmath.isfinite(pole):  # a huge K_d drives the secant to NaN
        raise OverflowError(f"the renormalized +1 pole {pole} is not finite")
    r_gamma_probe = -pole.imag / params.gamma_bm
    if r_gamma_probe <= 0.0:
        raise InstabilityError(
            f"net mechanical damping non-positive (R_gamma ~ {r_gamma_probe:.3g})")
    weak = abs(r_gamma_probe - 1.0) < 1e-9
    width = max(abs(pole.imag), 1e-3 * params.gamma_bm)
    omega = np.linspace(pole.real - 5.0 * width, pole.real + 5.0 * width, 1601)
    pt = _point(params, drive, chi)
    cavity, combo, lor_plus, lor_minus = _signal_terms(
        params, pt, omega, _alphas(pt, *_quotients(params, pt, omega)[:2]))
    kernel = pt.prefactor * cavity * combo
    if not np.isfinite(kernel).all():
        raise OverflowError("the signal window of the +1 pole is not finite")
    return chi, weak, (omega, kernel, lor_plus, lor_minus)


def _thermo_lines(params, drive, resolved, temps):
    """The +1 thermal parametrization of a ``_resolve_drive`` resolution at
    each bath temperature: an EffectiveThermo, or the NonLorentzianError of
    a line that fails the residual gate."""
    chi, weak, window = resolved
    wp = params.omega_T + drive.delta_omega
    gbm, wm = params.gamma_bm, params.omega_m
    out = []
    for T, (c_s, g_s, a_s, peak_ratio, residual) in zip(
            temps, _sideband_fits(params, drive, chi, window, temps)):
        if residual > _RESIDUAL_GATE:
            out.append(NonLorentzianError(
                f"Lorentzian residual {residual:.3g} exceeds gate {_RESIDUAL_GATE}",
                residual=residual))
            continue
        R_omega = (c_s - wp) / wm
        R_gamma = g_s / gbm
        occ_bath = 2.0 * bose_occupation(R_omega * wm, T) + 1.0  # 2 n_bath + 1
        gamma_back = (R_gamma - 1.0) * gbm
        if weak or gamma_back == 0.0:
            # no back-action damping to invert the noise peak with
            nb_plus = n_net = math.nan
        else:
            nb_plus = (peak_ratio * occ_bath * gbm / gamma_back - 1.0) / 2.0
            n_net = 0.5 * (occ_bath / R_gamma
                           + (1.0 - 1.0 / R_gamma) * (2.0 * nb_plus + 1.0) - 1.0)
        out.append(EffectiveThermo(
            R_omega=R_omega, R_gamma=R_gamma,
            G_plus=params.Z_p * a_s * g_s * (2.0 * params.mass * R_omega * wm)
            / (hbar * gbm * occ_bath),
            n_back_plus=nb_plus,
            n_net=n_net, lorentzian_residual=residual, chi=chi, weak_coupling=weak))
    return out


def effective_thermo(params: DetectorParams, drive: DrivePoint, bath_T: float = 0.0,
                     frequency_pulling: bool = True) -> EffectiveThermo:
    """Lorentzian parametrization of the phase-preserving (+1) sideband at
    one drive and one bath temperature.

    The drive fixes the mean field, the renormalized +1 pole and the
    bath-independent signal kernel; the bath temperature enters only
    through the occupation factors 2n + 1. R_omega, R_gamma and the gain
    come from a Lorentzian fit of the +1 signal spectrum over +-5 pole
    widths; the fit residual is the validity gate on the whole thermal
    parametrization. The back-action occupation inverts the noise
    parametrization at the fitted line center (where interference
    contributions odd about the peak vanish) after removing the broad
    added-noise background, probed out to +-20 linewidths. This is the
    one-temperature case of ``cooling_curve``'s per-drive resolution. The
    phase-conjugating (-1) line is not parametrized.

    Raises ValueError for a negative or non-finite bath temperature,
    InstabilityError when the renormalized mechanical damping is
    non-positive (or the low branch has been lost) and NonLorentzianError
    on a residual-gate failure.
    """
    _check_bath_T(bath_T)
    line, = _thermo_lines(params, drive,
                          _resolve_drive(params, drive, frequency_pulling), [bath_T])
    if isinstance(line, NonLorentzianError):
        raise line
    return line


def cooling_curve(params: DetectorParams, detuning: float, I_grid, bath_T_list):
    """Net mechanical occupation over a (drive current, bath temperature)
    grid, as a list of row dicts in drive-major order.

    Every bath temperature is checked before any drive is solved (ValueError
    for a negative or non-finite one). Each drive is then resolved once
    (mean field, +1 pole and signal window) and only the occupation
    factors, the fit and the inversion run per temperature, with the
    results of ``effective_thermo`` at that (drive, temperature). Rows
    failing a validity gate carry NaN and the failure reason; a drive that
    fails the stability gate fails it at every temperature.
    """
    temps = [float(T) for T in bath_T_list]
    for T in temps:
        _check_bath_T(T)
    rows = []
    for I0 in I_grid:
        drive = DrivePoint(I_0=float(I0), delta_omega=detuning)
        try:
            resolved = _resolve_drive(params, drive)
        except InstabilityError as exc:
            lines = [exc] * len(temps)
        else:
            lines = _thermo_lines(params, drive, resolved, temps)
        for T, line in zip(temps, lines):
            row = {"I_0": float(I0), "bath_T": T, "n_net": math.nan,
                   "R_omega": math.nan, "R_gamma": math.nan,
                   "n_back": math.nan, "residual": math.nan, "gate_failure": ""}
            if isinstance(line, EffectiveThermo):
                row.update(n_net=line.n_net, R_omega=line.R_omega,
                           R_gamma=line.R_gamma, n_back=line.n_back_plus,
                           residual=line.lorentzian_residual)
            else:
                row["gate_failure"] = type(line).__name__
            rows.append(row)
    return rows
