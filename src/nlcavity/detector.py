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
from .errors import NoBistabilityError, SingularFluxError
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


@dataclass(frozen=True)
class EffectiveThermo:
    """Thermal parametrization of the phase-preserving (+1) sideband at one
    (drive, bath temperature).

    R_omega and R_gamma are the fitted line center (offset from the pump,
    in omega_m) and width (in gamma_bm); G_plus is the detector gain,
    n_back_plus the back-action occupation and n_net the net mechanical
    occupation. chi is the mean field the drive was resolved at, so the
    band spectra of the same operating point need no second mean-field
    solve.

    gate names the per-point gate the line fails, "" for none:
    "InstabilityError" (non-positive net mechanical damping, or the small
    branch lost past the upper fold) and "NonLorentzianError" (the fit
    residual gate) leave NaN in every float field, chi included;
    "weak_coupling" (no back-action damping to invert the noise peak with)
    keeps the fit, with n_back_plus and n_net NaN.
    """

    R_omega: float
    R_gamma: float
    G_plus: float
    n_back_plus: float
    n_net: float
    lorentzian_residual: float
    chi: complex           # mean-field amplitude the response was resolved at
    gate: str = ""


def _failed(gate: str) -> EffectiveThermo:
    """The line of a gate that leaves no fit: NaN in every float field."""
    nan = math.nan
    return EffectiveThermo(nan, nan, nan, nan, nan, nan, complex(nan, nan), gate)


def zero_point(params: DetectorParams) -> float:
    """Zero-point displacement sqrt(hbar/(2 m omega_m)) in meters."""
    return math.sqrt(hbar / (2.0 * params.mass * params.omega_m))


def effective_duffing(params: DetectorParams) -> float:
    """K_eff = K_d - 2 w_T w_m K_Tm^2/(w_m^2 + gamma_bm^2): the Duffing
    constant plus the always-softening mechanically-induced term."""
    gbm = params.gamma_bm
    return params.K_d - 2.0 * params.omega_T * params.omega_m * params.K_Tm ** 2 \
        / (params.omega_m ** 2 + gbm ** 2)


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
    K = effective_duffing(params)

    if drive.I_0 == 0.0:
        return [MeanFieldSolution(chi=0j, E=0.0, branch="small")]

    if not frequency_pulling or K == 0.0:
        chi = linear_amplitude(params, drive)
        return [MeanFieldSolution(chi=chi, E=abs(chi) ** 2 / (2.0 * math.pi),
                                  branch="small")]

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
        sols.append(MeanFieldSolution(chi=chi, E=E, branch=branch))
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
    """(I_lower/I_bi, I_upper/I_bi) at detuning ratio r = d_omega/d_omega_bi;
    ValueError outside the bistable region r >= 1."""
    r = delta_omega_ratio
    if not r >= 1.0:  # NaN fails this test too
        raise ValueError(f"detuning ratio {r} outside the bistable region r >= 1")
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
    of the signal kernel. ``band_spectra`` and the detector sweep's
    post-fit kernel gather them into per-node arrays (``_table`` and
    ``_gathered``)."""

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


def _table(points) -> _Point:
    """The ``_Point`` factors of several operating points, one array per
    factor."""
    return _Point._make(np.array(column) for column in zip(*points))


def _gathered(table, owner) -> _Point:
    """Per-node ``_Point`` factors from a ``_table``: node k takes those of
    operating point owner[k] (an index array or a slice)."""
    return _Point._make(column[owner] for column in table)


def _response_terms(params, pt, omega):
    """(upper, lower, pull_w, cross_w, cross_m, determinant) of the 2x2
    response system at omega, with upper = 1 - pull_w. Plain arithmetic,
    so omega may be real or complex, scalar or array, and the ``_Point``
    factors scalars or arrays of omega's shape.
    The mechanical bracket at w' = 0 is the same at every node, so an array
    omega gets it formed on one zero node and broadcast; a scalar omega
    forms it from 0.0 * omega in scalar arithmetic.

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
    zero = np.zeros((1,) * omega.ndim) if isinstance(omega, np.ndarray) else 0.0 * omega
    shift = omega - wp
    mech_0 = 1.0 / (zero - wm + 1j * gbm) + 1.0 / (-zero - wm - 1j * gbm)
    mech_s = 1.0 / (shift - wm + 1j * gbm) + 1.0 / (-shift - wm - 1j * gbm)
    b_pref = (wT * params.K_Tm) ** 2 / (4.0 * math.pi)
    d_pref = wT * params.K_d / (2.0 * math.pi)
    # b(w, w') = (b_pref / cavity(w)) * mech(w'), d(w) = d_pref / cavity(w)
    b_cav_w, b_cav_m = b_pref / cavity_w, b_pref / cavity_m
    b_w_s, b_m_s = b_cav_w * mech_s, b_cav_m * mech_s
    d_w, d_m = d_pref / cavity_w, d_pref / cavity_m

    pull_w = 2.0 * pt.chi2 * (b_cav_w * mech_0 + b_w_s + d_w)
    upper = 1.0 - pull_w
    lower = 1.0 + 2.0 * pt.chi2 * (b_cav_m * mech_0 + b_m_s + d_m)
    cross_w = 2.0 * b_w_s + d_w
    cross_m = 2.0 * b_m_s + d_m
    det = upper * lower + pt.chi4 * cross_w * cross_m
    return upper, lower, pull_w, cross_w, cross_m, det


# relative size of a response determinant that warns of bifurcation proximity
_SINGULAR_TOL = 1e-14


def _coefficients(params, pt, omega, owner=None):
    """(alpha1, alpha2, beta1, beta2, pull_w, cross_m, determinant) of the
    response system at real omega, from the ``_Point`` factors; pull_w and
    cross_m are the ``_response_terms`` that give the noise density
    beta1 - 1 without cancellation. Warns when the determinant is within
    ``_SINGULAR_TOL`` of singular (bifurcation proximity): once, or, when
    ``owner`` labels each node with its operating point, once per operating
    point."""
    upper, lower, pull_w, cross_w, cross_m, det = _response_terms(params, pt, omega)

    near = np.abs(det) < _SINGULAR_TOL * (1.0 + np.abs(upper) + np.abs(lower))
    for _ in range(int(near.any()) if owner is None else len(set(owner[near].tolist()))):
        warnings.warn("response determinant nearly singular (bifurcation proximity)",
                      RuntimeWarning, stacklevel=3)
    beta1, ratio = lower / det, cross_w / det
    return (beta1 * pt.chi, -ratio * pt.chi2 * pt.chi, beta1, ratio * pt.chi_sq,
            pull_w, cross_m, det)


def _signal_terms(params, pt, omega, coeffs):
    """(cavity filter, |alpha1/c + alpha2/c * mirror-ratio|^2, bare
    mechanical Lorentzians at omega_p + omega_m and omega_p - omega_m) of
    the signal kernel, from the response coefficients at omega."""
    gpt, gbm, wm = params.gamma_pT, params.gamma_bm, params.omega_m
    dw = pt.dw
    wp = params.omega_T + dw
    shift = omega - wp
    x = shift + dw
    cavity = (omega / wp) * gpt ** 2 / (x ** 2 + gpt ** 2)
    a1, a2 = coeffs[:2]
    ratio = (x + 1j * gpt) / (shift - dw + 1j * gpt)
    combo = np.abs(a1 / pt.c + a2 / pt.c * ratio) ** 2
    lor_plus = 2.0 * gbm / ((shift - wm) ** 2 + gbm ** 2)
    lor_minus = 2.0 * gbm / ((-shift - wm) ** 2 + gbm ** 2)
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
    there.

    Its bracket |b1|^2 - Re b1 + (x/g_pT) Im b1 + mirror |b2|^2 subtracts
    terms of order one, since b1 -> 1 at small drive. It is formed from
    delta = b1 - 1 = b1 pull_w - b2 conj(chi^2) cross_m, which cancels
    nothing, as Re delta + |delta|^2 + (x/g_pT) Im delta + mirror |b2|^2."""
    gpt = params.gamma_pT
    dw = pt.dw
    wp = params.omega_T + dw
    b1, b2, pull_w, cross_m = coeffs[2:6]
    delta = b1 * pull_w - b2 * np.conj(pt.chi_sq) * cross_m
    shift = omega - wp
    x = shift + dw
    mirror_ratio = (x ** 2 + gpt ** 2) / ((shift - dw) ** 2 + gpt ** 2)
    bracket = (np.real(delta) + np.abs(delta) ** 2 + mirror_ratio * np.abs(b2) ** 2
               + x / gpt * np.imag(delta))
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
    table = _table(points)
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
            pt = _gathered(table, j[mine])
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

def _determinant_zero(params, pt):
    """Complex zero of the response determinant near omega_p + omega_m at
    the operating point with ``_Point`` pt: the renormalized mechanical pole
    of the +1 sideband. Stability requires Im(zero) < 0."""
    gbm, wm = params.gamma_bm, params.omega_m
    wp = params.omega_T + pt.dw
    pole = wp + wm - 1j * gbm

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


def _fold(params):
    """(E_bi, delta_omega_bi) of the fold guard, or None when params have no
    bistability."""
    try:
        E_bi, dw_bi, _ = bistability_onset(params)
    except NoBistabilityError:
        return None
    return E_bi, dw_bi


def _select_for_thermo(params, drive, fold, frequency_pulling):
    """(gate, chi) of the small-amplitude branch with a fold guard: inside
    the bistable detuning range, past the upper fold (where the small
    branch has merged with the unstable one and vanished) the stability
    gate "InstabilityError" fires, with chi None. fold is the ``_fold`` of
    params, or None for no guard."""
    sols = mean_field(params, drive, frequency_pulling)
    if fold is not None:
        E_bi, dw_bi = fold
        stable = [s for s in sols if s.branch != "unstable"]
        if drive.delta_omega / dw_bi >= 1.0 and len(stable) == 1 and stable[0].E > E_bi:
            return "InstabilityError", None
    return "", select_branch(sols).chi


# noise probe offsets from the fitted line center, in fitted linewidths
_NOISE_PROBES = np.array([0.0, -10.0, 10.0, -20.0, 20.0])


def _noise_peak_heights(v):
    """Peak heights of mechanical noise Lorentzians above the broad
    added-noise background, from each row of ``v``: one line's noise density
    at the ``_NOISE_PROBES`` offsets.

    With (center, gamma) pinned by the signal fit, symmetric probe pairs at
    0, 10 and 20 linewidths give three even-moment equations in (flat
    background, background curvature, Lorentzian height); interference
    terms odd about the peak cancel in the pair averages. The closed-form
    elimination below is exact for quadratic background + Lorentzian.
    """
    e0, e10, e20 = v[:, 0], 0.5 * (v[:, 1] + v[:, 2]), 0.5 * (v[:, 3] + v[:, 4])
    return (3.0 * e0 - 4.0 * e10 + e20) * (40501.0 / 120000.0)


# Lorentzian residual above which a sideband's thermal parametrization fails
_RESIDUAL_GATE = 0.05


def _resolve_drive(params, pt):
    """The bath-independent part of the +1 thermal parametrization at the
    drive with ``_Point`` pt: (gate, r_gamma_probe, window).

    r_gamma_probe is the renormalized +1 pole's damping in gamma_bm. gate
    is "InstabilityError", with window None, when that damping is
    non-positive, and "" otherwise; window then holds the bath-independent
    factors of the signal density over +-5 widths of the pole (1601
    points): (omega, prefactor * cavity * combo, lor_plus, lor_minus).
    Raises OverflowError when the pole or the window kernel is not finite.
    """
    # stability probe: renormalized mechanical pole must stay in the lower
    # half plane
    pole = _determinant_zero(params, pt)
    if not cmath.isfinite(pole):  # a huge K_d drives the secant to NaN
        raise OverflowError(f"the renormalized +1 pole {pole} is not finite")
    r_gamma_probe = -pole.imag / params.gamma_bm
    if r_gamma_probe <= 0.0:
        return "InstabilityError", r_gamma_probe, None
    width = max(abs(pole.imag), 1e-3 * params.gamma_bm)
    omega = np.linspace(pole.real - 5.0 * width, pole.real + 5.0 * width, 1601)
    cavity, combo, lor_plus, lor_minus = _signal_terms(
        params, pt, omega, _coefficients(params, pt, omega))
    kernel = pt.prefactor * cavity * combo
    if not np.isfinite(kernel).all():
        raise OverflowError("the signal window of the +1 pole is not finite")
    return "", r_gamma_probe, (omega, kernel, lor_plus, lor_minus)


def _peak_ratios(params, points, fits, temps):
    """Noise-to-signal peak ratio of every fitted line of a sweep, as a
    (drives, temperatures) array: fits[i][t] is the Lorentzian fit of the
    window of the resolved drive with ``_Point`` points[i] at bath
    temperature temps[t].

    The noise probes and the signal peak of every line run as one gathered
    response call on per-node ``_Point`` factors, as in ``band_spectra``, so
    each ratio equals that of a one-line sweep bit for bit; a nearly
    singular determinant warns once per drive. Only the occupation factors
    of the peaks run once per temperature.
    """
    shape = (len(points), len(temps))
    if not points:
        return np.empty(shape)
    table = _table(points)
    centers, widths = (np.array([[fit[k] for fit in row] for row in fits]).ravel()
                       for k in (0, 1))
    # the noise probes of every line, then every line center
    nodes = np.concatenate(
        [(centers[:, None] + widths[:, None] * _NOISE_PROBES).ravel(), centers])
    owner = np.repeat(np.arange(len(points)), len(temps))
    owner = np.concatenate([np.repeat(owner, _NOISE_PROBES.size), owner])
    pt = _gathered(table, owner)
    coeffs = _coefficients(params, pt, nodes, owner)
    probes, peaks = slice(0, -centers.size), slice(-centers.size, None)
    noise = _noise_terms(params, _gathered(pt, probes), nodes[probes],
                         [c[probes] for c in coeffs])
    peak = _gathered(pt, peaks)
    cavity, combo, lor_plus, lor_minus = _signal_terms(
        params, peak, centers, [c[peaks] for c in coeffs])
    kernel, lor_plus, lor_minus, x = (a.reshape(shape) for a in (
        peak.prefactor * cavity * combo, lor_plus, lor_minus,
        centers - (params.omega_T + peak.dw)))
    signal = np.empty(shape)
    for t, T in enumerate(temps):
        signal[:, t] = _occupied(kernel[:, t], lor_plus[:, t], lor_minus[:, t], x[:, t], T)
    return _noise_peak_heights(noise.reshape(-1, _NOISE_PROBES.size)).reshape(shape) / signal


def _thermo_line(params, wp, chi, r_gamma_probe, T, fit, peak_ratio):
    """The +1 thermal parametrization of one fitted line at bath
    temperature T, at the drive whose pole probe gave r_gamma_probe.

    The line fails "NonLorentzianError" when its fit residual exceeds
    ``_RESIDUAL_GATE``, and "weak_coupling" when the fit leaves no
    back-action damping to invert the noise peak with: the probe sits on
    the bare damping (|r_gamma_probe - 1| < 1e-9), or the fitted
    R_gamma - 1 is zero or of the other sign than the probe's, so that it
    is fit noise."""
    c_s, g_s, a_s, residual = fit
    if residual > _RESIDUAL_GATE:
        return _failed("NonLorentzianError")
    gbm, wm = params.gamma_bm, params.omega_m
    R_omega = (c_s - wp) / wm
    R_gamma = g_s / gbm
    occ_bath = 2.0 * bose_occupation(R_omega * wm, T) + 1.0  # 2 n_bath + 1
    gamma_back = (R_gamma - 1.0) * gbm
    weak = (abs(r_gamma_probe - 1.0) < 1e-9
            or (R_gamma - 1.0) * (r_gamma_probe - 1.0) <= 0.0)
    if weak:
        nb_plus = n_net = math.nan
    else:
        nb_plus = (peak_ratio * occ_bath * gbm / gamma_back - 1.0) / 2.0
        n_net = 0.5 * (occ_bath / R_gamma
                       + (1.0 - 1.0 / R_gamma) * (2.0 * nb_plus + 1.0) - 1.0)
    return EffectiveThermo(
        R_omega=R_omega, R_gamma=R_gamma,
        G_plus=params.Z_p * a_s * g_s * (2.0 * params.mass * R_omega * wm)
        / (hbar * gbm * occ_bath),
        n_back_plus=nb_plus,
        n_net=n_net, lorentzian_residual=residual, chi=chi,
        gate="weak_coupling" if weak else "")


def thermo_sweep(params: DetectorParams, detuning: float, I_grid, temps,
                 frequency_pulling: bool = True) -> list[list[EffectiveThermo]]:
    """Lorentzian parametrization of the phase-preserving (+1) sideband over
    a (drive current, bath temperature) grid at one pump detuning: per
    drive, a list of one EffectiveThermo per temperature, whose gate names
    the per-point gate the line fails.

    The drive fixes the mean field, the renormalized +1 pole and the
    bath-independent signal kernel; the bath temperature enters only
    through the occupation factors 2n + 1. R_omega, R_gamma and the gain
    come from a Lorentzian fit of the +1 signal spectrum over +-5 pole
    widths; the fit residual is the validity gate on the whole thermal
    parametrization. The back-action occupation inverts the noise
    parametrization at the fitted line center (where interference
    contributions odd about the peak vanish) after removing the broad
    added-noise background, probed out to +-20 linewidths. The
    phase-conjugating (-1) line is not parametrized.
    ``frequency_pulling=False`` drops the cubic term of the mean field
    (linear cavity response, no fold guard).

    Every temperature is checked before any drive is solved (ValueError for
    a negative or non-finite one). Each drive is then resolved once (mean
    field, +1 pole and signal window, with one ``bistability_onset`` for the
    fold guard of the whole sweep) and its window fitted at each
    temperature. A drive whose renormalized mechanical damping is
    non-positive, or whose small branch has been lost past the upper fold,
    fails the stability gate ("InstabilityError") at every temperature. The
    post-fit work of every line (noise probes, peak signal and occupation
    factors) runs once for the sweep in ``_peak_ratios``, and the inversion
    per line in ``_thermo_line``, so each line equals that of a one-drive,
    one-temperature sweep bit for bit.
    """
    temps = [float(T) for T in temps]
    for T in temps:
        _check_bath_T(T)
    fold = _fold(params) if frequency_pulling else None
    wp = params.omega_T + detuning
    drives = []  # per drive: (point, r_gamma_probe, fits), or None past the stability gate
    for I_0 in I_grid:
        drive = DrivePoint(I_0=float(I_0), delta_omega=detuning)
        gate, chi = _select_for_thermo(params, drive, fold, frequency_pulling)
        if not gate:
            pt = _point(params, drive, chi)
            gate, probe, window = _resolve_drive(params, pt)
        if gate:
            drives.append(None)
            continue
        omega, kernel, lor_plus, lor_minus = window
        x = omega - wp
        drives.append((pt, probe, [fit_lorentzian(omega, np.clip(
            _occupied(kernel, lor_plus, lor_minus, x, T), 0.0, None)) for T in temps]))
        del window, omega, kernel, lor_plus, lor_minus, x  # one window alive at a time
    resolved = [entry for entry in drives if entry is not None]
    ratios = iter(_peak_ratios(params, [pt for pt, _, _ in resolved],
                               [fits for _, _, fits in resolved], temps).tolist())
    lines = []
    for entry in drives:
        if entry is None:
            lines.append([_failed("InstabilityError")] * len(temps))
            continue
        pt, probe, fits = entry
        lines.append([_thermo_line(params, wp, pt.chi, probe, T, fit, ratio)
                      for T, fit, ratio in zip(temps, fits, next(ratios))])
    return lines
