import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcavity.detector import (
    DrivePoint,
    added_noise,
    band_spectra,
    bistability_boundary,
    bistability_onset,
    effective_duffing,
    linear_amplitude,
    mean_field,
    select_branch,
    thermo_sweep,
    zero_point,
    _coefficients,
    _point,
)
from nlcavity.errors import NoBistabilityError
from nlcavity.numerics import fit_lorentzian
from nlcavity.presets import PRESETS, build_detector_params
from oracles import noise_density, one_line, signal_density


@pytest.fixture(scope="module")
def params():
    return build_detector_params(PRESETS["ch2-detection"]["params"])


@pytest.fixture(scope="module")
def onset(params):
    return bistability_onset(params)


# --- constants ----------------------------------------------------------------

def test_zero_point_anchor(params):
    assert zero_point(params) == pytest.approx(1.45e-13, rel=0.01)


def test_zero_point_scaling(params):
    import dataclasses

    doubled = dataclasses.replace(params, mass=2 * params.mass)
    assert zero_point(doubled) == pytest.approx(zero_point(params) / math.sqrt(2),
                                                rel=1e-12)


def test_effective_duffing_anchor(params):
    K = effective_duffing(params)
    assert K == pytest.approx(-3.7025e-6, rel=1e-4)
    mech = K - (-3.4e-6)
    assert mech == pytest.approx(-3.025e-7, rel=1e-3)


def test_effective_duffing_limits(params):
    import dataclasses

    p0 = dataclasses.replace(params, K_Tm=0.0)
    assert effective_duffing(p0) == params.K_d
    gbm = params.gamma_bm
    cancel = 2 * params.omega_T * params.omega_m * params.K_Tm ** 2 \
        / (params.omega_m ** 2 + gbm ** 2)
    p1 = dataclasses.replace(params, K_d=cancel)
    assert effective_duffing(p1) == pytest.approx(0.0, abs=1e-18)


def test_validity_gates_margin(params, onset):
    gates = params.validity_gates(onset[2])
    for value in gates.values():
        assert value < 0.2  # margin factor >= 5


# --- mean field -----------------------------------------------------------------

def test_mean_field_small_drive_linear(params, onset):
    drive = DrivePoint(I_0=1e-3 * onset[2], delta_omega=0.0)
    sols = mean_field(params, drive)
    assert len(sols) == 1
    c = linear_amplitude(params, drive)
    assert sols[0].chi == pytest.approx(c, rel=1e-5)


def test_mean_field_residual_invariant(params, onset):
    # every root chi solves the mean-field equation
    # (w_T - w_p - i g_pT) chi + (w_T/2pi) K_eff chi|chi|^2 = source,
    # source = sqrt(2 pi I0^2 Z_p g_pT / (hbar w_p)), to 1e-9 of the source
    from nlcavity.constants import hbar

    _, dw_bi, I_bi = onset
    K = effective_duffing(params)
    gpt = params.gamma_pT
    rng = [(0.3, 0.0), (0.8, 0.5 * dw_bi), (1.2, 1.3 * dw_bi), (0.9, -2 * dw_bi)]
    for ratio, dw in rng:
        I_0 = ratio * I_bi
        source = math.sqrt(2 * math.pi * I_0 ** 2 * params.Z_p * gpt
                           / (hbar * (params.omega_T + dw)))
        sols = mean_field(params, DrivePoint(I_0=I_0, delta_omega=dw))
        assert sols
        for sol in sols:
            chi = sol.chi
            lhs = (-dw - 1j * gpt) * chi \
                + params.omega_T / (2 * math.pi) * K * chi * abs(chi) ** 2
            assert abs(lhs - source) < 1e-9 * source


def test_mean_field_onset_double_root(params, onset):
    E_bi, dw_bi, I_bi = onset
    sols = mean_field(params, DrivePoint(I_0=I_bi, delta_omega=dw_bi))
    assert len(sols) <= 2
    assert min(abs(s.E - E_bi) for s in sols) < 1e-2 * E_bi
    # discriminant of the cubic nearly vanishes at onset
    assert E_bi == pytest.approx(2 * params.gamma_pT
                                 / (math.sqrt(3) * params.omega_T
                                    * abs(effective_duffing(params))), rel=1e-12)


def test_mean_field_three_roots_inside(params, onset):
    _, dw_bi, I_bi = onset
    sols = mean_field(params, DrivePoint(I_0=1.23 * I_bi, delta_omega=1.3 * dw_bi))
    assert [s.branch for s in sols] == ["small", "unstable", "large"]
    assert sols[0].E < sols[1].E < sols[2].E


def test_mean_field_zero_drive(params):
    sols = mean_field(params, DrivePoint(I_0=0.0, delta_omega=0.0))
    assert sols[0].E == 0.0


def test_mean_field_no_pulling(params, onset):
    drive = DrivePoint(I_0=0.8 * onset[2], delta_omega=onset[1])
    sol = mean_field(params, drive, frequency_pulling=False)[0]
    assert sol.chi == pytest.approx(linear_amplitude(params, drive), rel=1e-12)


# --- bistability ------------------------------------------------------------------

def test_onset_values(params, onset):
    E_bi, dw_bi, I_bi = onset
    assert dw_bi == pytest.approx(-9.069e7, rel=1e-3)
    assert I_bi == pytest.approx(4.9e-8, rel=0.01)
    assert E_bi == pytest.approx(519.78, rel=1e-3)


def test_onset_sign_rule(params):
    import dataclasses

    hardened = dataclasses.replace(params, K_d=+3.4e-6)
    _, dw_bi, _ = bistability_onset(hardened)
    assert dw_bi > 0.0


def test_onset_requires_nonlinearity(params):
    import dataclasses

    p = dataclasses.replace(params, K_d=0.0, K_Tm=0.0)
    with pytest.raises(NoBistabilityError):
        bistability_onset(p)


def test_boundary_cusp(params):
    low, up = bistability_boundary(params, 1.0)
    assert low == pytest.approx(1.0, abs=1e-12)
    assert up == pytest.approx(1.0, abs=1e-12)


def test_boundary_outside_region(params):
    with pytest.raises(ValueError, match="outside the bistable region"):
        bistability_boundary(params, 0.9)


def test_boundary_widens(params):
    l2, u2 = bistability_boundary(params, 2.0)
    l5, u5 = bistability_boundary(params, 5.0)
    assert u5 - l5 > u2 - l2
    assert u5 > u2


def test_boundary_vs_root_count_scan(params, onset):
    # closed form vs the 1 <-> 3 root-count transition of the cubic
    _, dw_bi, I_bi = onset
    ratio = 2.0
    low, up = bistability_boundary(params, ratio)
    dw = ratio * dw_bi
    for target, direction in ((low, +1), (up, -1)):
        inside = mean_field(params, DrivePoint(
            I_0=(target + direction * 0.01) * I_bi, delta_omega=dw))
        outside = mean_field(params, DrivePoint(
            I_0=(target - direction * 0.01) * I_bi, delta_omega=dw))
        assert len(inside) == 3
        assert len(outside) == 1


# --- response coefficients -----------------------------------------------------------

def test_alpha_beta_small_drive_limits(params, onset):
    drive = DrivePoint(I_0=1e-3 * onset[2], delta_omega=0.0)
    chi = mean_field(params, drive)[0].chi
    c = linear_amplitude(params, drive)
    w = params.omega_T + np.linspace(-2, 2, 9) * params.omega_m
    a1, a2, b1, b2, *_ = _coefficients(params, _point(params, drive, chi), w)
    assert np.max(np.abs(a1 / c - 1.0)) < 1e-3
    assert np.max(np.abs(a2 / c)) < 1e-3
    assert np.max(np.abs(b1 - 1.0)) < 1e-3
    assert np.max(np.abs(b2)) < 1e-3


def test_beta_at_zero_chi(params):
    drive = DrivePoint(I_0=0.0, delta_omega=0.0)
    w = np.array([params.omega_T + 0.3 * params.omega_m])
    _, _, b1, b2, *_, det = _coefficients(params, _point(params, drive, 0j), w)
    assert b1[0] == pytest.approx(1.0)
    assert b2[0] == 0.0
    assert det[0] == pytest.approx(1.0)


def test_determinant_vs_linear_solve_oracle(params, onset):
    # reconstruct alpha1/alpha2 by directly inverting the 2x2 linear system
    from nlcavity.detector import _response_terms
    from oracles import b_func, d_func

    K_Tm, K_d = params.K_Tm, params.K_d
    _, dw_bi, I_bi = onset
    drive = DrivePoint(I_0=0.7 * I_bi, delta_omega=0.4 * abs(dw_bi))
    chi = select_branch(mean_field(params, drive)).chi
    dw = drive.delta_omega
    wp = params.omega_T + dw
    wm, gbm = params.omega_m, params.gamma_bm
    # complex omega near the sideband poles is where the pole search runs
    for w in (wp + 1.001 * wm, wp - 0.98 * wm, wp + wm - 0.5j * gbm, wp - wm - 0.5j * gbm):
        chi2 = abs(chi) ** 2
        mirror = w - 2 * dw
        b_w0 = b_func(w, 0.0, params, K_Tm)
        b_ws = b_func(w, w - wp, params, K_Tm)
        b_m0 = b_func(mirror, 0.0, params, K_Tm)
        b_ms = b_func(mirror, w - wp, params, K_Tm)
        d_w = d_func(w, params, K_d)
        d_m = d_func(mirror, params, K_d)
        # rows: [upper, -chi^2 cross_w; chi*^2 cross_m, lower]
        M = np.array([
            [1.0 - 2 * chi2 * (b_w0 + b_ws + d_w), -chi ** 2 * (2 * b_ws + d_w)],
            [np.conj(chi) ** 2 * (2 * b_ms + d_m),
             1.0 + 2 * chi2 * (b_m0 + b_ms + d_m)],
        ])
        # the shared kernel against the direct 2x2 determinant
        assert _response_terms(params, _point(params, drive, chi), w)[-1] == pytest.approx(
            np.linalg.det(M), rel=1e-10)
        if isinstance(w, complex):
            continue
        rhs = np.array([chi, -np.conj(chi)])
        sol = np.linalg.solve(M, rhs)  # response to unit signal sources
        a1, a2, *_, det = _coefficients(params, _point(params, drive, chi),
                                        np.array([w]))
        # with both source kernels set to one, a_T^(1) = alpha1 + alpha2
        assert a1[0] + a2[0] == pytest.approx(sol[0], rel=1e-10)
        # determinant identity against the direct 2x2 determinant
        assert det[0] == pytest.approx(np.linalg.det(M), rel=1e-10)


def _assert_same_bits(new, ref):
    """``new`` and ``ref`` have one type, dtype and shape, and equal IEEE
    bits in every real and imaginary part."""
    assert type(new) is type(ref)
    new, ref = np.atleast_1d(new), np.atleast_1d(ref)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))


def _assert_response_terms_match_oracle(params, pt, omega):
    from nlcavity.detector import _response_terms
    from oracles import response_terms_reference

    for new, ref in zip(_response_terms(params, pt, omega),
                        response_terms_reference(params, pt, omega), strict=True):
        _assert_same_bits(new, ref)


@pytest.mark.parametrize("preset", ["ch2-detection", "ch2-cooling-Q1e4",
                                    "ch2-goodcavity-Q1000"])
def test_response_terms_match_oracle_bitwise(preset):
    # the shared-factor kernel against one b/d closed form per coefficient:
    # on each resolved 1601-point window, with scalar and with gathered
    # per-node _Point factors (as band_spectra passes them), on complex
    # omega around both sideband poles (the pole search's domain), and on
    # Python scalars, real and complex
    from nlcavity.detector import _Point, _resolve_drive

    preset_params = build_detector_params(PRESETS[preset]["params"])
    grid = PRESETS[preset]["grid"]
    _, dw_bi, I_bi = bistability_onset(preset_params)
    ratio = float(grid.get("detuning_ratio", "0.2"))  # ch2-detection: 0, 0.2, 0.4
    wm, gbm = preset_params.omega_m, preset_params.gamma_bm
    for drive_ratio in np.linspace(float(grid["drive_min_ratio"]),
                                   float(grid["drive_max_ratio"]), 4):
        drive = DrivePoint(I_0=float(drive_ratio * I_bi), delta_omega=ratio * dw_bi)
        pt = _point(preset_params, drive, select_branch(mean_field(preset_params, drive)).chi)
        _, _, (omega, *_) = _resolve_drive(preset_params, pt)
        _assert_response_terms_match_oracle(preset_params, pt, omega)
        gathered = _Point._make(np.full(omega.shape, v) for v in pt)
        _assert_response_terms_match_oracle(preset_params, gathered, omega)

        wp = preset_params.omega_T + drive.delta_omega
        offsets = np.linspace(-3.0, 3.0, 7)
        near = (offsets[:, None] + 1j * (offsets[None, :] - 1.0)).ravel() * gbm
        poles = np.concatenate([wp + wm + near, wp - wm + near])
        _assert_response_terms_match_oracle(preset_params, pt, poles)
        for w in [complex(z) for z in poles[::5]] + [float(x) for x in omega[::400]]:
            _assert_response_terms_match_oracle(preset_params, pt, w)


# --- spectra ---------------------------------------------------------------------------

def one_point(params, drive, chi, ws, band, bath_T=0.0):
    """(signal, noise, caves) of one operating point from the band kernel."""
    return tuple(float(v[0]) for v in band_spectra(
        params, drive.delta_omega, [drive.I_0], [chi], [ws], [band], bath_T))


def test_signal_zero_coupling(params, onset):
    import dataclasses

    p = dataclasses.replace(params, K_Tm=0.0)
    drive = DrivePoint(I_0=0.5 * onset[2], delta_omega=0.0)
    chi = select_branch(mean_field(p, drive)).chi
    ws = p.omega_T + p.omega_m
    assert one_point(p, drive, chi, ws, 4 * p.gamma_bm)[0] == 0.0


def test_signal_two_peaks_small_drive(params, onset):
    drive = DrivePoint(I_0=1e-3 * onset[2], delta_omega=0.0)
    chi = mean_field(params, drive)[0].chi
    wp = params.omega_T
    w = np.linspace(wp - 2 * params.omega_m, wp + 2 * params.omega_m, 4001)
    dens = signal_density(params, drive, chi, w, 0.0)
    # peaks at wp +- wm
    ipk = np.argsort(dens)[-2:]
    centers = np.sort(w[ipk])
    assert centers[0] == pytest.approx(wp - params.omega_m, abs=3 * (w[1] - w[0]))
    assert centers[1] == pytest.approx(wp + params.omega_m, abs=3 * (w[1] - w[0]))


def test_thermal_signal_density_matches_scalar_occupations(params, onset):
    # the vectorised occupation factor against per-frequency bose_occupation
    from nlcavity.qinfo import bose_occupation

    drive = DrivePoint(I_0=0.2 * onset[2], delta_omega=0.0)
    chi = mean_field(params, drive)[0].chi
    wp, wm, gbm = params.omega_T, params.omega_m, params.gamma_bm
    w = np.linspace(wp - 2 * wm, wp + 2 * wm, 4000)  # even count: omega != wp
    lor_plus = 2.0 * gbm / ((w - wp - wm) ** 2 + gbm ** 2)
    lor_minus = 2.0 * gbm / ((wp - w - wm) ** 2 + gbm ** 2)
    bath_T = 0.05
    occ_plus = np.array([2.0 * bose_occupation(abs(x), bath_T) + 1.0 for x in w - wp])
    occ_minus = np.array([2.0 * bose_occupation(abs(x), bath_T) + 1.0 for x in wp - w])
    expected = signal_density(params, drive, chi, w, 0.0) \
        * (lor_plus * occ_plus + lor_minus * occ_minus) / (lor_plus + lor_minus)
    got = signal_density(params, drive, chi, w, bath_T)
    assert np.all(occ_plus > 1.0)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


def test_signal_adaptive_vs_fixed_grid(params, onset):
    drive = DrivePoint(I_0=0.2 * onset[2], delta_omega=0.0)
    chi = select_branch(mean_field(params, drive)).chi
    th = one_line(params, drive)
    ws = params.omega_T + th.R_omega * params.omega_m
    band = 2 * th.R_gamma * params.gamma_bm
    adaptive, _, _ = one_point(params, drive, chi, ws, band)
    w = np.linspace(ws - band / 2, ws + band / 2, 60_001)
    fixed = np.trapezoid(signal_density(params, drive, chi, w, 0.0), w)
    assert adaptive == pytest.approx(fixed, rel=1e-6)


def test_noise_reduces_to_added(params, onset):
    import dataclasses

    p = dataclasses.replace(params, K_Tm=0.0, K_d=0.0)
    drive = DrivePoint(I_0=0.5 * onset[2], delta_omega=0.0)
    chi = select_branch(mean_field(p, drive)).chi
    ws = p.omega_T + p.omega_m
    band = 4 * p.gamma_bm
    assert one_point(p, drive, chi, ws, band)[1] == pytest.approx(
        added_noise(p, ws, band), rel=1e-12)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
@pytest.mark.parametrize("drive_ratio", [1e-6, 1e-3, 0.3])
def test_noise_bracket_matches_long_double_direct_form(params, onset, drive_ratio):
    # the direct bracket |b1|^2 - Re b1 + (x/g_pT) Im b1 + mirror |b2|^2,
    # from the oracle response terms in long double, against the package's
    # float64 bracket from delta = b1 - 1; in float64 the direct form loses
    # ~1.8e-6 of the peak at 1e-6 I_bi to the cancelling order-one terms
    from nlcavity.constants import hbar
    from oracles import response_terms_reference

    _, dw_bi, I_bi = onset
    drive = DrivePoint(I_0=drive_ratio * I_bi, delta_omega=0.2 * dw_bi)
    chi = select_branch(mean_field(params, drive)).chi
    pt = _point(params, drive, chi)
    gpt, wp = params.gamma_pT, params.omega_T + drive.delta_omega
    w = wp + np.linspace(0.9, 1.1, 11) * params.omega_m
    wl = w.astype(np.longdouble)
    _, lower, _, cross_w, _, det = response_terms_reference(params, pt, wl)
    b1, b2 = lower / det, cross_w / det * pt.chi_sq
    x = wl - params.omega_T
    mirror = (x ** 2 + gpt ** 2) / ((wl - wp - drive.delta_omega) ** 2 + gpt ** 2)
    bracket = np.abs(b1) ** 2 - b1.real + x / gpt * b1.imag + mirror * np.abs(b2) ** 2
    ref = (hbar * wl / params.Z_p) * 2.0 * gpt ** 2 / (x ** 2 + gpt ** 2) \
        * bracket / (2.0 * math.pi)
    err = np.max(np.abs(noise_density(params, drive, chi, w) - ref))
    assert err <= 1e-8 * np.max(np.abs(ref))


def test_caves_small_drive_is_added(params, onset):
    drive = DrivePoint(I_0=1e-5 * onset[2], delta_omega=0.0)
    chi = select_branch(mean_field(params, drive)).chi
    ws = params.omega_T + params.omega_m
    band = 4 * params.gamma_bm
    assert one_point(params, drive, chi, ws, band)[2] == pytest.approx(
        added_noise(params, ws, band), rel=1e-3)


def test_noise_at_least_caves_sampled(params, onset):
    _, dw_bi, I_bi = onset
    for ratio, dwf in [(0.1, 0.0), (0.25, 0.0), (0.05, 0.4), (0.12, 0.4), (0.1, 0.2)]:
        drive = DrivePoint(I_0=ratio * I_bi, delta_omega=dwf * abs(dw_bi))
        th = one_line(params, drive)
        ws = params.omega_T + drive.delta_omega + th.R_omega * params.omega_m
        band = 2 * th.R_gamma * params.gamma_bm
        _, noi, cav = one_point(params, drive, th.chi, ws, band)
        assert noi >= cav * (1.0 - 1e-9)


def test_caves_ratio_one_at_large_gain(params, onset):
    _, dw_bi, I_bi = onset
    drive = DrivePoint(I_0=0.15 * I_bi, delta_omega=0.4 * abs(dw_bi))
    th = one_line(params, drive)
    ws = params.omega_T + drive.delta_omega + th.R_omega * params.omega_m
    band = 2 * th.R_gamma * params.gamma_bm
    sig, _, cav = one_point(params, drive, th.chi, ws, band)
    assert cav / sig == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("bath_T", [0.0, 0.05])
def test_band_spectra_curve_matches_one_point_calls(params, onset, bath_T):
    # one detuning curve through one kernel call: every entry is the
    # one-point call bit for bit, whatever the other points of the curve,
    # and the signal and noise are the scalar integrals of the densities
    from nlcavity.detector import _BAND_TOL
    from nlcavity.numerics import integrate_adaptive

    _, dw_bi, I_bi = onset
    dw = 0.2 * abs(dw_bi)
    I_0s, chis, centres, bands = [], [], [], []
    for ratio in np.linspace(0.02, 0.15, 7):
        drive = DrivePoint(I_0=float(ratio) * I_bi, delta_omega=dw)
        th = one_line(params, drive, bath_T=bath_T)
        I_0s.append(drive.I_0)
        chis.append(th.chi)
        centres.append(params.omega_T + dw + th.R_omega * params.omega_m)
        bands.append(2.0 * th.R_gamma * params.gamma_bm)
    curve = band_spectra(params, dw, I_0s, chis, centres, bands, bath_T)
    assert all(v.shape == (7,) for v in curve)
    for j in range(7):
        drive = DrivePoint(I_0=I_0s[j], delta_omega=dw)
        single = one_point(params, drive, chis[j], centres[j], bands[j], bath_T)
        assert single == tuple(float(v[j]) for v in curve)
        assert single[1] >= single[2] * (1.0 - 1e-9)
        lo, hi = centres[j] - bands[j] / 2.0, centres[j] + bands[j] / 2.0
        assert single[0] == integrate_adaptive(
            lambda w, _: signal_density(params, drive, chis[j], w, bath_T), lo, hi, _BAND_TOL)
        assert single[1] == integrate_adaptive(
            lambda w, _: noise_density(params, drive, chis[j], w), lo, hi, _BAND_TOL) \
            + added_noise(params, centres[j], bands[j])
    # a curve with no points left (all gated) has empty spectra
    empty = band_spectra(params, dw, [], [], [], [], bath_T)
    assert [(v.shape, v.dtype) for v in empty] == [((0,), np.float64)] * 3


# ch2-detection operating points (detuning ratio, drive over I_bi): the
# first is the preset's 24th drive on the zero-detuning curve, where node
# round-off moves a two-panel split of the band by 2.8e-8
BAND_ORACLE_POINTS = [(0.0, 0.01 + 23 * 0.31 / 29), (0.2, 0.1), (0.4, 0.03)]


# quad reports the node round-off of the first point as a round-off warning
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("ratio, drive_ratio", BAND_ORACLE_POINTS)
def test_band_spectra_match_scipy_quad(params, onset, ratio, drive_ratio):
    # the signal and noise band integrals against QUADPACK's adaptive
    # qags at epsrel 1e-12. Bound: rel_tol 1e-8 plus the node round-off of
    # a density of absolute omega, eps*omega/band (each node moves by up to
    # an ulp of omega ~ 3e10 rad/s across a band of ~80 rad/s), which both
    # quadratures carry
    from scipy.integrate import quad

    _, dw_bi, I_bi = onset
    dw = ratio * abs(dw_bi)
    drive = DrivePoint(I_0=drive_ratio * I_bi, delta_omega=dw)
    th = one_line(params, drive)
    ws = params.omega_T + dw + th.R_omega * params.omega_m
    band = 2.0 * th.R_gamma * params.gamma_bm
    signal, noise, _ = band_spectra(params, dw, [drive.I_0], [th.chi], [ws], [band])
    lo, hi = ws - band / 2.0, ws + band / 2.0
    rel = 1e-8 + np.finfo(float).eps * hi / band
    for got, density in ((signal[0], signal_density),
                         (noise[0] - added_noise(params, ws, band), noise_density)):
        exact, _ = quad(lambda w: float(density(params, drive, th.chi, w)), lo, hi,
                        epsabs=0.0, epsrel=1e-12, limit=200)
        assert abs(got - exact) <= rel * abs(exact)


@pytest.mark.parametrize("bath_T", [-0.01, math.nan, math.inf])
def test_band_spectra_rejects_bad_bath_T(params, onset, bath_T):
    drive = DrivePoint(I_0=0.1 * onset[2], delta_omega=0.0)
    chi = select_branch(mean_field(params, drive)).chi
    with pytest.raises(ValueError, match="bath temperature"):
        one_point(params, drive, chi, params.omega_T + params.omega_m,
                  4 * params.gamma_bm, bath_T)


def test_all_gated_curve_skips_the_band_kernel(tmp_path, monkeypatch):
    # every drive of every curve is past the stability gate: no kernel call,
    # NaN spectra in every row and one manifest warning per row
    import json

    from nlcavity import cli, detector

    calls = []
    monkeypatch.setattr(detector, "band_spectra",
                        lambda *args: calls.append(args) or band_spectra(*args))
    cfg = cli.config_from_preset("ch2-detection", tmp_path)
    cfg.grid.update(drive_min_ratio="0.3", drive_max_ratio="0.32", drive_points="3")
    assert cli.run(cfg) == cli.EXIT_OK
    assert calls == []
    rows = [line.split(",") for line in
            (tmp_path / "ch2-detection_signal_noise.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4 * 3
    warnings_ = json.loads((tmp_path / "ch2-detection_manifest.json").read_text())["warnings"]
    assert len(warnings_) == len(rows)
    for row in rows:
        assert row[-1] == "InstabilityError"
        assert all(math.isnan(float(cell)) for cell in row[4:12])
        label, r, x = row[1], float(row[2]), float(row[0])
        assert warnings_.count(
            f"{label} detuning {r}: drive {x:.3f} I_bi failed InstabilityError") == 1


# --- effective thermometry ----------------------------------------------------------

def test_thermo_weak_coupling_flag(params, onset):
    drive = DrivePoint(I_0=1e-5 * onset[2], delta_omega=0.0)
    th = one_line(params, drive)
    assert th.gate == "weak_coupling"
    assert th.R_omega == pytest.approx(1.0, abs=1e-6)
    assert th.R_gamma == pytest.approx(1.0, abs=1e-6)
    assert math.isnan(th.n_back_plus)


@pytest.fixture(scope="module")
def cooling_params():
    return build_detector_params(PRESETS["ch2-cooling-Q1e4"]["params"])


def test_thermo_red_detuned_cooling_trend(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    occ = []
    for ratio in (0.4, 0.8, 1.1, 1.2):
        th = one_line(cooling_params, DrivePoint(I_0=ratio * I_bi, delta_omega=1.3 * dw_bi))
        assert th.R_gamma > 1.0  # red detuning damps
        occ.append(2 * th.n_back_plus + 1)
    assert occ[-1] < occ[0]  # occupation falls approaching the boundary


def test_thermo_fit_matches_determinant_probe(cooling_params):
    from nlcavity.detector import _determinant_zero

    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drive = DrivePoint(I_0=0.9 * I_bi, delta_omega=1.3 * dw_bi)
    th = one_line(cooling_params, drive)
    chi = select_branch(mean_field(cooling_params, drive)).chi
    pole = _determinant_zero(cooling_params, _point(cooling_params, drive, chi))
    wp = cooling_params.omega_T + drive.delta_omega
    assert th.R_omega == pytest.approx((pole.real - wp) / cooling_params.omega_m,
                                       abs=1e-4)
    assert th.R_gamma == pytest.approx(-pole.imag / cooling_params.gamma_bm,
                                       rel=1e-2)


def test_thermo_instability_on_blue_side(params, onset):
    _, dw_bi, I_bi = onset
    drive = DrivePoint(I_0=0.5 * I_bi, delta_omega=0.4 * abs(dw_bi))
    assert one_line(params, drive).gate == "InstabilityError"


def test_thermo_branch_lost_past_fold(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drive = DrivePoint(I_0=1.2912 * I_bi, delta_omega=1.3 * dw_bi)
    assert one_line(cooling_params, drive).gate == "InstabilityError"


def test_failed_lines_are_nan_in_every_float_field(cooling_params):
    # the preset's last drive fails the residual gate and the past-fold one
    # the stability gate: neither keeps a fit, so every float field of
    # their lines is NaN, chi included; a passing line has none
    import dataclasses

    _, dw_bi, I_bi = bistability_onset(cooling_params)
    lines = thermo_sweep(cooling_params, 1.3 * dw_bi,
                         [0.5 * I_bi, 1.28 * I_bi, 1.2912 * I_bi], [0.0, 0.05])
    gates = [[th.gate for th in drive_lines] for drive_lines in lines]
    assert gates == [["", ""], ["NonLorentzianError"] * 2, ["InstabilityError"] * 2]
    for drive_lines in lines:
        for th in drive_lines:
            values = [getattr(th, f.name) for f in dataclasses.fields(th)
                      if f.name != "gate"]
            assert len(values) == 7
            parts = [part for v in values
                     for part in ((v.real, v.imag) if isinstance(v, complex) else (v,))]
            assert len(parts) == 8
            if th.gate:
                assert all(math.isnan(part) for part in parts)
            else:
                assert all(math.isfinite(part) for part in parts)


def test_nnet_formula_limits():
    # Eq-level algebra: T=0 bath and n_back=0 give n_net=0; R_gamma -> inf
    # pins n_net at n_back
    def nnet(R_gamma, occ_bath, occ_back):
        return 0.5 * (occ_bath / R_gamma + (1 - 1 / R_gamma) * occ_back - 1)

    assert nnet(5.0, 1.0, 1.0) == pytest.approx(0.0)
    assert nnet(1e9, 1.0, 2 * 3.0 + 1) == pytest.approx(3.0, abs=1e-6)


def test_cooling_curve_rows_and_failures(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    lines = thermo_sweep(cooling_params, 1.3 * dw_bi,
                         [0.5 * I_bi, 1.2 * I_bi, 1.2912 * I_bi], [0.0, 0.05])
    assert [len(drive_lines) for drive_lines in lines] == [2, 2, 2]
    # the past-fold drive fails at both temperatures
    assert all(th.gate == "InstabilityError" for th in lines[-1])
    for cold, hot in lines[:-1]:
        assert cold.gate == hot.gate == ""
        assert hot.n_net > cold.n_net  # hotter bath, higher n_net


def test_lorentzian_gate_holds_away_from_boundaries(cooling_params):
    # gamma_bm << gamma_pT here; any drive >= 5% (of I_bi) away from the
    # bistable boundaries must pass the residual gate
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    low, up = bistability_boundary(cooling_params, 1.3)
    for ratio in (0.3, 0.7, 1.0, low - 0.05, (low + up) / 2, up - 0.05):
        th = one_line(cooling_params, DrivePoint(I_0=ratio * I_bi, delta_omega=1.3 * dw_bi))
        assert th.lorentzian_residual < 0.05


def test_thermo_gain_positive(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drive = DrivePoint(I_0=0.8 * I_bi, delta_omega=1.3 * dw_bi)
    th = one_line(cooling_params, drive)
    assert th.G_plus > 0.0


def test_thermo_fits_one_sideband(cooling_params, monkeypatch):
    import nlcavity.detector as det

    calls = {"fit": 0, "pole": 0}
    fit, pole = det.fit_lorentzian, det._determinant_zero

    def counted_fit(*args):
        calls["fit"] += 1
        return fit(*args)

    def counted_pole(*args, **kwargs):
        calls["pole"] += 1
        return pole(*args, **kwargs)

    monkeypatch.setattr(det, "fit_lorentzian", counted_fit)
    monkeypatch.setattr(det, "_determinant_zero", counted_pole)
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    one_line(cooling_params, DrivePoint(I_0=0.8 * I_bi, delta_omega=1.3 * dw_bi))
    assert calls == {"fit": 1, "pole": 1}


COOL_TEMPS = [0.0, 0.001, 0.01, 0.05, 0.1]


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_cooling_curve_resolves_each_drive_once(cooling_params, monkeypatch):
    import nlcavity.detector as det

    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drives = [0.5 * I_bi, 1.2 * I_bi, 1.2912 * I_bi]  # the last is past the fold
    calls = _count_calls(monkeypatch, det, ("mean_field", "_determinant_zero",
                                            "fit_lorentzian", "_coefficients"))
    lines = det.thermo_sweep(cooling_params, 1.3 * dw_bi, drives, COOL_TEMPS)
    assert [len(drive_lines) for drive_lines in lines] == [len(COOL_TEMPS)] * len(drives)
    assert all(th.gate == "InstabilityError" for th in lines[-1])
    assert all(th.gate == "" for th in lines[0] + lines[1])
    resolved = len(drives) - 1
    assert calls["mean_field"] == len(drives)
    assert calls["_determinant_zero"] == resolved  # the fold guard fires first
    assert calls["fit_lorentzian"] == resolved * len(COOL_TEMPS)
    # one signal window per resolved drive, one gathered post-fit call
    assert calls["_coefficients"] == resolved + 1

    # every line is the single-point parametrization at its (drive, T), bit for bit
    for I_0, drive_lines in zip(drives, lines):
        drive = DrivePoint(I_0=I_0, delta_omega=1.3 * dw_bi)
        for T, line in zip(COOL_TEMPS, drive_lines):
            assert _line_bits(line) == _line_bits(one_line(cooling_params, drive, T)), \
                (I_0, T)


@pytest.mark.parametrize("bad_T", [-1e-3, math.nan, math.inf])
def test_cooling_curve_rejects_bad_bath_T_before_solving(cooling_params, monkeypatch,
                                                        bad_T):
    import nlcavity.detector as det

    _, dw_bi, I_bi = bistability_onset(cooling_params)
    calls = _count_calls(monkeypatch, det, ("mean_field",))
    with pytest.raises(ValueError, match="bath temperature"):
        det.thermo_sweep(cooling_params, 1.3 * dw_bi, [0.5 * I_bi, 0.8 * I_bi],
                         [0.0, 0.05, bad_T])
    assert calls["mean_field"] == 0


def _preset_curves(preset):
    """[(params, detuning, drive grid, bath temperatures)] of every drive
    sweep the detector preset runs through the CLI, in its order."""
    import dataclasses

    params = build_detector_params(PRESETS[preset]["params"])
    grid = PRESETS[preset]["grid"]
    ratios = np.linspace(float(grid["drive_min_ratio"]), float(grid["drive_max_ratio"]),
                         int(grid["drive_points"]))
    temps = [float(T) for T in grid["bath_T_K"].split(",")]
    _, dw_bi, I_bi = bistability_onset(params)
    if preset != "ch2-detection":
        return [(params, float(grid["detuning_ratio"]) * dw_bi, ratios * I_bi, temps)]
    harmonic = dataclasses.replace(params, K_d=0.0)
    return [(params, float(r) * abs(dw_bi), ratios * I_bi, temps)
            for r in grid["detuning_ratios"].split(",")] \
        + [(harmonic, 0.0, ratios * bistability_onset(harmonic)[2], temps)]


def _singular_warnings(call, *args):
    """(number of nearly-singular-determinant warnings, result) of
    call(*args); no warning escapes."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call(*args)
    return sum("nearly singular" in str(w.message) for w in caught), out


def _line_bits(line):
    """Every field of a sweep line, floats as float.hex."""
    return [float.hex(getattr(line, name)) for name in (
        "R_omega", "R_gamma", "G_plus", "n_back_plus", "n_net", "lorentzian_residual")] \
        + [float.hex(line.chi.real), float.hex(line.chi.imag), line.gate]


# determinant tolerance at which some drives of the ch2-detection and
# ch2-cooling-Q1e4 sweeps warn (their windows and probes near the +1 pole)
# and others do not
WIDE_SINGULAR_TOL = 0.07


@settings(max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("preset", ["ch2-detection", "ch2-cooling-Q1e4"])
def test_sweep_lines_do_not_depend_on_batching(preset, data):
    # any subset of a preset curve's drives, in any order, through one sweep:
    # every line is that of a one-point sweep at its (drive, T) bit for
    # bit, and the sweep warns of a nearly singular determinant as often as
    # the one-drive sweeps do together
    import nlcavity.detector as det

    params, detuning, I_grid, temps = data.draw(st.sampled_from(_preset_curves(preset)))
    picks = data.draw(st.lists(st.integers(0, len(I_grid) - 1), min_size=1, max_size=4,
                               unique=True))
    drives = [float(I_grid[i]) for i in picks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(det, "_SINGULAR_TOL", WIDE_SINGULAR_TOL)
        batched, lines = _singular_warnings(det.thermo_sweep, params, detuning, drives,
                                            temps)
        one_drive = sum(_singular_warnings(det.thermo_sweep, params, detuning, [I_0],
                                           temps)[0] for I_0 in drives)
    assert batched == one_drive <= 2 * len(drives)  # window and probes, once each
    assert len(lines) == len(drives)
    for I_0, drive_lines in zip(drives, lines):
        drive = DrivePoint(I_0=I_0, delta_omega=detuning)
        for T, line in zip(temps, drive_lines, strict=True):
            assert _line_bits(line) == _line_bits(one_line(params, drive, T)), (I_0, T)


@pytest.mark.parametrize("preset", ["ch2-detection", "ch2-cooling-Q1e4"])
def test_manifest_warns_once_per_offending_drive(tmp_path, monkeypatch, preset):
    # a gathered response call over the lines of many drives and
    # temperatures warns once per drive that has a nearly singular node,
    # so the manifest holds as many warnings as one-drive sweeps emit (the
    # band kernel's own warnings are kept out of it here)
    import json

    import nlcavity.detector as det
    from nlcavity import cli

    band_spectra_ = det.band_spectra
    monkeypatch.setattr(det, "band_spectra",
                        lambda *args: _singular_warnings(band_spectra_, *args)[1])
    monkeypatch.setattr(det, "_SINGULAR_TOL", WIDE_SINGULAR_TOL)
    assert cli.run(cli.config_from_preset(preset, tmp_path)) == cli.EXIT_OK
    manifest = json.loads((tmp_path / f"{preset}_manifest.json").read_text())
    per_drive = [_singular_warnings(det.thermo_sweep, params, detuning, [I_0], temps)[0]
                 for params, detuning, I_grid, temps in _preset_curves(preset)
                 for I_0 in I_grid]
    assert sum(per_drive) > 0 and per_drive.count(0) > 0
    assert max(per_drive) <= 2  # the window and the probes warn once each
    assert manifest["warnings"].count(
        "response determinant nearly singular (bifurcation proximity)") == sum(per_drive)


@pytest.mark.parametrize("ratio_index", [4, 33], ids=["0.3108-I_bi", "1.1138-I_bi"])
def test_stalled_cooling_fits_match_reference_loop_bitwise(cooling_params, ratio_index):
    # the two ch2-cooling-Q1e4 drives whose fits stall (seed-0 rows 20 and
    # 165-169): their results depend on the LM path, so the package loop must
    # walk the reference loop's path bit for bit at every bath temperature
    from nlcavity.detector import _occupied, _resolve_drive
    from oracles import fit_lorentzian_reference

    grid = PRESETS["ch2-cooling-Q1e4"]["grid"]
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    detuning = float(grid["detuning_ratio"]) * dw_bi
    I_grid = np.linspace(float(grid["drive_min_ratio"]), float(grid["drive_max_ratio"]),
                         int(grid["drive_points"])) * I_bi
    drive = DrivePoint(I_0=float(I_grid[ratio_index]), delta_omega=detuning)
    pt = _point(cooling_params, drive, select_branch(mean_field(cooling_params, drive)).chi)
    _, _, (omega, kernel, lor_plus, lor_minus) = _resolve_drive(cooling_params, pt)
    wp = cooling_params.omega_T + detuning
    for T in (float(t) for t in grid["bath_T_K"].split(",")):
        s = np.clip(_occupied(kernel, lor_plus, lor_minus, omega - wp, T), 0.0, None)
        assert fit_lorentzian(omega, s) == fit_lorentzian_reference(omega, s), T


def test_preset_fits_match_reference_loop_bitwise(tmp_path, monkeypatch):
    # every Lorentzian fit the three detector presets make (400 cooling
    # lines, 64 detection lines): the package's LM step, which calls the
    # LAPACK solve directly, must walk the reference loop's
    # np.linalg.solve path bit for bit
    import nlcavity.detector as det
    from nlcavity.cli import config_from_preset, run
    from oracles import fit_lorentzian_reference

    results = []

    def checked_fit(omega, s):
        fit = fit_lorentzian(omega, s)
        results.append(fit == fit_lorentzian_reference(omega, s))
        return fit

    monkeypatch.setattr(det, "fit_lorentzian", checked_fit)
    for preset in ("ch2-cooling-Q1e4", "ch2-goodcavity-Q1000", "ch2-detection"):
        assert run(config_from_preset(preset, tmp_path)) == 0
    assert len(results) == 464
    assert all(results), [i for i, same in enumerate(results) if not same]
