import math

import numpy as np
import pytest

from nlcavity.detector import (
    DrivePoint,
    added_noise,
    band_spectra,
    bistability_boundary,
    bistability_onset,
    cooling_curve,
    effective_duffing,
    effective_thermo,
    linear_amplitude,
    mean_field,
    noise_density,
    response_coeffs,
    select_branch,
    signal_density,
    zero_point,
)
from nlcavity.errors import (
    InstabilityError,
    NoBistabilityError,
    OutsideRegionError,
)
from nlcavity.presets import PRESETS, build_detector_params


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
    _, dw_bi, I_bi = onset
    rng = [(0.3, 0.0), (0.8, 0.5 * dw_bi), (1.2, 1.3 * dw_bi), (0.9, -2 * dw_bi)]
    for ratio, dw in rng:
        for sol in mean_field(params, DrivePoint(I_0=ratio * I_bi, delta_omega=dw)):
            assert sol.residual < 1e-9


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
    with pytest.raises(OutsideRegionError):
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
    a1, a2, b1, b2, _ = response_coeffs(params, drive, chi, w)
    assert np.max(np.abs(a1 / c - 1.0)) < 1e-3
    assert np.max(np.abs(a2 / c)) < 1e-3
    assert np.max(np.abs(b1 - 1.0)) < 1e-3
    assert np.max(np.abs(b2)) < 1e-3


def test_beta_at_zero_chi(params):
    drive = DrivePoint(I_0=0.0, delta_omega=0.0)
    w = np.array([params.omega_T + 0.3 * params.omega_m])
    _, _, b1, b2, det = response_coeffs(params, drive, 0j, w)
    assert b1[0] == pytest.approx(1.0)
    assert b2[0] == 0.0
    assert det[0] == pytest.approx(1.0)


def test_determinant_vs_linear_solve_oracle(params, onset):
    # reconstruct alpha1/alpha2 by directly inverting the 2x2 linear system
    from nlcavity.detector import _b_func, _d_func, _point, _response_terms

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
        b_w0 = _b_func(w, 0.0, params, K_Tm)
        b_ws = _b_func(w, w - wp, params, K_Tm)
        b_m0 = _b_func(mirror, 0.0, params, K_Tm)
        b_ms = _b_func(mirror, w - wp, params, K_Tm)
        d_w = _d_func(w, params, K_d)
        d_m = _d_func(mirror, params, K_d)
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
        a1, a2, _, _, det = response_coeffs(params, drive, chi, np.array([w]))
        # with both source kernels set to one, a_T^(1) = alpha1 + alpha2
        assert a1[0] + a2[0] == pytest.approx(sol[0], rel=1e-10)
        # determinant identity against the direct 2x2 determinant
        assert det[0] == pytest.approx(np.linalg.det(M), rel=1e-10)


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
    th = effective_thermo(params, drive)
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
        th = effective_thermo(params, drive)
        ws = params.omega_T + drive.delta_omega + th.R_omega * params.omega_m
        band = 2 * th.R_gamma * params.gamma_bm
        _, noi, cav = one_point(params, drive, th.chi, ws, band)
        assert noi >= cav * (1.0 - 1e-9)


def test_caves_ratio_one_at_large_gain(params, onset):
    _, dw_bi, I_bi = onset
    drive = DrivePoint(I_0=0.15 * I_bi, delta_omega=0.4 * abs(dw_bi))
    th = effective_thermo(params, drive)
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
        th = effective_thermo(params, drive, bath_T=bath_T)
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
    th = effective_thermo(params, drive)
    assert th.weak_coupling
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
        th = effective_thermo(cooling_params,
                              DrivePoint(I_0=ratio * I_bi, delta_omega=1.3 * dw_bi))
        assert th.R_gamma > 1.0  # red detuning damps
        occ.append(2 * th.n_back_plus + 1)
    assert occ[-1] < occ[0]  # occupation falls approaching the boundary


def test_thermo_fit_matches_determinant_probe(cooling_params):
    from nlcavity.detector import _determinant_zero

    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drive = DrivePoint(I_0=0.9 * I_bi, delta_omega=1.3 * dw_bi)
    th = effective_thermo(cooling_params, drive)
    chi = select_branch(mean_field(cooling_params, drive)).chi
    pole = _determinant_zero(cooling_params, drive, chi)
    wp = cooling_params.omega_T + drive.delta_omega
    assert th.R_omega == pytest.approx((pole.real - wp) / cooling_params.omega_m,
                                       abs=1e-4)
    assert th.R_gamma == pytest.approx(-pole.imag / cooling_params.gamma_bm,
                                       rel=1e-2)


def test_thermo_instability_on_blue_side(params, onset):
    _, dw_bi, I_bi = onset
    drive = DrivePoint(I_0=0.5 * I_bi, delta_omega=0.4 * abs(dw_bi))
    with pytest.raises(InstabilityError):
        effective_thermo(params, drive)


def test_thermo_branch_lost_past_fold(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drive = DrivePoint(I_0=1.2912 * I_bi, delta_omega=1.3 * dw_bi)
    with pytest.raises(InstabilityError):
        effective_thermo(cooling_params, drive)


def test_nnet_formula_limits():
    # Eq-level algebra: T=0 bath and n_back=0 give n_net=0; R_gamma -> inf
    # pins n_net at n_back
    def nnet(R_gamma, occ_bath, occ_back):
        return 0.5 * (occ_bath / R_gamma + (1 - 1 / R_gamma) * occ_back - 1)

    assert nnet(5.0, 1.0, 1.0) == pytest.approx(0.0)
    assert nnet(1e9, 1.0, 2 * 3.0 + 1) == pytest.approx(3.0, abs=1e-6)


def test_cooling_curve_rows_and_failures(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    rows = cooling_curve(cooling_params, 1.3 * dw_bi,
                         [0.5 * I_bi, 1.2 * I_bi, 1.2912 * I_bi], [0.0, 0.05])
    assert len(rows) == 6
    ok = [r for r in rows if not r["gate_failure"]]
    bad = [r for r in rows if r["gate_failure"]]
    assert len(bad) == 2  # the past-fold drive at both temperatures
    assert all(math.isnan(r["n_net"]) for r in bad)
    for r in ok:
        if r["bath_T"] > 0:
            partner = next(x for x in ok
                           if x["I_0"] == r["I_0"] and x["bath_T"] == 0.0)
            assert r["n_net"] > partner["n_net"]  # hotter bath, higher n_net


def test_lorentzian_gate_holds_away_from_boundaries(cooling_params):
    # gamma_bm << gamma_pT here; any drive >= 5% (of I_bi) away from the
    # bistable boundaries must pass the residual gate
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    low, up = bistability_boundary(cooling_params, 1.3)
    for ratio in (0.3, 0.7, 1.0, low - 0.05, (low + up) / 2, up - 0.05):
        th = effective_thermo(cooling_params,
                              DrivePoint(I_0=ratio * I_bi, delta_omega=1.3 * dw_bi))
        assert th.lorentzian_residual < 0.05


def test_thermo_gain_positive(cooling_params):
    _, dw_bi, I_bi = bistability_onset(cooling_params)
    drive = DrivePoint(I_0=0.8 * I_bi, delta_omega=1.3 * dw_bi)
    th = effective_thermo(cooling_params, drive)
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
    effective_thermo(cooling_params,
                     DrivePoint(I_0=0.8 * I_bi, delta_omega=1.3 * dw_bi))
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
                                            "fit_lorentzian", "response_coeffs"))
    rows = cooling_curve(cooling_params, 1.3 * dw_bi, drives, COOL_TEMPS)
    assert len(rows) == len(drives) * len(COOL_TEMPS)
    assert [r["gate_failure"] for r in rows[-len(COOL_TEMPS):]] == \
        ["InstabilityError"] * len(COOL_TEMPS)
    assert not any(r["gate_failure"] for r in rows[:-len(COOL_TEMPS)])
    resolved = len(drives) - 1
    assert calls["mean_field"] == len(drives)
    assert calls["_determinant_zero"] == resolved  # the fold guard fires first
    assert calls["fit_lorentzian"] == resolved * len(COOL_TEMPS)
    assert calls["response_coeffs"] <= 2 * resolved

    # every row is the single-point parametrization at its (drive, T), bit for bit
    fields = {"n_net": "n_net", "R_omega": "R_omega", "R_gamma": "R_gamma",
              "n_back": "n_back_plus", "residual": "lorentzian_residual"}
    for row in rows:
        drive = DrivePoint(I_0=row["I_0"], delta_omega=1.3 * dw_bi)
        if row["gate_failure"]:
            with pytest.raises(InstabilityError):
                effective_thermo(cooling_params, drive, row["bath_T"])
            assert all(math.isnan(row[key]) for key in fields)
            continue
        th = effective_thermo(cooling_params, drive, row["bath_T"])
        for key, attr in fields.items():
            assert float.hex(row[key]) == float.hex(getattr(th, attr)), key


@pytest.mark.parametrize("bad_T", [-1e-3, math.nan, math.inf])
def test_cooling_curve_rejects_bad_bath_T_before_solving(cooling_params, monkeypatch,
                                                        bad_T):
    import nlcavity.detector as det

    _, dw_bi, I_bi = bistability_onset(cooling_params)
    calls = _count_calls(monkeypatch, det, ("mean_field",))
    with pytest.raises(ValueError, match="bath temperature"):
        cooling_curve(cooling_params, 1.3 * dw_bi, [0.5 * I_bi, 0.8 * I_bi],
                      [0.0, 0.05, bad_T])
    assert calls["mean_field"] == 0
