"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).

Criterion 9a measures the short-time signal state against the thermal state
of equal mean occupation. It first pins the program's signal distribution to
its closed form, then asserts the crossings the short-time curve makes
(F > 0.98 while <N_b> < 3.5, F < 0.8 once <N_b> > 8.5), that F does not rise
with <N_b>, and the tau -> infinity limit. The short-time curve is not the
full quantum evolution: at tau = 0.2 the full tier gives <N_b> = 0.398 and
the short-time tier 0.513, and the full tier peaks at <N_b> ~ 7.0 near
tau ~ 0.8 with F ~ 0.89 there (F >= 0.86 throughout tau <= 3).
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaincc, gammaln

from nlcavity import detector, fock, hawking, qinfo, trilinear
from nlcavity.constants import TWO_PI, c_vacuum
from nlcavity.errors import InstabilityError, NonLorentzianError
from nlcavity.presets import PRESETS, build_detector_params, build_line_params
from oracles import (build_interaction_hamiltonian, expectation, fidelity,
                     interaction_generator, mode_numbers, thermal_density_matrix)

RESULTS = []


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print("\n" + line)


def teardown_module(_mod):
    print("\n" + "\n".join(RESULTS))


@pytest.fixture(scope="module")
def det_params():
    return build_detector_params(PRESETS["ch2-detection"]["params"])


@pytest.fixture(scope="module")
def coherent9_trajectory():
    """Shared <N_a(0)>=9 coherent trajectory on tau in [0,3]."""
    dim = fock.min_coherent_dim(9.0) + 3
    spec = fock.HilbertSpec((dim,) * 3)
    init = trilinear.PumpInitialState.coherent(9.0, dim)
    psi0 = trilinear.initial_product_state(init, spec)
    taus = np.linspace(0.0, 3.0, 121)
    states = [s.state_vector(spec) for s in trilinear.evolve_full(psi0, taus)]
    return spec, init, taus, states


def test_criterion_1_zero_point(det_params):
    start = time.perf_counter()
    value = detector.zero_point(det_params)
    elapsed = time.perf_counter() - start
    ok = abs(value / 1.45e-13 - 1.0) < 0.01 and elapsed < 1e-3
    report(1, ok, f"zero point {value:.4e} m (target 1.45e-13 +-1%), {elapsed*1e6:.0f} us")
    assert ok


def test_criterion_2_small_drive_limits(det_params):
    start = time.perf_counter()
    _, _, I_bi = detector.bistability_onset(det_params)
    drive = detector.DrivePoint(I_0=1e-3 * I_bi, delta_omega=0.0)
    chi = detector.mean_field(det_params, drive)[0].chi
    c = detector.linear_amplitude(det_params, drive)
    w = det_params.omega_T + np.linspace(-2, 2, 41) * det_params.omega_m
    a1, a2, _, _, _ = detector.response_coeffs(det_params, drive, chi, w)
    dev1 = float(np.max(np.abs(a1 / c - 1.0)))
    dev2 = float(np.max(np.abs(a2 / c)))
    elapsed = time.perf_counter() - start
    ok = dev1 < 1e-3 and dev2 < 1e-3 and elapsed < 1.0
    report(2, ok, f"|alpha1/c-1| {dev1:.2e}, |alpha2/c| {dev2:.2e}, {elapsed:.2f} s")
    assert ok


def test_criterion_3_bistability_topology(det_params):
    start = time.perf_counter()
    E_bi, dw_bi, I_bi = detector.bistability_onset(det_params)
    ratios = np.linspace(0.25, 3.0, 50)
    drives = np.linspace(0.05, 2.0, 50)
    checked = mismatches = 0
    for r in ratios:
        if r >= 1.0:
            low, up = detector.bistability_boundary(det_params, r)
        else:
            low = up = None
        for x in drives:
            if low is not None and (abs(x - low) < 0.01 or abs(x - up) < 0.01):
                continue  # within 1% of I_bi of a boundary curve
            expect = 3 if (low is not None and low < x < up) else 1
            sols = detector.mean_field(
                det_params, detector.DrivePoint(I_0=x * I_bi, delta_omega=r * dw_bi))
            checked += 1
            if len(sols) != expect:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(3, ok, f"{checked} grid points classified, {mismatches} mismatches, "
                  f"{elapsed:.1f} s")
    assert ok


def _sweep_signal_noise(params, dw, I_bi, n_points, max_ratio):
    points = []
    for x in np.linspace(0.01, max_ratio, n_points):
        drive = detector.DrivePoint(I_0=x * I_bi, delta_omega=dw)
        try:
            th = detector.effective_thermo(params, drive, bath_T=0.0)
        except (InstabilityError, NonLorentzianError):
            continue
        points.append((x, drive.I_0, th))
    sig, noi, cav = detector.band_spectra(
        params, dw, [I_0 for _, I_0, _ in points], [th.chi for _, _, th in points],
        [params.omega_T + dw + th.R_omega * params.omega_m for _, _, th in points],
        [2.0 * th.R_gamma * params.gamma_bm for _, _, th in points], 0.0)
    return list(zip([x for x, _, _ in points], sig, noi, cav))


def test_criterion_4_caves_consistency(det_params):
    start = time.perf_counter()
    _, dw_bi, I_bi = detector.bistability_onset(det_params)
    harmonic = build_detector_params(
        dict(PRESETS["ch2-detection"]["params"], K_d="0"))
    _, _, I_bi_h = detector.bistability_onset(harmonic)

    violations = 0
    total = 0
    curves = {}
    for frac in (0.0, 0.2, 0.4):
        rows = _sweep_signal_noise(det_params, frac * abs(dw_bi), I_bi, 30, 0.35)
        curves[frac] = rows
        for _, sig, noi, cav in rows:
            total += 1
            if noi < cav * (1.0 - 1e-9):
                violations += 1
    harm_rows = _sweep_signal_noise(harmonic, 0.0, I_bi_h, 30, 0.14)
    for _, sig, noi, cav in harm_rows:
        total += 1
        if noi < cav * (1.0 - 1e-9):
            violations += 1

    # matched-signal ordering: Duffing at +0.4|dw_bi| vs harmonic at 0, over
    # the large-gain upper half of the overlapping signal range
    duff = sorted((s, n / s) for _, s, n, _ in curves[0.4])
    harm = sorted((s, n / s) for _, s, n, _ in harm_rows)
    s_lo = max(duff[0][0], harm[0][0])
    s_hi = min(duff[-1][0], harm[-1][0])
    levels = np.geomspace(math.sqrt(s_lo * s_hi), 0.95 * s_hi, 8)

    def interp(rows, level):
        xs = np.log([r[0] for r in rows])
        ys = np.log([r[1] for r in rows])
        return math.exp(np.interp(math.log(level), xs, ys))

    ordering_ok = all(interp(duff, lv) < interp(harm, lv) for lv in levels)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and ordering_ok and total >= 60 and elapsed < 120.0
    report(4, ok, f"{total} operating points, {violations} Caves violations, "
                  f"Duffing(+0.4) below harmonic at matched signal: {ordering_ok}, "
                  f"{elapsed:.1f} s")
    assert ok


def _cooling_sweep(params, detuning, I_bi, upper_ratio):
    """Gate-passing (drive ratio, 2 n_back_plus + 1) points marching to the
    upper bistable boundary."""
    out = []
    for x in np.arange(0.30, upper_ratio, 0.0025):
        drive = detector.DrivePoint(I_0=x * I_bi, delta_omega=detuning)
        try:
            th = detector.effective_thermo(params, drive, bath_T=0.0)
        except (InstabilityError, NonLorentzianError):
            break
        out.append((x, 2.0 * th.n_back_plus + 1.0))
    return out


def _attains_near_end(points, target, band=0.2, tail=0.10):
    """The occupation curve reaches target*(1 +- band) among the
    gate-passing points, within the last `tail` fraction of the sweep, and
    has cooled at least to the window top by the stopping point."""
    if not points:
        return False, "no gate-passing points"
    xs = [p[0] for p in points]
    lo, hi = (1.0 - band) * target, (1.0 + band) * target
    x_cut = xs[0] + (1.0 - tail) * (xs[-1] - xs[0])
    window_hits = [x for x, occ in points if lo <= occ <= hi and x >= x_cut]
    min_occ = min(occ for _, occ in points)
    detail = (f"min occ {min_occ:.3f}, window [{lo:.3f},{hi:.3f}] hit at "
              f"{len(window_hits)} late-sweep drives, last point occ "
              f"{points[-1][1]:.3f} at {points[-1][0]:.4f} I_bi")
    return (len(window_hits) > 0 and min_occ <= hi), detail


def test_criterion_5_cooling_anchors():
    start = time.perf_counter()
    p300 = build_detector_params(PRESETS["ch2-cooling-Q1e4"]["params"])
    _, dw_bi, I_bi = detector.bistability_onset(p300)
    _, up = detector.bistability_boundary(p300, 1.3)
    pts300 = _cooling_sweep(p300, 1.3 * dw_bi, I_bi, up)
    ok300, det300 = _attains_near_end(pts300, 0.55)

    p1000 = build_detector_params(PRESETS["ch2-goodcavity-Q1000"]["params"])
    _, dw_bi2, I_bi2 = detector.bistability_onset(p1000)
    _, up2 = detector.bistability_boundary(p1000, 2.2)
    pts1000 = _cooling_sweep(p1000, 2.2 * dw_bi2, I_bi2, up2)
    ok1000, det1000 = _attains_near_end(pts1000, 0.06)

    # harmonic reference: frequency pulling dropped entirely, optimal
    # harmonic detuning; the occupation falls off toward weak drive (weak
    # back-action damping makes that region unusable for cooling), so the
    # reference value is the sweep minimum above 0.3 I_bi
    dopt = -math.sqrt(p1000.omega_m ** 2 + p1000.gamma_pT ** 2)
    occ_h = []
    for x in np.linspace(0.3, 1.5, 25):
        try:
            th = detector.effective_thermo(
                p1000, detector.DrivePoint(I_0=x * I_bi2, delta_omega=dopt),
                frequency_pulling=False)
        except (InstabilityError, NonLorentzianError):
            continue
        occ_h.append(2.0 * th.n_back_plus + 1.0)
    harm_min = min(occ_h)
    ok_h = 0.8 * 0.13 <= harm_min <= 1.2 * 0.13

    elapsed = time.perf_counter() - start
    ok = ok300 and ok1000 and ok_h and elapsed < 300.0
    report(5, ok,
           f"Q300@1.3dwbi target 0.55: {det300} | Q1000@2.2dwbi target 0.06: "
           f"{det1000} | harmonic min {harm_min:.3f} (target 0.13 +-20%), "
           f"{elapsed:.0f} s")
    assert ok


def test_criterion_6_hawking_anchors():
    start = time.perf_counter()
    params = build_line_params(PRESETS["ch3-beltran"]["params"])
    c = hawking.propagation_velocity(0.0, params)
    ratio = c / (c_vacuum / 100.0)
    ok_c = 1 / 1.5 < ratio < 1.5

    target = 0.1 * params.plasma_frequency(0.0) / TWO_PI
    rise = hawking.rise_scale_for_gradient_rate(0.2, params, target)
    pulse = hawking.tanh_pulse(0.2, rise)
    T_H = hawking.hawking_temperature(pulse, params)
    ok_T = abs(T_H / 0.120 - 1.0) < 0.10

    count = hawking.photons_per_pulse(T_H, params)
    ok_n = 0.5 < count < 2.0
    elapsed = time.perf_counter() - start
    ok = ok_c and ok_T and ok_n and elapsed < 5.0
    report(6, ok, f"c = c0/{c_vacuum / c:.1f} (factor {ratio:.2f} of c0/100), "
                  f"T_H = {T_H*1e3:.1f} mK, photons/pulse = {count:.2f}, "
                  f"{elapsed:.1f} s")
    assert ok


def test_criterion_7_trilinear_oracles():
    import scipy.linalg as sla

    start = time.perf_counter()
    spec = fock.HilbertSpec((3, 3, 3))
    psi0 = trilinear.initial_product_state(
        trilinear.PumpInitialState.fock(1, dim=2), spec)
    taus = np.linspace(0.0, 3.0, 31)
    states = [s.state_vector(spec) for s in trilinear.evolve_full(psi0, taus)]
    nb_op = mode_numbers(spec)[1]
    rabi_err = max(abs(expectation(s, nb_op).real - math.sin(t) ** 2)
                   for t, s in zip(taus, states))

    spec64 = fock.HilbertSpec((4, 4, 4))
    psi064 = trilinear.initial_product_state(
        trilinear.PumpInitialState.fock(2, dim=3), spec64)
    out = trilinear.evolve_full(psi064, [0.0, 2.0])
    G = interaction_generator(spec64).toarray()
    expm_err = float(np.linalg.norm(out[-1].state_vector(spec64).amplitudes
                                    - sla.expm(2.0 * G) @ psi064.amplitudes))
    elapsed = time.perf_counter() - start
    ok = rabi_err < 1e-6 and expm_err < 1e-7 and elapsed < 10.0
    report(7, ok, f"Rabi error {rabi_err:.2e} (<1e-6), expm error {expm_err:.2e} "
                  f"(<1e-7), {elapsed:.1f} s")
    assert ok


def test_criterion_8_conservation_suite(coherent9_trajectory):
    start = time.perf_counter()
    spec, init, taus, states = coherent9_trajectory
    na_op, nb_op, nc_op = mode_numbers(spec)
    H = build_interaction_hamiltonian(spec)
    na0 = expectation(states[0], na_op).real
    scale = na0
    worst = 0.0
    for s in states:
        na = expectation(s, na_op).real
        nb = expectation(s, nb_op).real
        nc = expectation(s, nc_op).real
        worst = max(worst,
                    abs(na + nb - na0) / scale,
                    abs(na + nc - na0) / scale,
                    abs(nb - nc) / scale,
                    abs(expectation(s, H)) / scale,
                    abs(s.norm() - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(8, ok, f"max relative drift (norm, Manley-Rowe, <H_I>) {worst:.2e} "
                  f"(<1e-6), {elapsed:.0f} s")
    assert ok


def thermal_fidelity(p_b):
    """Mean occupation of the diagonal signal state with number distribution
    ``p_b`` and its root Uhlmann fidelity to the thermal state of equal mean.

    rho_b = diag(p_b) lives on the first ``dim`` levels, where the
    untruncated thermal state equals (1 - leak) times the renormalized
    truncation ``thermal_density_matrix(nb, dim)``, so the fidelity is
    exactly F(rho_b, sigma_dim) * sqrt(1 - leak).
    """
    rho_b = fock.DensityMatrix(fock.HilbertSpec((p_b.size,)), np.diag(p_b))
    nb = float(np.sum(p_b * np.arange(p_b.size)))
    leak = qinfo.ThermalReference(nb, p_b.size).leak
    return nb, fidelity(rho_b, thermal_density_matrix(nb, p_b.size)) * math.sqrt(1.0 - leak)


def short_time_signal_oracle(P, tau):
    """Closed-form short-time signal distribution for a vacuum signal/idler:
    P_n(tau) = sum_s P_s s!/(s-n)! tau^(2n) / N_s(tau), with the branch
    normalization N_s(tau) = e^(1/tau^2) tau^(2s) Gamma(s+1, 1/tau^2) taken
    through the regularized upper incomplete gamma in log space. Finite for
    tau >= 0.05 (below that Gamma(s+1, 1/tau^2) underflows)."""
    s = np.arange(P.size)[:, None]
    n = np.arange(P.size)[None, :]
    x = 1.0 / tau ** 2
    log_norm = x + 2.0 * s * math.log(tau) + gammaln(s + 1) + np.log(gammaincc(s + 1, x))
    # gammaln has poles at the non-positive integers, so terms with n > s vanish
    log_w = gammaln(s + 1) - gammaln(s - n + 1) + 2.0 * n * math.log(tau) - log_norm
    return P @ np.exp(log_w)


@pytest.fixture(scope="module")
def short_time_signal():
    """Signal number distributions of the <N_a(0)>=9 coherent short-time run
    on tau in [0,3]."""
    init = trilinear.PumpInitialState.coherent(9.0, 30)
    taus = np.linspace(0.0, 3.0, 400)
    return init, taus, [trilinear.short_time_state(init, float(tau)).reduced()[1]
                        for tau in taus]


@pytest.fixture(scope="module")
def short_time_curves(short_time_signal):
    _, taus, signals = short_time_signal
    rows = []
    for tau, p_b in zip(taus, signals):
        nb, F = thermal_fidelity(p_b)
        rows.append((float(tau), nb, F, qinfo.information(p_b)))
    return np.array(rows)


def test_criterion_9a_fidelity_shape(short_time_signal, short_time_curves):
    start = time.perf_counter()
    init, taus, signals = short_time_signal
    # the program's signal distribution against the closed form; the pump
    # weights are Poisson(9) renormalized over the 30 retained levels
    s = np.arange(init.coefficients.size)
    P = np.exp(s * math.log(9.0) - 9.0 - gammaln(s + 1))
    P /= P.sum()
    oracle_dev = max(float(np.max(np.abs(p_b - short_time_signal_oracle(P, t))))
                     for t, p_b in zip(taus, signals) if t >= 0.05)
    _, nb, F, _ = short_time_curves.T
    f_min_early = float(F[nb < 3.5].min())
    f_max_late = float(F[nb > 8.5].max())
    # F non-increasing in <N_b>, up to rounding where F is 1 to machine precision
    f_max_rise = float(np.max(np.diff(F[np.argsort(nb, kind="stable")])))
    # tau -> infinity: the signal carries the pump's Poisson(9) distribution,
    # so F tends to the Bhattacharyya coefficient of Poisson(9) against the
    # thermal distribution of mean 9
    _, F_100 = thermal_fidelity(trilinear.short_time_state(init, 100.0).reduced()[1])
    m = np.arange(400)
    bhattacharyya = float(np.sum(np.exp(0.5 * (m * math.log(9.0) - 9.0 - gammaln(m + 1)
                                               + m * math.log(0.9) - math.log(10.0)))))
    elapsed = time.perf_counter() - start
    ok = (oracle_dev <= 1e-12 and f_min_early > 0.98 and f_max_late < 0.8
          and f_max_rise <= 1e-12 and abs(F_100 - bhattacharyya) < 1e-3
          and elapsed < 60.0)
    report("9a", ok,
           f"signal distribution vs closed form {oracle_dev:.1e} (<=1e-12, tau >= 0.05); "
           f"fidelity to the equal-mean thermal state: min F at <N_b> < 3.5: "
           f"{f_min_early:.4f} (> 0.98), max F at <N_b> > 8.5: {f_max_late:.4f} "
           f"(< 0.8), largest rise of F with <N_b> {f_max_rise:.1e} (<=1e-12), "
           f"F(tau=100) {F_100:.5f} vs Bhattacharyya {bhattacharyya:.5f} (+-1e-3); "
           f"F crosses 0.98 at <N_b> = {nb[np.argmax(F < 0.98)]:.2f} and 0.8 at "
           f"<N_b> = {nb[np.argmax(F < 0.8)]:.2f}, {elapsed:.1f} s")
    assert ok


def test_criterion_9b_information_onset(short_time_curves):
    start = time.perf_counter()
    tau, nb, _, info = short_time_curves.T
    # d_a^eff = d_bc^eff with <N_a> + <N_b> = 9: 2(9-x)+1 = (2x+1)^2 at x=1.5
    crossing = int(np.argmin(np.abs(nb - 1.5)))
    info_before = float(info[: crossing + 1].max())
    window = info[crossing: crossing + 40]
    monotone_after = bool(np.all(np.diff(window) > 0.0))
    elapsed = time.perf_counter() - start
    ok = info_before < 0.05 and monotone_after and elapsed < 60.0
    report("9b", ok, f"info before d_eff crossing {info_before:.4f} nats "
                     f"(<0.05), rises monotonically after: {monotone_after}, "
                     f"{elapsed:.0f} s")
    assert ok


def test_criterion_10_long_time_distribution():
    start = time.perf_counter()
    init = trilinear.PumpInitialState.coherent(9.0, 30)
    _, diag = trilinear.short_time_state(init, 100.0).reduced()
    P = init.probabilities
    tv = 0.5 * float(np.sum(np.abs(diag[: P.size] - P)) + np.sum(diag[P.size:]))
    elapsed = time.perf_counter() - start
    ok = tv < 1e-3 and elapsed < 10.0
    report(10, ok, f"total-variation distance to initial pump distribution "
                   f"{tv:.2e} (<1e-3), {elapsed:.1f} s")
    assert ok


def test_criterion_11_quantum_info_suite(coherent9_trajectory):
    start = time.perf_counter()
    spec, init, taus, states = coherent9_trajectory

    # pure-state entropy
    v = np.zeros(16)
    v[3] = 1.0
    rho_pure = fock.DensityMatrix(fock.HilbertSpec((16,)), np.outer(v, v))
    s_pure = qinfo.von_neumann_entropy(rho_pure)

    # closed form vs eigen-decomposition
    therm_dev = 0.0
    for n_bar in (0.5, 4.5, 9.0):
        dim = 60 * (1 + int(n_bar))
        rho = thermal_density_matrix(n_bar, dim)
        therm_dev = max(therm_dev, abs(qinfo.von_neumann_entropy(rho)
                                       - qinfo.thermal_entropy(n_bar)))

    d_eff_dev = abs(qinfo.effective_dimension(4.5) - 10.0)

    psi_c = fock.coherent_state(3.0, 30)
    rho_c = fock.DensityMatrix(psi_c.spec,
                               np.outer(psi_c.amplitudes, psi_c.amplitudes.conj()))
    qp_c, qm_c = qinfo.squeezing_params(rho_c)

    heis_min = math.inf
    qm_track = []
    for s in states:
        rho_a = fock.partial_trace(s, keep=[0])
        qp, qm = qinfo.squeezing_params(rho_a)
        heis_min = min(heis_min, (qp + 1.0) * (qm + 1.0))
        qm_track.append(qm)

    elapsed = time.perf_counter() - start
    ok = (s_pure < 1e-9 and therm_dev < 1e-6 and d_eff_dev < 1e-9
          and abs(qp_c) < 1e-3 and abs(qm_c) < 1e-3
          and heis_min >= 1.0 - 1e-8 and min(qm_track) < 0.0
          and elapsed < 60.0)
    report(11, ok,
           f"pure entropy {s_pure:.1e}, thermal closed-form dev {therm_dev:.1e}, "
           f"d_eff(4.5) dev {d_eff_dev:.1e}, coherent q {max(abs(qp_c), abs(qm_c)):.1e}, "
           f"Heisenberg min {heis_min:.10f}, pump q_- min {min(qm_track):.3f} (<0), "
           f"{elapsed:.0f} s")
    assert ok
