import math
import warnings

import numpy as np
import pytest

from nlcavity.constants import Phi0, R_Q, TWO_PI, c_vacuum
from nlcavity.errors import CriticalCurrentError, NoHorizonError
from nlcavity.hawking import (
    FluxPulse,
    array_impedance,
    dispersion,
    find_horizon,
    gaussian_pulse,
    hawking_temperature,
    junction_inductance,
    metric_components,
    photons_per_pulse,
    propagation_velocity,
    radiated_power,
    rise_scale_for_gradient_rate,
    tanh_pulse,
    validity_report,
    velocity_gradient,
)
from nlcavity.numerics import Tolerance, find_root_bracketed
from nlcavity.presets import PRESETS, build_line_params


@pytest.fixture(scope="module")
def params():
    return build_line_params(PRESETS["ch3-beltran"]["params"])


@pytest.fixture(scope="module")
def pulse(params):
    target = 0.1 * params.plasma_frequency(0.0) / TWO_PI
    rise = rise_scale_for_gradient_rate(0.2, params, target)
    return tanh_pulse(0.2, rise)


@pytest.fixture(scope="module")
def T_H(params, pulse):
    return hawking_temperature(pulse, params)


# --- inductance / velocity -----------------------------------------------------

def test_inductance_small_current_limit(params):
    L = junction_inductance(0.0, 0.0, params)
    assert L == pytest.approx(Phi0 / (2 * math.pi * 4e-6), rel=1e-12)
    assert L == pytest.approx(8.23e-11, rel=1e-2)


def test_inductance_monotone_in_current(params):
    ics = params.critical_current(0.0)
    currents = np.linspace(0.0, 0.95 * ics, 20)
    Ls = [junction_inductance(I, 0.0, params) for I in currents]
    assert all(b > a for a, b in zip(Ls, Ls[1:]))


def test_inductance_critical_current_error(params):
    with pytest.raises(CriticalCurrentError):
        junction_inductance(params.critical_current(0.0), 0.0, params)


def test_flux_suppressed_critical_current_third(params):
    # cos(pi/3) = 1/2, so I_c^s = 2 I_c * 1/2 = I_c
    assert params.critical_current(1.0 / 3.0) == pytest.approx(params.I_c, rel=1e-12)


def test_velocity_anchor(params):
    c = propagation_velocity(0.0, params)
    assert c == pytest.approx(3.9e6, rel=0.01)
    # paper's order-of-magnitude claim within the factor-1.5 band
    assert 1.0 / 1.5 < c / (c_vacuum / 100.0) < 1.5


def test_velocity_monotone_in_flux(params):
    fluxes = np.linspace(0.0, 0.45, 12)
    cs = [propagation_velocity(f, params) for f in fluxes]
    assert all(b < a for a, b in zip(cs, cs[1:]))


def test_velocity_capacitance_scaling(params):
    import dataclasses

    doubled = dataclasses.replace(params, C_0=2 * params.C_0)
    assert propagation_velocity(0.0, doubled) == pytest.approx(
        propagation_velocity(0.0, params) / math.sqrt(2), rel=1e-12)


def test_flux_gate(params):
    with pytest.raises(ValueError):
        propagation_velocity(0.5, params)
    with pytest.raises(ValueError):
        propagation_velocity(-0.01, params)
    for bad in (0.5, math.nan):  # one bad element rejects the whole array
        with pytest.raises(ValueError, match="insulating transition"):
            propagation_velocity(np.array([0.0, 0.2, bad, 0.1]), params)


def test_velocity_array_matches_scalar_calls(params):
    fluxes = np.linspace(0.0, 0.49, 50)
    np.testing.assert_allclose(propagation_velocity(fluxes, params),
                               [propagation_velocity(float(f), params) for f in fluxes],
                               rtol=1e-15, atol=0.0)


# --- dispersion ------------------------------------------------------------------

def test_dispersion_zero(params):
    assert dispersion(0.0, 0.0, params) == 0.0


def test_dispersion_band_edge(params):
    L = junction_inductance(0.0, 0.0, params)
    edge = dispersion(math.pi / params.a, 0.0, params)
    assert edge == pytest.approx(2.0 / math.sqrt(L * params.C_0), rel=1e-12)


def test_dispersion_out_of_zone(params):
    with pytest.raises(ValueError):
        dispersion(1.1 * math.pi / params.a, 0.0, params)


def test_dispersion_long_wavelength_property(params):
    for flux in (0.0, 0.2, 0.45):
        c = propagation_velocity(flux, params)
        for ka in (0.05, 0.1, 0.2, 0.3):
            k = ka / params.a
            w = dispersion(k, flux, params)
            assert abs(w / (c * k) - 1.0) < ka ** 2 / 20.0


# --- metric / horizon ---------------------------------------------------------------

def test_metric_far_field_positive(params, pulse):
    c = propagation_velocity(pulse(100 * pulse.rise_scale), params)
    g_tt, g_tx, g_xx = metric_components(c, params)
    assert g_tt > 0.0
    assert g_tx == -params.u
    assert g_xx == -1.0


def test_metric_trapped_region(params, pulse):
    c = propagation_velocity(pulse(-100 * pulse.rise_scale), params)
    g_tt, _, _ = metric_components(c, params)
    assert g_tt < 0.0  # inside the pulse c(0.2 Phi0) < u


def test_horizon_single_for_tanh(params, pulse):
    roots = find_horizon(pulse, params)
    assert len(roots) == 1
    g_tt, _, _ = metric_components(propagation_velocity(pulse(roots[0]), params), params)
    assert abs(g_tt) < 1e-6 * params.u ** 2


def test_no_horizon_when_too_fast(params, pulse):
    import dataclasses

    fast = dataclasses.replace(params, u=1.01 * propagation_velocity(0.0, params))
    with pytest.raises(NoHorizonError):
        find_horizon(pulse, fast)


def test_gaussian_pulse_pair_warns(params, pulse):
    gp = gaussian_pulse(0.2, 3 * pulse.rise_scale)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NoHorizonError):
            find_horizon(gp, params)
    assert any("white-hole" in str(w.message) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        roots = find_horizon(gp, params, allow_pair=True)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-roots[1], rel=1e-9)


# --- temperature / power / photons ----------------------------------------------------

def test_hawking_temperature_anchor(params, pulse):
    T = hawking_temperature(pulse, params)
    assert T == pytest.approx(0.120, rel=0.10)


def test_gradient_scaling_linearity(params, pulse):
    xi = find_horizon(pulse, params)[0]
    half = tanh_pulse(0.2, 2 * pulse.rise_scale)
    xi2 = find_horizon(half, params)[0]
    g1 = velocity_gradient(pulse, params, xi)
    g2 = velocity_gradient(half, params, xi2)
    assert g1 == pytest.approx(2 * g2, rel=1e-6)
    assert hawking_temperature(pulse, params, xi) == pytest.approx(
        2 * hawking_temperature(half, params, xi2), rel=1e-6)


def bracketed_rise_scale(amplitude, params, target_rate):
    """Reference solve of the gradient gap: brackets grown geometrically
    from the dimensional estimate, then Brent, one horizon solve per gap."""
    c_hi = propagation_velocity(0.0, params)
    c_lo = propagation_velocity(amplitude, params)
    w_guess = (c_hi - c_lo) / target_rate

    def gap(w):
        pulse = tanh_pulse(amplitude, w)
        xi_h = find_horizon(pulse, params)[0]
        return velocity_gradient(pulse, params, xi_h) - target_rate

    lo, hi = w_guess, w_guess
    for _ in range(60):
        if gap(lo) > 0.0:
            break
        lo /= 2.0
    for _ in range(60):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    return find_root_bracketed(gap, lo, hi,
                               Tolerance(abs_tol=1e-30, rel_tol=1e-12, max_iter=200))


@pytest.mark.parametrize("amplitude", [0.2, 0.3])
@pytest.mark.parametrize("rate", [0.05, 0.2])
@pytest.mark.parametrize("ratio", [0.93, 0.95])
def test_rise_scale_closed_form_matches_bracketed_solve(params, amplitude, rate, ratio):
    import dataclasses

    line = dataclasses.replace(params, u=ratio * propagation_velocity(0.0, params))
    target = rate * line.plasma_frequency(0.0) / TWO_PI
    rise = rise_scale_for_gradient_rate(amplitude, line, target)
    assert rise == pytest.approx(bracketed_rise_scale(amplitude, line, target), rel=1e-8)
    pulse = tanh_pulse(amplitude, rise)
    xi_h = find_horizon(pulse, line)[0]
    assert velocity_gradient(pulse, line, xi_h) == pytest.approx(target, rel=1e-8)


def test_rise_scale_rejects_bad_target(params):
    for target in (0.0, -1e9, math.nan, math.inf):
        with pytest.raises(ValueError):
            rise_scale_for_gradient_rate(0.2, params, target)
    with pytest.raises(NoHorizonError):
        rise_scale_for_gradient_rate(0.02, params, 1e9)


def test_gradient_matches_analytic_tanh(params, pulse):
    xi = find_horizon(pulse, params)[0]
    c0 = propagation_velocity(0.0, params)
    phi = pulse(xi)
    dphi = -0.5 * pulse.amplitude / pulse.rise_scale / math.cosh(
        xi / pulse.rise_scale) ** 2
    analytic = abs(c0 * 0.5 / math.sqrt(math.cos(math.pi * phi))
                   * (-math.pi * math.sin(math.pi * phi)) * dphi)
    assert velocity_gradient(pulse, params, xi) == pytest.approx(analytic, rel=1e-6)


def test_radiated_power():
    assert radiated_power(0.0) == 0.0
    from nlcavity.constants import hbar, k_B

    T = 0.120
    assert radiated_power(T) == pytest.approx(
        math.pi / (12 * hbar) * (k_B * T) ** 2, rel=1e-12)
    assert radiated_power(2 * T) / radiated_power(T) == pytest.approx(4.0, rel=1e-12)


def test_photons_per_pulse_anchor(params, T_H):
    count = photons_per_pulse(T_H, params)
    assert 0.5 < count < 2.0


def test_photons_linear_in_cell_count(params, T_H):
    import dataclasses

    full = photons_per_pulse(T_H, params, decay_per_1000_cells=0.0)
    half = photons_per_pulse(T_H, dataclasses.replace(params, N=params.N // 2),
                             decay_per_1000_cells=0.0)
    assert full / half == pytest.approx(2.0, rel=0.01)


def test_photons_decay_lowers_count(params, T_H):
    with_decay = photons_per_pulse(T_H, params)
    without = photons_per_pulse(T_H, params, decay_per_1000_cells=0.0)
    assert with_decay < without


# --- impedance / validity -----------------------------------------------------------

def test_impedance_zero_flux_value(params):
    Z = array_impedance(params, 0.0)
    from nlcavity.constants import e_charge

    expected = R_Q * math.sqrt(2 * math.pi * e_charge ** 2
                               / (Phi0 * params.C_0 * params.I_c))
    assert Z == pytest.approx(expected, rel=1e-12)
    assert Z / R_Q == pytest.approx(0.883, rel=1e-3)


def test_impedance_monotone_in_flux(params):
    fluxes = np.linspace(0.0, 0.49, 15)
    Zs = [array_impedance(params, f) for f in fluxes]
    assert all(b > a for a, b in zip(Zs, Zs[1:]))
    assert Zs[-1] > 2 * Zs[0]  # diverging toward the half flux quantum


def test_impedance_capacitance_scaling(params):
    import dataclasses

    quad = dataclasses.replace(params, C_0=4 * params.C_0)
    assert array_impedance(quad, 0.0) == pytest.approx(
        array_impedance(params, 0.0) / 2.0, rel=1e-12)


def test_validity_report_gates(params, pulse):
    report = validity_report(pulse, params)
    assert report["beta_L"] < 0.05
    assert report["Z_A_over_R_Q"] < 1.0
    assert report["max_flux_ratio"] == pytest.approx(0.2, abs=1e-6)


def test_pulse_validation():
    with pytest.raises(ValueError):
        tanh_pulse(0.6, 1e-6)
    with pytest.raises(ValueError):
        FluxPulse(shape=lambda x: 0.1, amplitude=0.1, rise_scale=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            tanh_pulse(0.2, bad)


def test_line_params_reject_non_finite(params):
    import dataclasses

    for name in ("I_c", "C_J", "C_0", "a", "u"):
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError):
                dataclasses.replace(params, **{name: bad})
    with pytest.raises(ValueError):
        dataclasses.replace(params, loop_inductance=math.inf)
