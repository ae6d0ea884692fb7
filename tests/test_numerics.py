import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from nlcavity.errors import ConvergenceError, FitDegenerateError
from nlcavity.numerics import (
    Tolerance,
    fit_lorentzian,
    integrate_adaptive,
    jacobi_dn,
    solve_cubic_real,
)
from oracles import (BracketError, StiffnessError, evolve_ode, find_root_bracketed,
                     fit_lorentzian_reference, fock_pump, pair_rhs)

EPS = np.finfo(float).eps


# --- jacobi dn -------------------------------------------------------------

def dn_rk4_oracle(u, m, steps=4000):
    """Integrate the defining ODE system sn' = cn dn, cn' = -sn dn,
    dn' = -m sn cn from (0, 1, 1) with fixed-step RK4."""
    def rhs(y):
        sn, cn, dn = y
        return np.array([cn * dn, -sn * dn, -m * sn * cn])

    y = np.array([0.0, 1.0, 1.0])
    h = u / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[2]


def test_dn_at_zero():
    assert jacobi_dn(0.0, 0.5) == 1.0


def test_dn_m1_is_sech():
    assert jacobi_dn(2.0, 1.0) == pytest.approx(1.0 / math.cosh(2.0), abs=1e-15)


@pytest.mark.parametrize("u", np.linspace(-4, 4, 9))
def test_dn_limit_identities(u):
    assert jacobi_dn(u, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert jacobi_dn(u, 1.0) == pytest.approx(1.0 / math.cosh(u), abs=1e-12)


@pytest.mark.parametrize("u,m", [(1.0, 0.9085), (0.4, 0.3), (2.5, 0.75)])
def test_dn_vs_ode_oracle(u, m):
    assert jacobi_dn(u, m) == pytest.approx(dn_rk4_oracle(u, m), abs=1e-9)


@pytest.mark.parametrize("m", [0.0, 0.3, 0.9085, 1.0])
def test_dn_array_matches_scalar_calls(m):
    u = np.linspace(-6.0, 6.0, 49)
    dn = jacobi_dn(u, m)
    assert dn.shape == u.shape
    np.testing.assert_allclose(dn, [jacobi_dn(float(x), m) for x in u], rtol=1e-15, atol=0.0)


def test_dn_domain_error():
    with pytest.raises(ValueError):
        jacobi_dn(1.0, -0.1)
    with pytest.raises(ValueError):
        jacobi_dn(1.0, 1.5)


@given(u=st.floats(-10, 10), m=st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_dn_range_property(u, m):
    dn = jacobi_dn(u, m)
    assert dn <= 1.0 + 1e-12
    assert dn >= math.sqrt(1.0 - m) - 1e-12


# --- incomplete gamma by quadrature ----------------------------------------

def test_gamma_quadrature_oracle():
    # int_4^inf t^9 e^-t dt, upper limit where the tail is < 1e-18 relative
    val = integrate_adaptive(lambda t, _: t ** 9 * np.exp(-t), 4.0, 120.0,
                             Tolerance(abs_tol=1e-6, rel_tol=1e-12))
    assert gammaincc(10.0, 4.0) * math.gamma(10.0) == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("s,x", [(0.7, 0.3), (3.5, 2.0), (5.0, 9.0), (12.0, 30.0)])
def test_gamma_complementarity(s, x):
    # lower gamma by quadrature; for s < 1 the substitution t = u^(1/s)
    # regularizes the t -> 0 endpoint
    if s < 1.0:
        lower = integrate_adaptive(
            lambda u, _: np.exp(-u ** (1.0 / s)) / s, 0.0, x ** s,
            Tolerance(abs_tol=1e-16, rel_tol=1e-12))
    else:
        lower = integrate_adaptive(
            lambda t, _: t ** (s - 1.0) * np.exp(-t), 0.0, x,
            Tolerance(abs_tol=1e-16, rel_tol=1e-12))
    assert gammaincc(s, x) * math.gamma(s) + lower == pytest.approx(
        math.gamma(s), rel=1e-9)


# --- adaptive Gauss-Kronrod ------------------------------------------------

def test_integrate_constant():
    assert integrate_adaptive(lambda x, _: np.ones_like(x), 0.0, 2.0) == pytest.approx(
        2.0, rel=1e-14)


def test_integrate_sin():
    assert integrate_adaptive(lambda x, _: np.sin(x), 0.0, math.pi) == pytest.approx(
        2.0, rel=1e-9)


def test_integrate_lorentzian_closed_form():
    gamma, x0 = 0.37, 4.0

    def f(x, _):
        return 2.0 * gamma / ((x - x0) ** 2 + gamma ** 2)

    exact = 2.0 * (math.atan(20.0) - math.atan(-20.0))
    got = integrate_adaptive(f, x0 - 20 * gamma, x0 + 20 * gamma,
                             Tolerance(abs_tol=1e-14, rel_tol=1e-11))
    assert got == pytest.approx(exact, rel=1e-10)


def test_integrate_error_bound_corpus():
    cases = [
        (lambda x, _: x ** 3, 0.0, 1.0, 0.25),
        (lambda x, _: np.exp(x), 0.0, 1.0, math.e - 1.0),
        (lambda x, _: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    ]
    tol = Tolerance(abs_tol=1e-12, rel_tol=1e-10)
    for f, a, b, exact in cases:
        got = integrate_adaptive(f, a, b, tol)
        assert abs(got - exact) <= max(tol.abs_tol, tol.rel_tol * abs(exact)) * 10


def test_integrate_depth_exhaustion_names_the_cap():
    # needle far narrower than the depth budget can resolve
    def needle(x, _):
        return 1.0 / ((x - 0.123456) ** 2 + 1e-24)

    with pytest.raises(ConvergenceError, match=r"hit the depth cap \(6\) before converging"):
        integrate_adaptive(needle, 0.0, 1.0, Tolerance(1e-12, 1e-12, max_iter=6))


def test_integrate_bad_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x, _: np.sin(x), 1.0, 0.0)


def test_integrate_rejects_bad_intervals_and_shapes():
    for a, b in ((1.0, 1.0), ([0.0, 1.0, 2.0], [1.0, 3.0, 2.0]), ([0.0, 2.0], [1.0, 1.0])):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x, _: np.sin(x), np.array(a), np.array(b))
    for f in (lambda x, _: 1.0, lambda x, _: np.ones(x.size + 1), lambda x, _: x[:, None]):
        with pytest.raises(ValueError):
            integrate_adaptive(f, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate_adaptive(f, np.zeros(3), np.ones(3))


def test_integrate_narrow_peak_missed_by_coarse_estimate():
    # the gamma = 1e-3 line is far narrower than the first level's node
    # spacing; the target follows the estimate as the refinement finds it
    gamma, b = 1e-3, 2.7091838691349146

    def f(x, _):
        return 2.0 * gamma / ((x - 1.0) ** 2 + gamma ** 2)

    exact = 2.0 * (math.atan((b - 1.0) / gamma) + math.atan(1.0 / gamma))
    got = integrate_adaptive(f, 0.0, b, Tolerance(abs_tol=1e-12, rel_tol=1e-10))
    assert got == pytest.approx(exact, rel=1e-10)


def test_integrate_cancelling_result_below_round_off():
    # the line (area ~12.56) nearly cancels the background (-12.69): the
    # target rel_tol*|estimate| falls a hundredfold as the refinement
    # resolves the line, and the result meets the final one
    gamma, b = 1e-3, 12.690695510287037

    def f(x, _):
        return 4.0 * gamma / ((x - 1.0) ** 2 + gamma ** 2) - 1.0

    exact = 4.0 * (math.atan((b - 1.0) / gamma) + math.atan(1.0 / gamma)) - b
    got = integrate_adaptive(f, 0.0, b, Tolerance(abs_tol=1e-12, rel_tol=1e-10))
    assert abs(got - exact) <= 1e-10 * abs(exact)
    # a depth budget the refinement cannot converge in still raises (it
    # needs 14 levels; max_iter 13 or less raises)
    with pytest.raises(ConvergenceError, match="depth cap"):
        integrate_adaptive(f, 0.0, b, Tolerance(abs_tol=1e-12, rel_tol=1e-10, max_iter=6))


def test_integrate_unresolvable_integrand_stops():
    # NaN never passes the error test, so every panel splits at every
    # level; the panel budget ends the doubling long before the depth cap
    with pytest.raises(ConvergenceError, match="panels"):
        integrate_adaptive(lambda x, _: np.full_like(x, np.nan), 0.0, 1.0)


def line_integral(coeffs, height, centre, width, a, b):
    """(exact integral, bound on the integral of |f|) over [a, b] of the
    Lorentzian-plus-Horner-polynomial integrand of the property below."""
    exact = height * 2.0 * (math.atan((b - centre) / width) - math.atan((a - centre) / width))
    magnitude = abs(exact)
    for i, c in enumerate(coeffs):
        p = len(coeffs) - i  # c multiplies x^(p - 1)
        exact += c * (b ** p - a ** p) / p
        magnitude += abs(c) * (math.copysign(abs(b) ** p, b) - math.copysign(abs(a) ** p, a)) / p
    return exact, magnitude


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    peak=st.tuples(st.floats(0, 5), st.floats(-10, 10), st.floats(1e-3, 1)),
    intervals=st.lists(st.tuples(st.floats(-10, 10), st.floats(1e-3, 20)),
                       min_size=1, max_size=5),
    rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
@example(coeffs=[0.0], peak=(1.0, 1.0, 0.001), intervals=[(0.0, 2.7091838691349146)],
         rel_tol=1e-10)
@example(coeffs=[0.0], peak=(1.0, 0.25, 0.001 / 1.5),
         intervals=[(5.0, 1.0), (0.0, 2.7091838691349146)], rel_tol=1e-10)
# the line cancels its background
@example(coeffs=[-1.0], peak=(2.0, 1.0, 0.001), intervals=[(0.0, 12.690695510287037)],
         rel_tol=1e-10)
# narrow lines whose node round-off exceeds a per-panel budget that halves
# with depth, which raised a depth-cap or panel-budget ConvergenceError
@example(coeffs=[-0.587], peak=(2.74, 8.28, 0.001), intervals=[(5.13, 23.05 - 5.13)],
         rel_tol=1e-10)
@example(coeffs=[-1.0], peak=(4.25, -8.966, 0.001), intervals=[(-9.467, 6.025 + 9.467)],
         rel_tol=1e-10)
@example(coeffs=[0.0], peak=(4.41, 5.46, 0.001), intervals=[(2.18, 17.98 - 2.18)],
         rel_tol=1e-10)
@settings(max_examples=60, deadline=None)
def test_integrate_intervals_match_scalar_calls_and_closed_form(coeffs, peak, intervals,
                                                               rel_tol):
    height, x0, gamma = peak

    def line(x, centre, width):  # Lorentzian plus Horner polynomial
        # width * width: a float's ** 2 (libm pow) and an array's (a square)
        # can differ in the last bit, and the scalar calls take floats
        poly = 0.0 * x
        for c in coeffs:
            poly = poly * x + c
        return height * 2.0 * width / ((x - centre) ** 2 + width * width) + poly

    tol = Tolerance(abs_tol=1e-12, rel_tol=rel_tol)
    a = np.array([lo for lo, _ in intervals])
    b = np.array([lo + width for lo, width in intervals])
    # one shared integrand, and one whose line moves and widens with the
    # interval it is sampled for
    centres = x0 + 0.75 * np.arange(a.size)
    widths = gamma * (1.0 + 0.5 * np.arange(a.size))
    integrands = (
        (lambda x, _: line(x, x0, gamma), lambda k: (x0, gamma)),
        (lambda x, k: line(x, centres[k], widths[k]),
         lambda k: (float(centres[k]), float(widths[k]))),
    )
    for batched_f, line_of in integrands:
        batched = integrate_adaptive(batched_f, a, b, tol)
        assert isinstance(batched, np.ndarray) and batched.shape == a.shape
        for k in range(a.size):
            centre, width = line_of(k)
            lo, hi = float(a[k]), float(b[k])
            scalar = integrate_adaptive(lambda x, _: line(x, centre, width), lo, hi, tol)
            assert isinstance(scalar, float)
            assert scalar == batched[k]
            # the closed form is checked on a partition that resolves the
            # line, with breakpoints at its centre and 1, 10, 100, ... widths
            # from it: no rule that samples points can see a line much
            # narrower than its node spacing
            offsets = width * 10.0 ** np.arange(5)
            inner = np.concatenate([centre - offsets, [centre], centre + offsets])
            cuts = np.concatenate([[lo], np.sort(inner[(inner > lo) & (inner < hi)]), [hi]])
            pieces = integrate_adaptive(lambda x, _: line(x, centre, width),
                                        cuts[:-1], cuts[1:], tol)
            for p, q, got in zip(cuts, cuts[1:], pieces):
                exact, magnitude = line_integral(coeffs, height, centre, width, p, q)
                bound = max(tol.abs_tol, tol.rel_tol * abs(exact)) + 64.0 * EPS * magnitude
                assert abs(got - exact) <= bound


# --- ODE (the RK45 oracle of tests/oracles.py) ------------------------------

def test_ode_rotation_one_period():
    w = 2.3
    out = evolve_ode(lambda t, y: -1j * w * y, np.array([1.0 + 0j]),
                     [0.0, 2 * math.pi / w], Tolerance(1e-12, 1e-10))
    assert abs(out[-1][0] - 1.0) < 1e-8


def test_ode_zero_rhs_constant():
    y0 = np.array([1.0 + 2j, -0.5 + 0j, 3j])
    out = evolve_ode(lambda t, y: np.zeros_like(y), y0, np.linspace(0, 5, 7))
    for y in out:
        assert np.allclose(y, y0, atol=1e-14)


def test_ode_subnormal_span_terminates():
    for span in (1e-310, 5e-324):
        out = evolve_ode(lambda t, y: -1j * y, np.array([1.0 + 0j]), [0.0, span])
        assert out[-1][0] == pytest.approx(1.0, abs=1e-15)


def test_ode_vs_expm_oracle():
    import scipy.linalg as sla

    rng = np.random.default_rng(11)
    M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    G = M - M.conj().T  # anti-Hermitian, like the trilinear generator
    y0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    y0 /= np.linalg.norm(y0)
    out = evolve_ode(lambda t, y: G @ y, y0, [0.0, 1.0], Tolerance(1e-12, 1e-10))
    assert np.linalg.norm(out[-1] - sla.expm(G) @ y0) < 1e-8


def test_ode_norm_preservation_anti_hermitian():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    G = M - M.conj().T
    y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    y0 /= np.linalg.norm(y0)
    out = evolve_ode(lambda t, y: G @ y, y0, np.linspace(0, 1, 11))
    for y in out:
        assert abs(np.linalg.norm(y) - 1.0) < 1e-8


_DP_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_STAGES = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _evolve_ode_reference(rhs, y0, grid, tol):
    """The Dormand-Prince loop as first written: every stage input, y5 and
    y4 are Python sums over a list of stages."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0, dtype=complex).copy()
    out = [y.copy()]
    t = float(grid[0])
    span = float(grid[-1] - grid[0])
    h = max(span / 100.0, np.finfo(float).tiny)
    k1 = np.asarray(rhs(t, y), dtype=complex)
    for target in grid[1:]:
        while t < target:
            clamped = h >= target - t
            h_step = target - t if clamped else h
            if h_step <= 1e-14 * max(abs(t), span):
                raise StiffnessError(f"step size underflow at t={t}")
            ks = [k1]
            for i in range(1, 7):
                yi = y + h_step * sum(aij * kj for aij, kj in zip(_DP_STAGES[i], ks))
                ks.append(np.asarray(rhs(t + _DP_NODES[i] * h_step, yi), dtype=complex))
            y5 = y + h_step * sum(b * k for b, k in zip(_DP_B5, ks) if b)
            y4 = y + h_step * sum(b * k for b, k in zip(_DP_B4, ks) if b)
            scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.max(np.abs(y5 - y4) / scale))
            if err <= 1.0:
                t = target if clamped else t + h_step
                y = y5
                k1 = ks[6]
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = h_step * grow
            else:
                h = h_step * max(0.1, 0.9 * err ** -0.25)
        out.append(y.copy())
    return np.array(out)


def _counted(rhs):
    calls = []

    def f(t, y):
        calls.append(t)
        return rhs(t, y)
    return f, calls


def _step_sequence(times):
    """Accepted (True) or rejected (False) for each step, read off the rhs
    times: a step of size h from t calls rhs at t + h/5, ..., t + h, t + h,
    and a rejected step is retried from the same t."""
    stages = np.reshape(times[1:], (-1, 6))
    h = 1.25 * (stages[:, 5] - stages[:, 0])
    start = stages[:, 5] - h
    return np.append(np.diff(start) > 0.5 * h[:-1], True)


def _assert_kernel_matches_reference(rhs, y0, grid, tol):
    """Same accepted/rejected step sequence and samples within 1e-13 of the
    reference loop's. The two error estimates differ at round-off, so the
    step sizes agree closely but not bit for bit."""
    f, calls = _counted(rhs)
    out = evolve_ode(f, y0, grid, tol)
    f_ref, calls_ref = _counted(rhs)
    ref = _evolve_ode_reference(f_ref, y0, grid, tol)
    assert len(calls) == len(calls_ref)
    np.testing.assert_array_equal(_step_sequence(calls), _step_sequence(calls_ref))
    np.testing.assert_allclose(calls, calls_ref, rtol=1e-4, atol=0.0)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-13


def test_ode_stage_kernel_matches_reference_loop_dense():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    G = M - M.conj().T  # skew-Hermitian
    y0 = rng.normal(size=12) + 1j * rng.normal(size=12)
    y0 /= np.linalg.norm(y0)
    for tol in (Tolerance(1e-12, 1e-10), Tolerance()):
        _assert_kernel_matches_reference(lambda t, y: G @ y, y0, np.linspace(0, 2, 9), tol)


def test_ode_stage_kernel_matches_reference_loop_pair_generator():
    # the pair-span right-hand side at N_a = 3, with the grid and tolerance
    # the full trilinear tier was once integrated with
    from nlcavity import fock, trilinear

    dim = fock.min_coherent_dim(3.0) + 3
    init = trilinear.PumpInitialState.coherent(3.0, dim)
    y0 = np.zeros((dim, dim), dtype=complex)
    y0[:, 0] = init.coefficients
    _assert_kernel_matches_reference(pair_rhs(dim, dim), y0.ravel(), np.linspace(0.0, 3.0, 31),
                                     Tolerance(1e-12, 1e-10))


def test_ode_step_underflow_raises_stiffness():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the step collapses before it
    with pytest.raises(StiffnessError):
        evolve_ode(lambda t, y: y * y, np.array([1.0 + 0j]), [0.0, 2.0])


def test_grid_validation():
    # the runtime users of the one grid check, and the RK45 oracle
    from nlcavity.trilinear import full_state, semiclassical_pump

    init = fock_pump(1, dim=3)
    for grid in ([], [0.0, 0.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="grid must be"):
            full_state(init, grid)
        with pytest.raises(ValueError, match="grid must be"):
            semiclassical_pump(9.0, grid)
        with pytest.raises(ValueError, match="grid must be"):
            evolve_ode(lambda t, y: -y, np.array([1.0 + 0j]), grid)


# --- cubic -----------------------------------------------------------------

def test_cubic_all_zero():
    assert solve_cubic_real(0.0, 0.0, 0.0) == [0.0]


def test_cubic_factored():
    roots = solve_cubic_real(-6.0, 11.0, -6.0)
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-9)


def test_cubic_double_root():
    # (E - 2)^2 (E - 7): double root must come back once, polished
    roots = solve_cubic_real(-11.0, 32.0, -28.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(2.0, abs=1e-6)
    assert roots[1] == pytest.approx(7.0, abs=1e-9)


def test_cubic_near_double_root_is_resolved():
    # E^2 (E + 48) + 1e-9: the discriminant sits in the borderline band, and
    # the near-double pair at E ~ 0 is complex, so only E ~ -48 is real
    roots = solve_cubic_real(48.0, 0.0, 1e-9)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-48.0, abs=1e-12)
    # E (E - 1)^2 + 1e-14 E: the same pair pushed off the axis
    assert solve_cubic_real(-2.0, 1.0 + 1e-14, 0.0) == pytest.approx([0.0], abs=1e-12)
    # E (E - 1)^2 - d E: the pair splits into two real roots 1 -+ sqrt(d)
    c1 = 1.0 - 1e-14
    h = math.sqrt(1.0 - c1)
    roots = solve_cubic_real(-2.0, c1, 0.0)
    assert len(roots) == 3
    # the slope there is ~2h, so round-off in the residual moves each root
    # by ~1e-15 / 2h ~ 1e-8
    assert roots[1:] == pytest.approx([1.0 - h, 1.0 + h], abs=1e-8)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=300, deadline=None)
def test_cubic_residual_property(c2, c1, c0):
    roots = solve_cubic_real(c2, c1, c0)
    assert roots, "a real cubic always has at least one real root"
    for e in roots:
        res = ((e + c2) * e + c1) * e + c0
        assert abs(res) < 1e-9 * max(1.0, abs(e)) ** 3


def test_cubic_rejects_nonfinite():
    with pytest.raises(ValueError):
        solve_cubic_real(math.nan, 0.0, 0.0)


# --- Brent (the root-finding oracle of tests/oracles.py) -----------------

def bisect_oracle(f, lo, hi, iters=80):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_brent_linear():
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0)


def test_brent_mode_equation_vs_bisection():
    # (x/2) tan(x/2) = 1/zeta with zeta = 1
    def f(x):
        return 0.5 * x * math.tan(0.5 * x) - 1.0

    root = find_root_bracketed(f, 1e-9, math.pi - 1e-9)
    assert root == pytest.approx(bisect_oracle(f, 1e-9, math.pi - 1e-9), abs=1e-10)
    assert abs(f(root)) < 1e-12


def test_brent_tanh_horizon_vs_scan():
    u = 0.8

    def f(x):
        return 0.5 * (1.0 + math.tanh(-x / 0.3)) + 0.4 - u  # c(x) - u

    xs = np.linspace(-3, 3, 20001)
    vals = np.array([f(x) for x in xs])
    idx = np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert len(idx) == 1
    scan_root = xs[idx[0]]
    root = find_root_bracketed(f, -3.0, 3.0)
    assert abs(root - scan_root) < 2 * (xs[1] - xs[0])


def test_brent_no_bracket():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


# --- Lorentzian fit ---------------------------------------------------------

def lorentzian(w, c, g, a):
    return 2.0 * a * g / ((w - c) ** 2 + g ** 2)


def test_fit_exact_samples():
    w = np.linspace(-10, 10, 301)
    s = lorentzian(w, 1.3, 0.8, 2.5)
    c, g, a, res = fit_lorentzian(w, s)
    assert c == pytest.approx(1.3, abs=1e-6)
    assert g == pytest.approx(0.8, rel=1e-6)
    assert a == pytest.approx(2.5, rel=1e-6)
    assert res < 1e-7


def test_fit_constant_degenerate():
    w = np.linspace(0, 1, 50)
    with pytest.raises(FitDegenerateError):
        fit_lorentzian(w, np.ones_like(w))


def test_fit_two_peaks_fails_gate():
    w = np.linspace(-20, 30, 1001)
    s = lorentzian(w, 0.0, 1.0, 1.0) + lorentzian(w, 10.0, 1.0, 1.0)
    _, _, _, res = fit_lorentzian(w, s)
    assert res > 0.05


def test_fit_matches_reference_loop_bitwise():
    rng = np.random.default_rng(7)
    w = np.linspace(-10, 10, 1601)
    clean = lorentzian(w, 1.3, 0.8, 2.5)
    spectra = [
        clean,
        np.clip(clean * (1.0 + 0.05 * rng.standard_normal(w.size)), 0.0, None),
        lorentzian(w, 0.0, 1.0, 1.0) + lorentzian(w, 6.0, 1.0, 1.0),
        clean + 0.02 * clean.max(),
    ]
    for s in spectra:
        assert fit_lorentzian(w, s) == fit_lorentzian_reference(w, s)


@settings(max_examples=80, deadline=None)
@given(center=st.floats(-4.0, 4.0), width=st.floats(0.05, 4.0),
       noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
       background=st.sampled_from([0.0, 1e-3, 0.02, 0.2]),
       second=st.sampled_from([0.0, 0.3, 1.0]), split=st.floats(1.0, 8.0),
       n=st.sampled_from([41, 401, 1601]), seed=st.integers(0, 2 ** 16))
def test_fit_matches_reference_loop_on_corpus(center, width, noise, background, second,
                                              split, n, seed):
    # clean, noisy, flat-background and two-peak (stalling) lines: the loop
    # that reuses what it holds must take the reference loop's path exactly
    w = np.linspace(-10.0, 10.0, n)
    s = lorentzian(w, center, width, 1.0) + second * lorentzian(w, center + split, width, 1.0)
    s = s + background * s.max()
    s = np.clip(s * (1.0 + noise * np.random.default_rng(seed).standard_normal(n)), 0.0, None)
    assert fit_lorentzian(w, s) == fit_lorentzian_reference(w, s)


def test_fit_non_finite_step_is_degenerate(monkeypatch):
    # the LM step calls the LAPACK solve directly, which returns NaN for a
    # singular system (with numpy's "invalid value" RuntimeWarning) where
    # np.linalg.solve raised LinAlgError: a non-finite step must still end
    # the fit as degenerate
    import nlcavity.numerics as numerics

    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert np.isnan(numerics._solve(np.zeros((3, 3)), np.ones(3))).all()
    w = np.linspace(-10, 10, 301)
    s = lorentzian(w, 1.3, 0.8, 2.5)
    for bad in (math.nan, math.inf):
        monkeypatch.setattr(numerics, "_solve", lambda a, b, bad=bad: np.full(3, bad))
        with pytest.raises(FitDegenerateError, match="singular normal equations"):
            fit_lorentzian(w, s)


def test_fit_needs_five_samples():
    with pytest.raises(ValueError):
        fit_lorentzian([0, 1, 2], [1, 2, 1])
