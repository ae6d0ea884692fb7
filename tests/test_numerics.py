import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from nlcavity.errors import BracketError, ConvergenceError, FitDegenerateError, StiffnessError
from nlcavity.numerics import (
    Tolerance,
    evolve_ode,
    find_root_bracketed,
    fit_lorentzian,
    integrate_adaptive,
    jacobi_dn,
    solve_cubic_real,
)


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


# --- adaptive Simpson ------------------------------------------------------

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


def test_integrate_depth_exhaustion_carries_estimate():
    # needle far narrower than the depth budget can resolve
    def needle(x, _):
        return 1.0 / ((x - 0.123456) ** 2 + 1e-24)

    with pytest.raises(ConvergenceError) as err:
        integrate_adaptive(needle, 0.0, 1.0, Tolerance(1e-12, 1e-12, max_iter=6))
    assert err.value.best_estimate is not None


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
    # the 3-node estimate (~0.03) misses the gamma = 1e-3 peak, so the first
    # pass's per-panel budget sits at round-off near the peak; the stopping
    # rule err <= rel_tol*|result| is still met through the retry
    gamma, b = 1e-3, 2.7091838691349146

    def f(x, _):
        return 2.0 * gamma / ((x - 1.0) ** 2 + gamma ** 2)

    exact = 2.0 * (math.atan((b - 1.0) / gamma) + math.atan(1.0 / gamma))
    got = integrate_adaptive(f, 0.0, b, Tolerance(abs_tol=1e-12, rel_tol=1e-10))
    assert got == pytest.approx(exact, rel=1e-10)


def test_integrate_unresolvable_integrand_stops():
    # NaN never passes the Richardson test, so every panel splits at every
    # level; the panel budget ends the doubling long before the depth cap
    with pytest.raises(ConvergenceError, match="panels"):
        integrate_adaptive(lambda x, _: np.full_like(x, np.nan), 0.0, 1.0)


def recursive_simpson(f, a, b, tol):
    """The depth-first adaptive Simpson recursion with scalar callbacks that
    integrate_adaptive's level-wise form reproduces."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    depth_cap = min(tol.max_iter, 48)

    def recurse(lo, hi, flo, fmid, fhi, s_whole, eps, depth):
        """(sum, hit the depth cap) over [lo, hi]."""
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        s_left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (s_left + s_right - s_whole) / 15.0
        if abs(err) <= eps or depth >= depth_cap:
            return s_left + s_right + err, not abs(err) <= eps
        left, left_failed = recurse(lo, mid, flo, flm, fmid, s_left, eps / 2.0, depth + 1)
        right, right_failed = recurse(mid, hi, fmid, frm, fhi, s_right, eps / 2.0, depth + 1)
        return left + right, left_failed or right_failed

    eps0 = max(tol.abs_tol, tol.rel_tol * abs(whole))
    result, failed = recurse(a, b, fa, fm, fb, whole, eps0, 0)
    eps1 = max(tol.abs_tol, tol.rel_tol * abs(result))
    if eps1 < eps0 / 4.0 or (failed and eps1 > eps0):
        result, failed = recurse(a, b, fa, fm, fb, whole, eps1, 0)
    assert not failed, "oracle hit the depth cap"
    return result


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    peak=st.tuples(st.floats(0, 5), st.floats(-10, 10), st.floats(1e-3, 1)),
    intervals=st.lists(st.tuples(st.floats(-10, 10), st.floats(1e-3, 20)),
                       min_size=1, max_size=5),
    rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
@example(coeffs=[0.0], peak=(1.0, 1.0, 0.001), intervals=[(0.0, 2.7091838691349146)],
         rel_tol=1e-10)
# only interval 1 (a line at 1.0 the coarse estimate misses) is refined twice
@example(coeffs=[0.0], peak=(1.0, 0.25, 0.001 / 1.5),
         intervals=[(5.0, 1.0), (0.0, 2.7091838691349146)], rel_tol=1e-10)
@settings(max_examples=60, deadline=None)
def test_integrate_intervals_match_scalar_calls_and_recursion(coeffs, peak, intervals, rel_tol):
    height, x0, gamma = peak

    def line(x, centre, width):  # Lorentzian plus Horner polynomial
        poly = 0.0 * x
        for c in coeffs:
            poly = poly * x + c
        return height * 2.0 * width / ((x - centre) ** 2 + width ** 2) + poly

    tol = Tolerance(abs_tol=1e-12, rel_tol=rel_tol)
    a = np.array([lo for lo, _ in intervals])
    b = np.array([lo + width for lo, width in intervals])
    # one shared integrand, and one whose line moves and widens with the
    # interval it is sampled for
    centres = x0 + 0.75 * np.arange(a.size)
    widths = gamma * (1.0 + 0.5 * np.arange(a.size))
    integrands = (
        (lambda x, _: line(x, x0, gamma), lambda k: lambda x: line(x, x0, gamma)),
        (lambda x, k: line(x, centres[k], widths[k]),
         lambda k: lambda x: line(x, float(centres[k]), float(widths[k]))),
    )
    for batched_f, scalar_f in integrands:
        batched = integrate_adaptive(batched_f, a, b, tol)
        assert isinstance(batched, np.ndarray) and batched.shape == a.shape
        for k in range(a.size):
            f_k = scalar_f(k)
            scalar = integrate_adaptive(lambda x, _: f_k(x), float(a[k]), float(b[k]), tol)
            assert isinstance(scalar, float)
            assert scalar == batched[k]
            oracle = recursive_simpson(f_k, float(a[k]), float(b[k]), tol)
            assert abs(scalar - oracle) <= 1e-12 * max(abs(oracle), tol.abs_tol)


# --- ODE -------------------------------------------------------------------

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


def test_ode_stage_kernel_matches_reference_loop_pair_generator(monkeypatch):
    # the full trilinear tier's own right-hand side, grid and tolerance
    from nlcavity import fock, trilinear

    seen = []

    def recording(rhs, y0, grid, tol):
        seen.append((rhs, y0, grid, tol))
        return evolve_ode(rhs, y0, grid, tol)

    monkeypatch.setattr(trilinear, "evolve_ode", recording)
    dim = fock.min_coherent_dim(3.0) + 3
    init = trilinear.PumpInitialState.coherent(3.0, dim)
    psi0 = trilinear.initial_product_state(init, fock.HilbertSpec((dim,) * 3))
    trilinear.evolve_full(psi0, np.linspace(0.0, 3.0, 31))
    rhs, y0, grid, tol = seen[0]
    _assert_kernel_matches_reference(rhs, y0, grid, tol)


def test_ode_step_underflow_raises_stiffness():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the step collapses before it
    with pytest.raises(StiffnessError):
        evolve_ode(lambda t, y: y * y, np.array([1.0 + 0j]), [0.0, 2.0])


def test_grid_validation():
    # the ODE stepper and the semiclassical tier share one grid check
    from nlcavity.trilinear import semiclassical_pump

    for grid in ([], [0.0, 0.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="grid must be"):
            evolve_ode(lambda t, y: -y, np.array([1.0 + 0j]), grid)
        with pytest.raises(ValueError, match="grid must be"):
            semiclassical_pump(9.0, grid)


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


# --- Brent -----------------------------------------------------------------

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


def _fit_lorentzian_reference(w, s):
    """The Levenberg-Marquardt loop as first written: every iteration
    rebuilds the model and Jacobian from theta, rejected steps included."""
    smax = s.max()
    ipk = int(np.argmax(s))
    idx = np.where(s >= 0.5 * smax)[0]
    gamma = 0.5 * (w[idx[-1]] - w[idx[0]]) if w[idx[-1]] > w[idx[0]] \
        else 0.25 * (w[-1] - w[0])
    gamma = max(gamma, float(np.min(np.diff(w))))
    theta = np.array([w[ipk], gamma, smax * gamma / 2.0])
    lam, prev_cost = 1e-3, None
    for _ in range(200):
        c, g, A = theta
        denom = (w - c) ** 2 + g ** 2
        r = s - 2.0 * A * g / denom
        cost = float(r @ r)
        J = np.column_stack([4.0 * A * g * (w - c) / denom ** 2,
                             2.0 * A * (denom - 2.0 * g ** 2) / denom ** 2,
                             2.0 * g / denom])
        JTJ = J.T @ J
        step = np.linalg.solve(JTJ + lam * np.diag(np.diag(JTJ).copy()), J.T @ r)
        trial = theta + step
        trial[1] = abs(trial[1])
        c2, g2, A2 = trial
        cost2 = float(np.sum((s - 2.0 * A2 * g2 / ((w - c2) ** 2 + g2 ** 2)) ** 2))
        if cost2 <= cost:
            theta = trial
            lam = max(lam / 3.0, 1e-12)
            if prev_cost is not None and abs(prev_cost - cost2) <= 1e-14 * max(cost2, 1e-300):
                break
            prev_cost = cost2
        else:
            lam *= 4.0
            if lam > 1e10:
                break
    c, g, A = (float(v) for v in theta)
    model = 2.0 * A * g / ((w - c) ** 2 + g ** 2)
    return c, g, A, float(np.linalg.norm(s - model) / np.linalg.norm(s))


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
        assert fit_lorentzian(w, s) == _fit_lorentzian_reference(w, s)


def test_fit_needs_five_samples():
    with pytest.raises(ValueError):
        fit_lorentzian([0, 1, 2], [1, 2, 1])
