import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import gammaincc
from hypothesis import example, given, settings, strategies as st

from nlcavity import fock, trilinear
from nlcavity.errors import TruncationError
from nlcavity.trilinear import (
    PumpInitialState,
    full_state,
    pair_state,
    parametric_occupation,
    pump_betas,
    semiclassical_occupation,
    semiclassical_pump,
    short_time_state,
)
from oracles import (
    HilbertSpec,
    assemble,
    blocks_of,
    branch_coefficient,
    branch_normalization,
    build_interaction_hamiltonian,
    einsum_pair_state,
    embed,
    evolve_pair_rk45,
    expectation,
    fock_pump,
    full_state_eigh,
    interaction_generator,
    ladder_ops,
    long_time_signal,
    max_boundary_population,
    mode_numbers,
    pair_dim,
    parametric_state,
    parametric_temperature,
    partial_trace,
    pump_mean_occupation,
    reduced,
    state_vector,
)


def C_of(tier, init, tau, **kwargs):
    """C[..., p, i] of a quantized tier, assembled from its block stream."""
    return assemble(tier(init, tau, **kwargs), pair_dim(init))


# --- parametric tier ---------------------------------------------------------

def test_parametric_occupation_values():
    assert parametric_occupation(3.0, 0.0) == 0.0
    assert parametric_occupation(3.0, 0.5) == pytest.approx(math.sinh(1.5) ** 2)
    assert parametric_occupation(0.0, 7.7) == 0.0


def test_parametric_state_vacuum_at_zero():
    psi = parametric_state(3.0, 0.0, 6)
    assert abs(psi.amplitudes[0]) == pytest.approx(1.0)


def test_parametric_state_matches_occupation():
    A, tau, dim = 1.0, 0.6, 25
    psi = parametric_state(A, tau, dim)
    spec = psi.spec
    _, _, num = ladder_ops(dim)
    nb = expectation(psi, embed(num, 0, spec)).real
    assert nb == pytest.approx(parametric_occupation(A, tau), abs=1e-7)


def test_parametric_state_reduced_geometric():
    psi = parametric_state(1.0, 0.7, 25)
    rho = partial_trace(psi, keep=[1])  # trace over the first (signal) mode
    diag = np.diag(rho.entries).real
    assert np.allclose(diag[1:5] / diag[0:4], math.tanh(0.7) ** 2, atol=1e-9)


def test_parametric_state_truncation_gate():
    with pytest.raises(TruncationError):
        parametric_state(3.0, 1.5, 10)


def test_parametric_temperature_value():
    from nlcavity.constants import hbar, k_B

    w = 2 * math.pi * 5e9
    T = parametric_temperature(3.0, 0.5, w)
    assert T == pytest.approx(5.017232562426334 * hbar * w / k_B, rel=1e-12)


def test_parametric_temperature_bose_identity():
    # n = sinh^2(r) and T from ln coth(r) must satisfy the Bose relation
    from nlcavity.qinfo import bose_occupation

    w = 1.0e9
    for r in (0.3, 1.0, 2.2):
        T = parametric_temperature(1.0, r, w)
        assert bose_occupation(w, T) == pytest.approx(math.sinh(r) ** 2, rel=1e-10)


def test_parametric_temperature_monotone():
    w = 1e9
    taus = np.linspace(0.05, 3.0, 40)
    Ts = [parametric_temperature(1.0, t, w) for t in taus]
    assert all(b > a for a, b in zip(Ts, Ts[1:]))
    assert parametric_temperature(1.0, 0.0, w) == 0.0


# --- semiclassical tier --------------------------------------------------------

def test_pump_betas_nine():
    bp, bm = pump_betas(9.0)
    assert bp == pytest.approx(9.952163011671203, rel=1e-12)
    assert bm == pytest.approx(-0.4521630116712032, rel=1e-12)
    m = (9.0 - bm) / (bp - bm)
    assert m == pytest.approx(0.9084839316323808, rel=1e-12)


def test_semiclassical_initial_value():
    curve = semiclassical_pump(9.0, np.linspace(0, 2, 41))
    assert curve.N_a[0] == pytest.approx(9.0, abs=1e-12)
    assert curve.theta[0] == 0.0
    assert np.all(np.diff(curve.theta) >= 0.0)
    assert np.all(curve.N_a >= 0.0)
    assert np.all(curve.N_a <= 9.0 + 1e-12)


def test_semiclassical_pump_evaluates_dn_per_grid(monkeypatch):
    # the pump curve and each quadrature level are one elementwise dn call
    calls = []
    dn = trilinear.jacobi_dn

    def counted_dn(*args):
        calls.append(1)
        return dn(*args)

    monkeypatch.setattr(trilinear, "jacobi_dn", counted_dn)
    taus = np.linspace(0.0, 3.0, 400)
    semiclassical_pump(9.0, taus)
    assert 0 < len(calls) < taus.size


def test_semiclassical_occupation_small_tau():
    taus = np.linspace(0, 0.05, 11)
    curve = semiclassical_pump(9.0, taus)
    nb = semiclassical_occupation(curve)
    # matches the parametric tier to O(tau^3): sinh^2(3 tau) ~ 9 tau^2
    for t, v in zip(taus, nb):
        assert v == pytest.approx(parametric_occupation(3.0, t), abs=2e-4)
    assert nb[5] == pytest.approx(9 * taus[5] ** 2, rel=5e-3)


def test_semiclassical_tracks_then_departs_full():
    taus = np.linspace(0, 2.0, 51)
    curve = semiclassical_pump(9.0, taus)
    nb_semi = semiclassical_occupation(curve)

    dim = 30
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(9.0, dim)
    states = [state_vector(C, spec) for C in C_of(full_state, init, taus)]
    nb_op = mode_numbers(spec)[1]
    nb_full = np.array([expectation(s, nb_op).real for s in states])

    early = taus <= 0.5  # pump not yet depleted
    rel = np.abs(nb_semi[early][1:] - nb_full[early][1:]) / nb_full[early][1:]
    assert rel.max() < 0.12
    late_gap = np.abs(nb_semi[taus >= 1.2] - nb_full[taus >= 1.2])
    assert late_gap.max() > 1.0  # semiclassical tier diverges after depletion


def test_semiclassical_rejects_bad_input():
    with pytest.raises(ValueError):
        semiclassical_pump(0.0, [0.0, 1.0])


# --- short-time tier -----------------------------------------------------------

def test_branch_coefficient_values():
    assert branch_coefficient(0, 5) == pytest.approx(1.0)
    assert branch_coefficient(1, 9) == pytest.approx(3.0, rel=1e-12)
    # k = 1/2 closed form sqrt(s!/(s-n)!)
    assert branch_coefficient(3, 7) == pytest.approx(
        math.sqrt(math.factorial(7) / math.factorial(4)), rel=1e-12)


def test_branch_normalization_gamma_identity():
    for s, tau in [(4, 0.5), (9, 1.1), (15, 2.0)]:
        closed = math.exp(tau ** -2) * tau ** (2 * s) \
            * gammaincc(s + 1, tau ** -2) * math.gamma(s + 1)
        assert branch_normalization(s, tau) == pytest.approx(closed, rel=1e-10)
    assert branch_normalization(7, 0.0) == 1.0


def test_short_time_branches_normalized():
    # branch s sits on the anti-diagonal p + i = s and carries weight |a_s|^2
    init = PumpInitialState.coherent(9.0, 30)
    for tau in (0.0, 0.3, 2.0, 100.0):
        pops = np.abs(C_of(short_time_state, init, tau)) ** 2
        for s, P_s in enumerate(init.probabilities):
            assert np.trace(np.fliplr(pops), offset=pops.shape[1] - 1 - s) == \
                pytest.approx(P_s, abs=1e-9)


def test_pair_state_matches_branch_formula_and_full_grid():
    # C[s-n, n] = a_s f_n(s) tau^n / sqrt(N_s(tau)), built branch by branch;
    # every read-out of the pair state against its full-grid oracle
    dim = 18
    init = PumpInitialState.coherent(4.0, dim)
    spec = HilbertSpec((dim, dim, dim + 2))
    N = mode_numbers(spec)
    for tau in (0.3, 1.5):
        C = C_of(short_time_state, init, tau)
        state = pair_state(short_time_state(init, tau), dim)
        expected = np.zeros((dim, dim), dtype=complex)
        for s, a_s in enumerate(init.coefficients):
            for n in range(s + 1):
                expected[s - n, n] = a_s * branch_coefficient(n, s) * tau ** n \
                    / math.sqrt(branch_normalization(s, tau))
        assert np.max(np.abs(C - expected)) < 1e-14

        psi = state_vector(C, spec)
        rho_a, p_b = reduced(C)
        for rho, mode in ((rho_a.entries, 0), (np.diag(p_b), 1)):
            oracle = partial_trace(psi, keep=[mode]).entries
            assert np.max(np.abs(rho - oracle)) < 1e-14
        assert state.n_a == pytest.approx(expectation(psi, N[0]).real, abs=1e-13)
        assert state.n_b == pytest.approx(expectation(psi, N[1]).real, abs=1e-13)
        assert state.n_b == pytest.approx(expectation(psi, N[2]).real, abs=1e-13)
        na2 = expectation(psi, N[0] @ N[0]).real
        assert state.pump_variance() == pytest.approx(na2 - state.n_a ** 2, abs=1e-12)
        assert state.norm() == pytest.approx(psi.norm(), abs=1e-15)
        assert state.max_boundary_population() == pytest.approx(
            max_boundary_population(psi), abs=1e-18)


def test_short_time_zero_tau_recovers_initial():
    init = PumpInitialState.coherent(4.0, 18)
    rho_a, p_b = reduced(C_of(short_time_state, init, 0.0))
    assert p_b[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diag(rho_a.entries)[: init.coefficients.size],
                       init.probabilities, atol=1e-12)


def test_short_time_matches_full_evolution():
    # validity window: tau * sqrt(k M) <= 0.1
    dim = 13
    spec = HilbertSpec((dim,) * 3)
    init = fock_pump(9, dim=dim)
    tau = 0.1 / math.sqrt(0.5 * 9)
    exact = state_vector(C_of(full_state, init, [0.0, tau])[-1], spec).amplitudes
    approx = state_vector(C_of(short_time_state, init, tau), spec).amplitudes
    phase = np.vdot(approx, exact)
    assert np.linalg.norm(exact * np.exp(-1j * np.angle(phase)) - approx) < 1e-3


def test_pump_coefficients_reject_non_finite():
    with pytest.raises(ValueError):
        PumpInitialState([math.nan, 0.0])


def test_reduced_trace_check_covers_signal_distribution():
    # Tr rho_a = sum p_b = |C|^2: an unnormalized or NaN C fails rho_a's check
    C = C_of(short_time_state, PumpInitialState.coherent(4.0, 18), 0.5)
    with pytest.raises(ValueError):
        reduced(1.01 * C)
    C[0, 0] = math.nan
    with pytest.raises(ValueError):
        reduced(C)


def test_short_time_reduced_traces():
    init = PumpInitialState.coherent(9.0, 28)
    for tau in (0.2, 1.0, 10.0):
        rho_a, p_b = reduced(C_of(short_time_state, init, tau))
        assert np.trace(rho_a.entries).real == pytest.approx(1.0, abs=1e-9)
        assert p_b.sum() == pytest.approx(1.0, abs=1e-9)


def test_short_time_long_time_distribution():
    init = PumpInitialState.coherent(9.0, 30)
    _, diag = reduced(C_of(short_time_state, init, 100.0))
    P = init.probabilities
    tv = 0.5 * np.sum(np.abs(diag[: P.size] - P)) + 0.5 * np.sum(diag[P.size:])
    assert tv < 1e-3


def test_short_time_trajectory_matches_per_tau_calls():
    init = PumpInitialState.coherent(9.0, 30)
    taus = np.array([0.0, 0.05, 0.3, 1.0, 2.0, 10.0, 100.0])
    traj = C_of(short_time_state, init, taus)
    assert traj.shape == (taus.size, 30, 30)
    for tau, C in zip(taus, traj):
        np.testing.assert_array_equal(C, C_of(short_time_state, init, float(tau)))
    # the tau = 0 row is the initial pump state, exactly
    np.testing.assert_array_equal(traj[0, :, 0], init.coefficients)
    assert not traj[0, :, 1:].any()
    states = pair_state(short_time_state(init, taus), 30)
    assert states.n_b[0] == 0.0
    assert states.n_a[0] == pytest.approx(pump_mean_occupation(init), abs=1e-14)


def _pop_reductions(C):
    """n_a, n_b, pump variance, norm and boundary population of one C[p, i]
    from its |C|^2 populations."""
    pops = np.abs(C) ** 2
    p_a, p_b = pops.sum(axis=1), pops.sum(axis=0)
    n = np.arange(p_a.size)
    mean = float(np.sum(p_a * n))
    return (mean, float(np.sum(p_b * np.arange(p_b.size))),
            float(np.sum(p_a * n * n)) - mean * mean, math.sqrt(pops.sum()),
            max(p_a[-1], p_b[-1]))


def _reductions(state):
    return [state.n_a, state.n_b, state.pump_variance(), state.norm(),
            state.max_boundary_population()]


def test_trajectory_reductions_match_per_tau_states():
    # the block-stream reductions of a trajectory, tau by tau, against one
    # state's stream and against the |C|^2 populations of the assembled C
    dim = fock.min_coherent_dim(3.0) + 3
    init = PumpInitialState.coherent(3.0, dim)
    taus = np.linspace(0.0, 2.5, 21)
    for tier in (full_state, short_time_state):
        traj = C_of(tier, init, taus)
        assert traj.shape == (taus.size, dim, dim)
        reductions = _reductions(pair_state(tier(init, taus), dim))
        for k, C in enumerate(traj):
            per_tau = _reductions(pair_state(blocks_of(C), dim))
            assert all(isinstance(v, float) for v in per_tau)
            np.testing.assert_allclose([r[k] for r in reductions], per_tau,
                                       rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(per_tau, _pop_reductions(C), rtol=1e-13, atol=1e-15)
    # reduced takes one state, not a trajectory
    with pytest.raises(TypeError):
        reduced(traj)


def test_full_leak_is_top_pump_weight(monkeypatch):
    # only block n = dim - 1 reaches the top pump level (k = 0) or the top
    # pair level (k = n), so the boundary population is bounded by that
    # block's weight |a_top|^2, reached at the first grid point; the gate
    # reads that point and a refused run propagates no block
    init = PumpInitialState([math.sqrt(1.0 - 1e-4), 0.0, 1e-2])
    taus = [0.5, 1.0, 1.5, 2.0]
    leak = pair_state(full_state(init, taus, leak_tol=1e-3), 3).max_boundary_population()
    assert leak[0] == pytest.approx(1e-4, rel=1e-12)
    assert np.all(leak <= leak[0] * (1.0 + 1e-12))

    def no_svd(*_, **__):
        raise AssertionError("a block was propagated before the leak gate")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(TruncationError, match=r"truncation leak 1\.000e-04 exceeds"):
        full_state(init, taus)


@pytest.mark.parametrize("mean", [1.0, 3.0, 6.0, 9.0])
def test_real_pumps_stay_real(mean):
    # the preset and workload pumps have real alpha: both quantized tiers
    # then hold C[tau, p, i] real, and so does a Fock pump
    init = PumpInitialState.coherent(mean, fock.min_coherent_dim(mean) + 3)
    taus = np.linspace(0.0, 3.0, 7)
    for pump in (init, fock_pump(2, dim=4)):
        assert pump.coefficients.dtype == np.float64
        for tier in (short_time_state, full_state):
            assert all(block.dtype == np.float64 for _, block in tier(pump, taus))


@pytest.mark.parametrize("phi", [0.3, 2.0])
def test_pump_phase_is_carried_exactly(phi):
    # alpha = 3 e^(i phi) puts e^(i n phi) on pump level n, and each block
    # n = p + i keeps it: C is the real pump's C times e^(i (p + i) phi), so
    # every reduction and |C| match the real pump's
    from nlcavity.qinfo import von_neumann_entropy

    dim = fock.min_coherent_dim(9.0) + 3
    real = PumpInitialState.coherent(9.0, dim)
    rotated = PumpInitialState(fock.coherent_state(3.0 * np.exp(1j * phi), dim))
    phase = np.exp(1j * phi * np.add.outer(np.arange(dim), np.arange(dim)))
    taus = np.linspace(0.0, 3.0, 13)
    for tier in (short_time_state, full_state):
        want, got = C_of(tier, real, taus), C_of(tier, rotated, taus)
        assert got.dtype == complex
        states = [pair_state(tier(pump, taus), dim) for pump in (real, rotated)]
        for reduction in (lambda s: s.n_a, lambda s: s.n_b, lambda s: s.p_b):
            np.testing.assert_allclose(*map(reduction, states), rtol=0, atol=1e-12)
        for reduction in (von_neumann_entropy, np.abs):
            np.testing.assert_allclose(reduction(got), reduction(want), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, phase * want, rtol=0, atol=1e-12)


def test_long_time_signal_roundtrip():
    P = np.zeros(6)
    P[0] = 1.0
    rho = long_time_signal(P)
    assert np.diag(rho.entries).real[0] == pytest.approx(1.0)

    init = PumpInitialState.coherent(9.0, 30)
    rho = long_time_signal(init.probabilities)
    assert np.allclose(np.diag(rho.entries).real[:30], init.probabilities, atol=1e-15)


def test_long_time_signal_entropy_below_thermal():
    from nlcavity.qinfo import thermal_entropy, von_neumann_entropy

    init = PumpInitialState.coherent(9.0, 30)
    rho = long_time_signal(init.probabilities)
    n_bar = float(np.sum(np.diag(rho.entries).real * np.arange(30)))
    # rho is diagonal, so its elementwise root is a factor
    assert von_neumann_entropy(np.sqrt(rho.entries)) < thermal_entropy(n_bar)


def test_long_time_signal_unnormalized_error():
    with pytest.raises(ValueError):
        long_time_signal([0.5, 0.2])


# --- interaction Hamiltonian / full tier ----------------------------------------

def test_hamiltonian_vacuum_element():
    spec = HilbertSpec((3, 3, 3))
    H = build_interaction_hamiltonian(spec)
    vac = state_vector(fock_pump(0, dim=1), spec)
    assert abs(expectation(vac, H)) < 1e-14


def test_hamiltonian_hermitian():
    spec = HilbertSpec((4, 4, 4))
    assert build_interaction_hamiltonian(spec).is_hermitian(1e-12)


def test_hamiltonian_vacuum_expectation_conserved_zero():
    dim = fock.min_coherent_dim(4.0)
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(4.0, dim)
    psi = state_vector(init, spec)
    H = build_interaction_hamiltonian(spec)
    assert abs(expectation(psi, H)) < 1e-12


def test_hamiltonian_matrix_element_ladder():
    s = 5
    spec = HilbertSpec((s + 2,) * 3)
    H = build_interaction_hamiltonian(spec).toarray()

    def idx(na, nb, nc):
        return (na * spec.dims[1] + nb) * spec.dims[2] + nc

    elem = H[idx(s - 1, 1, 1), idx(s, 0, 0)]
    assert elem == pytest.approx(1j * math.sqrt(s), abs=1e-12)


def test_evolve_tau_zero():
    spec = HilbertSpec((3, 3, 3))
    init = fock_pump(1, dim=3)
    out = C_of(full_state, init, [0.0])
    assert np.allclose(state_vector(out[0], spec).amplitudes,
                       state_vector(init, spec).amplitudes)


def test_quantized_tiers_share_one_initial_state():
    # both quantized-pump tiers seed C[:size, 0] = a_s on the same (dim, dim)
    # pair grid, dim = max(pump dimension, 2)
    coherent_dim = fock.min_coherent_dim(3.0) + 3
    for init, dim in ((PumpInitialState.coherent(3.0, coherent_dim), coherent_dim),
                      (fock_pump(0, dim=1), 2)):
        short = C_of(short_time_state, init, 0.0)
        assert short.shape == (dim, dim) and pair_dim(init) == dim
        np.testing.assert_array_equal(short, C_of(full_state, init, [0.0])[0])


def test_evolve_toy_rabi():
    spec = HilbertSpec((3, 3, 3))
    init = fock_pump(1, dim=3)
    taus = np.linspace(0, 3, 31)
    states = [state_vector(C, spec) for C in C_of(full_state, init, taus)]
    nb_op = mode_numbers(spec)[1]
    for t, s in zip(taus, states):
        assert expectation(s, nb_op).real == pytest.approx(math.sin(t) ** 2, abs=1e-8)


def test_evolve_matches_expm_small():
    spec = HilbertSpec((4, 4, 4))  # total dim 64
    init = fock_pump(2, dim=4)
    tau = 1.7
    out = C_of(full_state, init, [0.0, tau])
    G = interaction_generator(spec).toarray()
    exact = sla.expm(tau * G) @ state_vector(init, spec).amplitudes
    assert np.linalg.norm(state_vector(out[-1], spec).amplitudes - exact) < 1e-7


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 5),
       pump=st.one_of(
           st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                       allow_infinity=False), min_size=1, max_size=5),
           st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5)),
       tau=st.floats(0.0, 2.0))
# all weight in the top pump level: its boundary population normalises to 1 + 4e-16
@example(dim=2, pump=[0j, 0.04747840197479656 + 0.6875j], tau=0.0)
@example(dim=5, pump=[0.5, -0.25, 0.0, 0.75, 0.3], tau=1.7)
def test_pair_propagator_matches_dense_expm(dim, pump, tau):
    # real amplitudes keep the real dtype, and the propagator keeps it too
    coeff = np.array((pump + [0.0] * dim)[:dim])
    if np.linalg.norm(coeff) < 1e-3:
        coeff[0] = 1.0
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState(coeff / np.linalg.norm(coeff))
    # the dense oracle truncates the same way, so no leak gate applies
    grid = np.unique([0.0, tau])
    C = C_of(full_state, init, grid, leak_tol=math.inf)
    assert C.dtype == coeff.dtype
    exact = sla.expm(tau * interaction_generator(spec).toarray()) \
        @ state_vector(init, spec).amplitudes
    assert np.linalg.norm(state_vector(C[-1], spec).amplitudes - exact) < 1e-7
    states = pair_state(full_state(init, grid, leak_tol=math.inf), dim)
    assert abs(states.norm()[-1] - 1.0) < 1e-8
    assert abs(states.n_a[-1] + states.n_b[-1] - states.n_a[0]) < 1e-8


@st.composite
def _pumps(draw):
    """A normalised real, complex or Fock pump of dimension 2..40, so the
    populated blocks n = 0 .. dim - 1 take both parities of m = n + 1."""
    dim = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["real", "complex", "fock"]))
    if kind == "fock":
        return fock_pump(draw(st.integers(0, dim - 1)), dim=dim)
    amp = (st.floats(-1.0, 1.0) if kind == "real" else
           st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
    coeff = np.array(draw(st.lists(amp, min_size=dim, max_size=dim)))
    if np.linalg.norm(coeff) < 1e-3:
        coeff[0] = 1.0
    return PumpInitialState(coeff / np.linalg.norm(coeff))


@settings(max_examples=60, deadline=None)
@given(init=_pumps(), tau_0=st.floats(0.0, 2.0),
       steps=st.lists(st.floats(1e-3, 1.0), max_size=4))
@example(init=fock_pump(0, dim=2), tau_0=0.0, steps=[1.0])
@example(init=fock_pump(1, dim=2), tau_0=0.5, steps=[])
@example(init=PumpInitialState(np.full(40, 40 ** -0.5)), tau_0=1.0, steps=[1.0, 1.0])
@example(init=PumpInitialState(np.full(39, 39 ** -0.5 * 1j)), tau_0=0.0, steps=[0.5, 1.0])
def test_half_size_propagator_matches_eigh_oracle(init, tau_0, steps):
    # one SVD of each block's even/odd half against one eigh of the whole
    # block: the same C on any grid, a one-point grid and tau_0 > 0 included
    grid = tau_0 + np.cumsum([0.0] + steps)
    C = C_of(full_state, init, grid, leak_tol=math.inf)
    assert C.dtype == init.coefficients.dtype
    np.testing.assert_allclose(C, full_state_eigh(init, grid), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(init=_pumps(), tau_0=st.floats(0.0, 2.0),
       steps=st.lists(st.floats(1e-3, 1.0), max_size=4))
@example(init=fock_pump(0, dim=2), tau_0=0.0, steps=[])
@example(init=fock_pump(39, dim=40), tau_0=2.0, steps=[1.0] * 4)
@example(init=PumpInitialState(np.full(40, 40 ** -0.5 * 1j)), tau_0=1.0, steps=[1.0] * 4)
def test_block_stream_reductions_match_assembled_C(init, tau_0, steps):
    # both tiers: the distributions folded from the stream one block at a
    # time against the einsum reductions of the assembled C, and the
    # assembled full-tier C against one eigh of each whole block
    grid = tau_0 + np.cumsum([0.0] + steps)
    dim = pair_dim(init)
    for tier, kwargs in ((short_time_state, {}), (full_state, {"leak_tol": math.inf})):
        C = assemble(tier(init, grid, **kwargs), dim)
        got = pair_state(tier(init, grid, **kwargs), dim)
        want = einsum_pair_state(C)
        np.testing.assert_allclose(got.p_a, want.p_a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.p_b, want.p_b, rtol=0, atol=1e-13)
        np.testing.assert_allclose(_reductions(got), _reductions(want), rtol=0, atol=1e-13)
    np.testing.assert_allclose(C, full_state_eigh(init, grid), rtol=0, atol=1e-12)


def test_evolve_conservation_and_symmetry():
    dim = 16
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(3.0, dim)
    taus = np.linspace(0, 2.5, 26)
    states = [state_vector(C, spec) for C in C_of(full_state, init, taus)]
    na_op, nb_op, nc_op = mode_numbers(spec)
    H = build_interaction_hamiltonian(spec)
    na0 = expectation(states[0], na_op).real
    for s in states:
        na = expectation(s, na_op).real
        nb = expectation(s, nb_op).real
        nc = expectation(s, nc_op).real
        assert abs(na + nb - na0) < 1e-7
        assert abs(na + nc - na0) < 1e-7
        assert abs(nb - nc) < 1e-8
        assert abs(expectation(s, H)) < 1e-8
        assert abs(s.norm() - 1.0) < 1e-8
        rho_b = partial_trace(s, keep=[1])
        rho_c = partial_trace(s, keep=[2])
        assert np.max(np.abs(rho_b.entries - rho_c.entries)) < 1e-8


def test_evolve_truncation_error_reports_leak():
    with pytest.raises(TruncationError) as err:
        full_state(fock_pump(1, dim=2), [0.0, 1.0])
    leak = re.search(r"truncation leak (\S+) exceeds", str(err.value)).group(1)
    assert float(leak) > 1e-6


# --- exact block propagation on the ch4-coherent9 configuration ----------------

@pytest.fixture(scope="module")
def coherent9():
    """N_a(0) = 9, dim 30, 400 tau on [0, 3]: the pump state, the grid and
    the full tier's trajectory C with its pair distributions."""
    init = PumpInitialState.coherent(9.0, 30)
    taus = np.linspace(0.0, 3.0, 400)
    return init, taus, C_of(full_state, init, taus), pair_state(full_state(init, taus), 30)


def test_full_tier_norm_holds_to_round_off(coherent9):
    _, _, _, traj = coherent9
    assert np.max(np.abs(traj.norm() - 1.0)) <= 1e-14


def test_full_tier_conserves_manley_rowe_sum(coherent9):
    # every block n = p + i keeps its own weight, so N_a + N_b is exact
    _, _, _, traj = coherent9
    assert np.max(np.abs(traj.n_a + traj.n_b - traj.n_a[0])) <= 1e-12


def test_full_tier_matches_rk45_oracle(coherent9):
    init, taus, C, _ = coherent9
    assert np.max(np.abs(C - evolve_pair_rk45(init, taus))) <= 1e-9


def test_full_tier_starts_at_first_grid_point():
    # the first grid point is the initial time, wherever the grid starts
    init = PumpInitialState([0.6, 0.64j, 0.48, 0.0])
    late = C_of(full_state, init, [0.5, 1.0])
    np.testing.assert_array_equal(late[0], C_of(short_time_state, init, 0.0))
    early = C_of(full_state, init, [0.0, 0.5])
    assert np.max(np.abs(late[1] - early[1])) <= 1e-13


def test_parametric_limit_of_full_evolution():
    # scaled-down version of the classical-pump limit: N_a(0)=25, tau <= 0.1
    dim = fock.min_coherent_dim(25.0) + 3
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(25.0, dim)
    taus = np.linspace(0, 0.1, 5)
    states = [state_vector(C, spec) for C in C_of(full_state, init, taus)]
    nb_op = mode_numbers(spec)[1]
    for t, s in list(zip(taus, states))[1:]:
        nb = expectation(s, nb_op).real
        assert nb == pytest.approx(parametric_occupation(5.0, t), rel=0.10)
