import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import gammaincc
from hypothesis import example, given, settings, strategies as st

from nlcavity import fock, trilinear
from nlcavity.errors import TruncationError
from nlcavity.fock import HilbertSpec, partial_trace
from nlcavity.trilinear import (
    PairState,
    PumpInitialState,
    evolve_full,
    initial_product_state,
    long_time_signal,
    parametric_occupation,
    parametric_state,
    parametric_temperature,
    pump_betas,
    semiclassical_occupation,
    semiclassical_pump,
    short_time_state,
)
from oracles import (
    branch_coefficient,
    branch_normalization,
    build_interaction_hamiltonian,
    embed,
    evolve_pair_rk45,
    expectation,
    interaction_generator,
    ladder_ops,
    max_boundary_population,
    mode_numbers,
)


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
    states = [s.state_vector(spec)
              for s in evolve_full(initial_product_state(init, spec), taus)]
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
        pops = np.abs(short_time_state(init, tau).C) ** 2
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
        state = short_time_state(init, tau)
        expected = np.zeros((dim, dim), dtype=complex)
        for s, a_s in enumerate(init.coefficients):
            for n in range(s + 1):
                expected[s - n, n] = a_s * branch_coefficient(n, s) * tau ** n \
                    / math.sqrt(branch_normalization(s, tau))
        assert np.max(np.abs(state.C - expected)) < 1e-14

        psi = state.state_vector(spec)
        rho_a, p_b = state.reduced()
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
    rho_a, p_b = short_time_state(init, 0.0).reduced()
    assert p_b[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diag(rho_a.entries)[: init.coefficients.size],
                       init.probabilities, atol=1e-12)


def test_short_time_matches_full_evolution():
    # validity window: tau * sqrt(k M) <= 0.1
    dim = 13
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.fock(9, dim=10)
    tau = 0.1 / math.sqrt(0.5 * 9)
    states = evolve_full(initial_product_state(init, spec), [0.0, tau])
    exact = states[-1].state_vector(spec).amplitudes
    approx = short_time_state(init, tau).state_vector(spec).amplitudes
    phase = np.vdot(approx, exact)
    assert np.linalg.norm(exact * np.exp(-1j * np.angle(phase)) - approx) < 1e-3


def test_pump_coefficients_reject_non_finite():
    with pytest.raises(ValueError):
        PumpInitialState([math.nan, 0.0])


def test_reduced_trace_check_covers_signal_distribution():
    # Tr rho_a = sum p_b = |C|^2: an unnormalized or NaN C fails rho_a's check
    C = short_time_state(PumpInitialState.coherent(4.0, 18), 0.5).C
    with pytest.raises(ValueError):
        PairState(1.01 * C).reduced()
    C = C.copy()
    C[0, 0] = math.nan
    with pytest.raises(ValueError):
        PairState(C).reduced()


def test_short_time_reduced_traces():
    init = PumpInitialState.coherent(9.0, 28)
    for tau in (0.2, 1.0, 10.0):
        rho_a, p_b = short_time_state(init, tau).reduced()
        assert np.trace(rho_a.entries).real == pytest.approx(1.0, abs=1e-9)
        assert p_b.sum() == pytest.approx(1.0, abs=1e-9)


def test_short_time_long_time_distribution():
    init = PumpInitialState.coherent(9.0, 30)
    _, diag = short_time_state(init, 100.0).reduced()
    P = init.probabilities
    tv = 0.5 * np.sum(np.abs(diag[: P.size] - P)) + 0.5 * np.sum(diag[P.size:])
    assert tv < 1e-3


def test_short_time_trajectory_matches_per_tau_calls():
    init = PumpInitialState.coherent(9.0, 30)
    taus = np.array([0.0, 0.05, 0.3, 1.0, 2.0, 10.0, 100.0])
    traj = short_time_state(init, taus)
    assert traj.C.shape == (taus.size, 30, 30)
    for tau, C in zip(taus, traj.C):
        np.testing.assert_array_equal(C, short_time_state(init, float(tau)).C)
    # the tau = 0 row is the initial pump state, exactly
    np.testing.assert_array_equal(traj.C[0, :, 0], init.coefficients)
    assert not traj.C[0, :, 1:].any()
    assert traj.n_b[0] == 0.0
    assert traj.n_a[0] == pytest.approx(init.mean_occupation, abs=1e-14)


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


def test_trajectory_reductions_match_per_tau_states():
    dim = fock.min_coherent_dim(3.0) + 3
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(3.0, dim)
    taus = np.linspace(0.0, 2.5, 21)
    for traj in (evolve_full(initial_product_state(init, spec), taus),
                 short_time_state(init, taus)):
        assert traj.C.shape == (taus.size, dim, dim)
        reductions = [traj.n_a, traj.n_b, traj.pump_variance(), traj.norm(),
                      traj.max_boundary_population()]
        for k, C in enumerate(traj.C):
            one = PairState(C)
            per_tau = [one.n_a, one.n_b, one.pump_variance(), one.norm(),
                       one.max_boundary_population()]
            assert all(isinstance(v, float) for v in per_tau)
            assert traj[k].n_b == one.n_b
            np.testing.assert_allclose([r[k] for r in reductions], per_tau,
                                       rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(per_tau, _pop_reductions(C), rtol=1e-13, atol=1e-15)


def test_state_and_trajectory_are_not_interchangeable():
    traj = short_time_state(PumpInitialState.fock(3), np.array([0.0, 0.5, 1.0]))
    assert len(traj) == 3 and [s.C.shape for s in traj] == [(4, 4)] * 3
    one = traj[1]
    spec = HilbertSpec((4,) * 3)
    for misuse in (lambda: len(one), lambda: iter(one), lambda: one[0],
                   traj.reduced, lambda: traj.state_vector(spec)):
        with pytest.raises(TypeError):
            misuse()


def test_evolve_leak_gate_fires_mid_trajectory():
    # Fock-1 pump: the top pair level of a (3, 2, 2) grid holds sin^2(tau),
    # back near 0 at tau = pi, so only the tau = 1.5 sample trips the gate
    spec = HilbertSpec((3, 2, 2))
    psi0 = initial_product_state(PumpInitialState.fock(1, dim=2), spec)
    assert evolve_full(psi0, [0.0, math.pi]).max_boundary_population().max() < 1e-6
    with pytest.raises(TruncationError) as err:
        evolve_full(psi0, [0.0, 1.5, math.pi])
    assert err.value.leak == pytest.approx(math.sin(1.5) ** 2, rel=1e-6)


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
    assert von_neumann_entropy(rho) < thermal_entropy(n_bar)


def test_long_time_signal_unnormalized_error():
    with pytest.raises(ValueError):
        long_time_signal([0.5, 0.2])


# --- interaction Hamiltonian / full tier ----------------------------------------

def test_hamiltonian_vacuum_element():
    spec = HilbertSpec((3, 3, 3))
    H = build_interaction_hamiltonian(spec)
    vac = initial_product_state(PumpInitialState.fock(0, dim=1), spec)
    assert abs(expectation(vac, H)) < 1e-14


def test_hamiltonian_hermitian():
    spec = HilbertSpec((4, 4, 4))
    assert build_interaction_hamiltonian(spec).is_hermitian(1e-12)


def test_hamiltonian_vacuum_expectation_conserved_zero():
    dim = fock.min_coherent_dim(4.0)
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(4.0, dim)
    psi = initial_product_state(init, spec)
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
    psi0 = initial_product_state(PumpInitialState.fock(1, dim=2), spec)
    out = evolve_full(psi0, [0.0])
    assert np.allclose(out[0].state_vector(spec).amplitudes, psi0.amplitudes)


def test_evolve_toy_rabi():
    spec = HilbertSpec((3, 3, 3))
    psi0 = initial_product_state(PumpInitialState.fock(1, dim=2), spec)
    taus = np.linspace(0, 3, 31)
    states = [s.state_vector(spec) for s in evolve_full(psi0, taus)]
    nb_op = mode_numbers(spec)[1]
    for t, s in zip(taus, states):
        assert expectation(s, nb_op).real == pytest.approx(math.sin(t) ** 2, abs=1e-8)


def test_evolve_matches_expm_small():
    spec = HilbertSpec((4, 4, 4))  # total dim 64
    psi0 = initial_product_state(PumpInitialState.fock(2, dim=3), spec)
    tau = 1.7
    out = evolve_full(psi0, [0.0, tau])
    G = interaction_generator(spec).toarray()
    exact = sla.expm(tau * G) @ psi0.amplitudes
    assert np.linalg.norm(out[-1].state_vector(spec).amplitudes - exact) < 1e-7


@settings(max_examples=25, deadline=None)
@given(dims=st.tuples(*(st.integers(2, 5),) * 3),
       pump=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                        allow_infinity=False), min_size=1, max_size=5),
       tau=st.floats(0.0, 2.0))
# all weight in the top pump level: its boundary population normalises to 1 + 4e-16
@example(dims=(2, 2, 2), pump=[0j, 0.04747840197479656 + 0.6875j], tau=0.0)
def test_pair_propagator_matches_dense_expm(dims, pump, tau):
    coeff = np.array(pump[: dims[0]], dtype=complex)
    if np.linalg.norm(coeff) < 1e-3:
        coeff[0] = 1.0
    spec = HilbertSpec(dims)
    psi0 = initial_product_state(PumpInitialState(coeff / np.linalg.norm(coeff)), spec)
    # the dense oracle truncates the same way, so no leak gate applies
    states = evolve_full(psi0, np.unique([0.0, tau]), leak_tol=math.inf)
    exact = sla.expm(tau * interaction_generator(spec).toarray()) @ psi0.amplitudes
    assert np.linalg.norm(states[-1].state_vector(spec).amplitudes - exact) < 1e-7
    assert abs(states[-1].norm() - 1.0) < 1e-8
    assert abs(states[-1].n_a + states[-1].n_b - states[0].n_a) < 1e-8


def test_evolve_rejects_weight_off_pair_span():
    spec = HilbertSpec((3, 3, 3))
    amps = np.zeros(spec.dims, dtype=complex)
    amps[1, 0, 0] = amps[0, 1, 0] = math.sqrt(0.5)
    with pytest.raises(ValueError):
        evolve_full(fock.StateVector(spec, amps.ravel()), [0.0, 1.0])


def test_evolve_requires_three_modes():
    spec = HilbertSpec((3, 3))
    with pytest.raises(ValueError):
        evolve_full(fock.StateVector(spec, np.eye(1, 9, dtype=complex).ravel()), [0.0, 1.0])


def test_evolve_conservation_and_symmetry():
    dim = 16
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(3.0, dim)
    psi0 = initial_product_state(init, spec)
    taus = np.linspace(0, 2.5, 26)
    states = [s.state_vector(spec) for s in evolve_full(psi0, taus)]
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
    spec = HilbertSpec((2, 2, 2))
    psi0 = initial_product_state(PumpInitialState.fock(1, dim=2), spec)
    with pytest.raises(TruncationError) as err:
        evolve_full(psi0, [0.0, 1.0])
    assert err.value.leak > 1e-6


# --- exact block propagation on the ch4-coherent9 configuration ----------------

@pytest.fixture(scope="module")
def coherent9():
    """N_a(0) = 9, dim 30 per mode, 400 tau on [0, 3]: the pump-only state,
    the grid and the full tier's trajectory."""
    spec = HilbertSpec((30,) * 3)
    psi0 = initial_product_state(PumpInitialState.coherent(9.0, 30), spec)
    taus = np.linspace(0.0, 3.0, 400)
    return psi0, taus, evolve_full(psi0, taus)


def test_full_tier_norm_holds_to_round_off(coherent9):
    _, _, traj = coherent9
    assert np.max(np.abs(traj.norm() - 1.0)) <= 1e-14


def test_full_tier_conserves_manley_rowe_sum(coherent9):
    # every block n = p + i keeps its own weight, so N_a + N_b is exact
    _, _, traj = coherent9
    assert np.max(np.abs(traj.n_a + traj.n_b - traj.n_a[0])) <= 1e-12


def test_full_tier_matches_rk45_oracle(coherent9):
    psi0, taus, traj = coherent9
    assert np.max(np.abs(traj.C - evolve_pair_rk45(psi0, taus))) <= 1e-9


def test_full_tier_starts_at_first_grid_point():
    # the first grid point is the initial time, wherever the grid starts
    spec = HilbertSpec((5, 6, 4))
    psi0 = initial_product_state(PumpInitialState([0.6, 0.64j, 0.48]), spec)
    late = evolve_full(psi0, [0.5, 1.0])
    np.testing.assert_array_equal(late.C[0], psi0.tensor_view()[:, np.arange(4), np.arange(4)])
    early = evolve_full(psi0, [0.0, 0.5])
    assert np.max(np.abs(late.C[1] - early.C[1])) <= 1e-13


def test_parametric_limit_of_full_evolution():
    # scaled-down version of the classical-pump limit: N_a(0)=25, tau <= 0.1
    dim = fock.min_coherent_dim(25.0) + 3
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(25.0, dim)
    taus = np.linspace(0, 0.1, 5)
    states = [s.state_vector(spec)
              for s in evolve_full(initial_product_state(init, spec), taus)]
    nb_op = mode_numbers(spec)[1]
    for t, s in list(zip(taus, states))[1:]:
        nb = expectation(s, nb_op).real
        assert nb == pytest.approx(parametric_occupation(5.0, t), rel=0.10)
