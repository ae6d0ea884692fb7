import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcavity import fock
from nlcavity.fock import DensityMatrix, HilbertSpec
from nlcavity.qinfo import (
    ThermalReference,
    bose_occupation,
    effective_dimension,
    effective_temperature,
    entropy,
    information,
    mutual_information_partitions,
    squeezing_params,
    thermal_entropy,
    von_neumann_entropy,
)
from nlcavity.trilinear import (
    PumpInitialState,
    evolve_full,
    initial_product_state,
    parametric_state,
)
from oracles import expectation, fidelity, ladder_ops, thermal_density_matrix


def pure_dm(amps):
    v = np.asarray(amps, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(HilbertSpec((v.size,)), np.outer(v, v.conj()))


# --- entropies ----------------------------------------------------------------

def test_entropy_pure_state():
    rho = pure_dm([0.3, 0.4, 0.5 + 0.2j, 0.0])
    assert abs(von_neumann_entropy(rho)) < 1e-9


def test_entropy_maximally_mixed():
    d = 7
    rho = DensityMatrix(HilbertSpec((d,)), np.eye(d) / d)
    assert von_neumann_entropy(rho) == pytest.approx(math.log(d), rel=1e-12)


@pytest.mark.parametrize("n_bar", [0.5, 4.5, 9.0])
def test_entropy_thermal_closed_form(n_bar):
    # eigen-decomposition route vs the closed form; truncation chosen so the
    # discarded tail is below the comparison tolerance
    dim = 40 * (1 + int(n_bar))
    rho = thermal_density_matrix(n_bar, dim)
    assert von_neumann_entropy(rho) == pytest.approx(thermal_entropy(n_bar), abs=1e-6)


def test_entropy_invalid_state():
    # the spectrum of an indefinite unit-trace matrix, which DensityMatrix rejects
    with pytest.raises(ValueError):
        entropy(np.linalg.eigvalsh(np.array([[1.1, 0.0], [0.0, -0.1]])))


def test_entropy_negative_weight_gate():
    # round-off negatives down to -1e-9 count as zero weight; below, raise
    assert entropy([0.5, 0.5, -1e-10]) == pytest.approx(math.log(2), rel=1e-15)
    with pytest.raises(ValueError):
        entropy([0.5, 0.5 + 2e-9, -2e-9])


# a weight is zero, under the 1e-12 clamp, or well above it; at least one
# weight is O(1), so normalizing keeps each class on its side of the clamp
_weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-18, 1e-14),
                              st.floats(1e-9, 1.0)), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(_weights, st.floats(0.1, 1.0))
def test_entropy_matches_diagonal_von_neumann(weights, big):
    p = np.array(weights + [big])
    p /= p.sum()
    rho = DensityMatrix(HilbertSpec((p.size,)), np.diag(p))
    # independent reference: clamp the eigenvalues of diag(p), then sum
    evals = np.linalg.eigvalsh(rho.entries)
    kept = evals[evals >= 1e-12]
    reference = float(-np.sum(kept * np.log(kept)))
    assert entropy(p) == pytest.approx(von_neumann_entropy(rho), rel=1e-12, abs=1e-15)
    assert entropy(p) == pytest.approx(reference, rel=1e-12, abs=1e-15)


def test_thermal_entropy_values():
    assert thermal_entropy(0.0) == 0.0
    assert thermal_entropy(1.0) == pytest.approx(2 * math.log(2), rel=1e-12)


def test_thermal_entropy_identity_with_oscillator_form():
    # the oscillator form -ln(1-e^-x) - x(1-e^x)^-1 with x = ln(1+1/n)
    # must agree with the (n+1)ln(n+1) - n ln n simplification
    for n_bar in (0.1, 0.5, 1.0, 4.5, 9.0, 50.0):
        x = math.log1p(1.0 / n_bar)
        osc = -math.log(1.0 - math.exp(-x)) - x / (1.0 - math.exp(x))
        assert thermal_entropy(n_bar) == pytest.approx(osc, rel=1e-12)


# --- temperature ----------------------------------------------------------------

def test_effective_temperature_n1():
    from nlcavity.constants import hbar, k_B

    w = 2 * math.pi * 4e6
    assert effective_temperature(1.0, w) == pytest.approx(
        hbar * w / (k_B * math.log(2.0)), rel=1e-12)


def test_effective_temperature_rayleigh_jeans():
    from nlcavity.constants import hbar, k_B

    w = 1e9
    n_bar = 1e8
    assert effective_temperature(n_bar, w) == pytest.approx(
        n_bar * hbar * w / k_B, rel=1e-6)


def test_bose_round_trip():
    w = 3e9
    for n_bar in (0.01, 1.0, 42.0):
        T = effective_temperature(n_bar, w)
        assert bose_occupation(w, T) == pytest.approx(n_bar, rel=1e-12)
    assert effective_temperature(0.0, w) == 0.0


# --- fidelity --------------------------------------------------------------------

def test_fidelity_self():
    rho = thermal_density_matrix(1.7, 30)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_diagonal_bhattacharyya():
    rng = np.random.default_rng(4)
    p = rng.random(12)
    p /= p.sum()
    q = rng.random(12)
    q /= q.sum()
    spec = HilbertSpec((12,))
    rho = DensityMatrix(spec, np.diag(p))
    sigma = DensityMatrix(spec, np.diag(q))
    assert fidelity(rho, sigma) == pytest.approx(np.sum(np.sqrt(p * q)), abs=1e-10)


def test_fidelity_vacuum_vs_thermal():
    vac = pure_dm([1.0] + [0.0] * 19)
    th = thermal_density_matrix(1.0, 20)
    # <0|sigma|0> = 1/(n+1) = 1/2 for the untruncated state; the truncated,
    # renormalized reference is within its own leak of that
    assert fidelity(vac, th) == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_fidelity_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        A = a @ a.conj().T
        rho = DensityMatrix(HilbertSpec((6,)), A / np.trace(A))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        B = b @ b.conj().T
        sigma = DensityMatrix(HilbertSpec((6,)), B / np.trace(B))
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-8)
        assert fidelity(rho, sigma) < 1.0 - 1e-6  # distinct states


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(pure_dm([1, 0]), pure_dm([1, 0, 0]))


# --- information / effective dimension --------------------------------------------

def test_information_thermal_zero():
    assert abs(information(ThermalReference(2.0, 120).probabilities)) < 1e-6


def test_information_fock_nine():
    p = np.zeros(12)
    p[9] = 1.0
    # thermal_entropy(9) - 0 = 10 ln 10 - 9 ln 9
    assert information(p) == pytest.approx(10 * math.log(10) - 9 * math.log(9),
                                           rel=1e-9)


def test_information_nonnegative_on_mixtures():
    from nlcavity.trilinear import long_time_signal

    init = PumpInitialState.coherent(9.0, 30)
    rho = long_time_signal(init.probabilities)
    assert information(np.diag(rho.entries).real) > 0.0


def test_effective_dimension_values():
    assert effective_dimension(0.0) == 1.0
    assert effective_dimension(4.5) == pytest.approx(10.0, abs=1e-9)


def test_effective_dimension_geometric_purity_oracle():
    n_bar = 4.5
    n = np.arange(4000)
    p = (n_bar / (n_bar + 1.0)) ** n / (n_bar + 1.0)
    assert 1.0 / np.sum(p ** 2) == pytest.approx(effective_dimension(n_bar), rel=1e-9)


# --- mutual information -------------------------------------------------------------

def test_mutual_information_product_state():
    spec = HilbertSpec((8, 3, 3))
    amps = np.zeros(spec.dims, dtype=complex)
    amps[5, 0, 0] = 1.0
    psi = fock.StateVector(spec, amps.ravel())
    p_b = np.diag(fock.partial_trace(psi, keep=[1]).entries).real
    i_abc, i_bc = mutual_information_partitions(fock.partial_trace(psi, keep=[0]), p_b)
    assert abs(i_abc) < 1e-9
    assert abs(i_bc) < 1e-9


def test_mutual_information_two_path_entropy():
    rng = np.random.default_rng(13)
    spec = HilbertSpec((4, 3, 3))
    v = rng.normal(size=36) + 1j * rng.normal(size=36)
    psi = fock.StateVector(spec, v / np.linalg.norm(v))
    s_a = von_neumann_entropy(fock.partial_trace(psi, keep=[0]))
    s_bc = von_neumann_entropy(fock.partial_trace(psi, keep=[1, 2]))
    assert s_a == pytest.approx(s_bc, abs=1e-8)
    # rho_b is not diagonal here: its entropy enters through its spectrum
    rho_b = fock.partial_trace(psi, keep=[1])
    i_abc, i_bc = mutual_information_partitions(fock.partial_trace(psi, keep=[0]),
                                                rho_b.eigenvalues())
    assert i_abc == pytest.approx(2 * s_a, abs=1e-8)
    assert i_bc == pytest.approx(2 * von_neumann_entropy(rho_b) - s_a, abs=1e-12)


def test_mutual_information_parametric_tier():
    # classical pump: pure two-mode squeezed signal/idler, I_bc = 2 S_b and
    # S_b is the thermal entropy at sinh^2(r)
    r = 0.8
    psi2 = parametric_state(1.0, r, 30)
    s_b = von_neumann_entropy(fock.partial_trace(psi2, keep=[0]))
    assert s_b == pytest.approx(thermal_entropy(math.sinh(r) ** 2), abs=1e-7)

    # embed as (pump)x(signal)x(idler) with a trivial pump
    spec = HilbertSpec((2, 30, 30))
    amps = np.zeros(spec.dims, dtype=complex)
    amps[0] = psi2.amplitudes.reshape(30, 30)
    psi3 = fock.StateVector(spec, amps.ravel())
    p_b = np.diag(fock.partial_trace(psi3, keep=[1]).entries).real
    i_abc, i_bc = mutual_information_partitions(fock.partial_trace(psi3, keep=[0]), p_b)
    assert abs(i_abc) < 1e-9
    assert i_bc == pytest.approx(2 * s_b, abs=1e-7)


# --- squeezing ------------------------------------------------------------------------

def test_squeezing_vacuum():
    qp, qm = squeezing_params(pure_dm([1.0] + [0.0] * 9))
    assert qp == pytest.approx(0.0, abs=1e-12)
    assert qm == pytest.approx(0.0, abs=1e-12)


def test_squeezing_coherent():
    psi = fock.coherent_state(3.0, 30)
    rho = DensityMatrix(psi.spec, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    qp, qm = squeezing_params(rho)
    assert qp == pytest.approx(0.0, abs=1e-3)
    assert qm == pytest.approx(0.0, abs=1e-3)


def test_squeezing_fock_one():
    v = np.zeros(5)
    v[1] = 1.0
    qp, qm = squeezing_params(pure_dm(v))
    assert qp == pytest.approx(2.0, abs=1e-12)
    assert qm == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 5, 12, 30])
def test_squeezing_matches_ladder_operator_oracle(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityMatrix(HilbertSpec((dim,)), m @ m.conj().T / np.trace(m @ m.conj().T))
    a, _, num = ladder_ops(dim)
    exp_a = expectation(rho, a)
    exp_aa = expectation(rho, a @ a)
    exp_n = expectation(rho, num).real
    q_plus = 2.0 * exp_n + 2.0 * exp_aa.real - 4.0 * exp_a.real ** 2
    q_minus = 2.0 * exp_n - 2.0 * exp_aa.real - 4.0 * exp_a.imag ** 2
    qp, qm = squeezing_params(rho)
    assert qp == pytest.approx(q_plus, rel=1e-12, abs=1e-12)
    assert qm == pytest.approx(q_minus, rel=1e-12, abs=1e-12)


# --- trajectory-level properties --------------------------------------------------------

@pytest.fixture(scope="module")
def small_trajectory():
    dim = fock.min_coherent_dim(1.0) + 3
    spec = HilbertSpec((dim,) * 3)
    init = PumpInitialState.coherent(1.0, dim)
    psi0 = initial_product_state(init, spec)
    taus = np.linspace(0, 3, 16)
    return [s.state_vector(spec) for s in evolve_full(psi0, taus)]


def test_entropy_bounds_along_trajectory(small_trajectory):
    for s in small_trajectory:
        for keep in ([0], [1]):
            rho = fock.partial_trace(s, keep=keep)
            S = von_neumann_entropy(rho)
            assert -1e-9 <= S <= math.log(rho.spec.total_dim) + 1e-9


def test_pure_total_state_identities():
    # small grid so the full-state eigendecomposition stays cheap
    spec = HilbertSpec((6, 6, 6))
    psi0 = initial_product_state(PumpInitialState.fock(3, dim=4), spec)
    for pair in evolve_full(psi0, np.linspace(0, 3, 7)):
        s = pair.state_vector(spec)
        rho_abc = DensityMatrix(s.spec, np.outer(s.amplitudes, s.amplitudes.conj()))
        assert abs(von_neumann_entropy(rho_abc)) < 1e-8
        s_a = von_neumann_entropy(fock.partial_trace(s, keep=[0]))
        s_bc = von_neumann_entropy(fock.partial_trace(s, keep=[1, 2]))
        assert abs(s_a - s_bc) < 1e-7


def test_schmidt_identity_along_trajectory(small_trajectory):
    for s in small_trajectory:
        s_a = von_neumann_entropy(fock.partial_trace(s, keep=[0]))
        s_bc = von_neumann_entropy(fock.partial_trace(s, keep=[1, 2]))
        assert abs(s_a - s_bc) < 1e-7


def test_information_nonnegative_along_trajectory(small_trajectory):
    for s in small_trajectory:
        rho_b = fock.partial_trace(s, keep=[1]).entries
        assert np.array_equal(rho_b, np.diag(np.diag(rho_b)))  # pair span: diagonal
        assert information(np.diag(rho_b).real) >= -1e-8


def test_heisenberg_bound_along_trajectory(small_trajectory):
    for s in small_trajectory:
        rho_a = fock.partial_trace(s, keep=[0])
        qp, qm = squeezing_params(rho_a)
        assert (qp + 1.0) * (qm + 1.0) >= 1.0 - 1e-8


def test_thermal_reference_leak_and_temperature():
    ref = ThermalReference(4.5, 25)
    assert ref.leak == pytest.approx((4.5 / 5.5) ** 25, rel=1e-12)
    T = effective_temperature(ref.mean_occupation, 1e9)
    assert bose_occupation(1e9, T) == pytest.approx(4.5, rel=1e-12)
    assert ref.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
