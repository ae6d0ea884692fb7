import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlcavity.errors import TruncationError
from nlcavity.fock import coherent_state, min_coherent_dim
from oracles import (
    DensityMatrix,
    HilbertSpec,
    ModeOperator,
    StateVector,
    boundary_population,
    embed,
    expectation,
    ladder_ops,
    parametric_state,
    partial_trace,
)


def basis_state(spec, occupations):
    amps = np.zeros(spec.dims, dtype=complex)
    amps[tuple(occupations)] = 1.0
    return StateVector(spec, amps.ravel())


def coherent(alpha, dim):
    """The truncated coherent state as a single-mode StateVector."""
    return StateVector(HilbertSpec((dim,)), coherent_state(alpha, dim))


# --- ladder operators --------------------------------------------------------

def test_qubit_ladder_matrix():
    a, adag, num = ladder_ops(2)
    assert np.allclose(a.toarray(), [[0, 1], [0, 0]])
    assert np.allclose(adag.toarray(), [[0, 0], [1, 0]])


def test_commutator_truncation_corner():
    dim = 5
    a, adag, _ = ladder_ops(dim)
    comm = (a.matrix @ adag.matrix - adag.matrix @ a.matrix).toarray()
    expected = np.eye(dim)
    expected[-1, -1] = -(dim - 1)
    assert np.allclose(comm, expected)


def test_number_eigenvalues():
    _, _, num = ladder_ops(6)
    assert np.allclose(np.sort(np.linalg.eigvalsh(num.toarray())), np.arange(6))


def test_ladder_dim_error():
    with pytest.raises(ValueError):
        ladder_ops(1)


# --- embed -------------------------------------------------------------------

def test_embed_identity():
    ident = ModeOperator(HilbertSpec((3,)), np.eye(3))
    out = embed(ident, 0, HilbertSpec((3, 4)))
    assert np.allclose(out.toarray(), np.eye(12))


def test_embed_number_eigenvalue():
    spec = HilbertSpec((3, 4, 2))
    _, _, num_b = ladder_ops(4)
    op = embed(num_b, 1, spec)
    psi = basis_state(spec, (1, 2, 0))
    assert expectation(psi, op) == pytest.approx(2.0)


def test_embedded_distinct_modes_commute():
    spec = HilbertSpec((3, 3))
    a, _, _ = ladder_ops(3)
    _, bdag, _ = ladder_ops(3)
    A = embed(a, 0, spec)
    Bd = embed(bdag, 1, spec)
    comm = (A.matrix @ Bd.matrix - Bd.matrix @ A.matrix)
    assert comm.nnz == 0  # exact sparse cancellation


def test_embed_index_error():
    spec = HilbertSpec((3, 3))
    a, _, _ = ladder_ops(3)
    with pytest.raises(ValueError):
        embed(a, 2, spec)


# --- coherent state ----------------------------------------------------------

def test_coherent_vacuum():
    amps = coherent_state(0.0, 4)
    assert amps[0] == pytest.approx(1.0)
    assert np.allclose(amps[1:], 0.0)


def test_coherent_mean_occupation():
    psi = coherent(3.0, 30)
    _, _, num = ladder_ops(30)
    assert expectation(psi, num).real == pytest.approx(9.0, abs=1e-4)


def test_coherent_truncation_error():
    # Poisson tail oracle: sum_{n>=12} e^-9 9^n/n!
    tail = 1.0 - sum(math.exp(n * math.log(9) - 9 - math.lgamma(n + 1))
                     for n in range(12))
    assert tail > 1e-6
    with pytest.raises(TruncationError) as err:
        coherent_state(3.0, 12)
    # the message reports the leak and a dimension that passes
    assert f"tail {tail:.3e} >= 1e-06 at dim=12" in str(err.value)
    assert str(err.value).endswith(f"need dim >= {min_coherent_dim(9.0)}")


def test_coherent_phase_convention():
    psi = coherent(2.0 * np.exp(1j * 0.7), 25)
    a, _, _ = ladder_ops(25)
    val = expectation(psi, a)
    assert np.angle(val) == pytest.approx(0.7, abs=1e-6)


# --- partial trace -----------------------------------------------------------

def test_partial_trace_product_state():
    spec = HilbertSpec((3, 4))
    amps = np.zeros(spec.dims, dtype=complex)
    local = np.array([0.6, 0.8j, 0.0, 0.0])
    amps[1, :] = local
    psi = StateVector(spec, amps.ravel())
    rho = partial_trace(psi, keep=[1])
    assert np.allclose(rho.entries, np.outer(local, local.conj()))


def test_partial_trace_squeezed_thermal():
    r = 0.9
    psi = parametric_state(1.0, r, 30)
    rho_b = partial_trace(psi, keep=[0])
    diag = np.diag(rho_b.entries).real
    ratio = diag[1:6] / diag[0:5]
    assert np.allclose(ratio, math.tanh(r) ** 2, atol=1e-8)
    off = rho_b.entries - np.diag(np.diag(rho_b.entries))
    assert np.max(np.abs(off)) < 1e-12


def test_partial_trace_pure_factor():
    spec = HilbertSpec((10, 3, 3))
    psi = basis_state(spec, (9, 0, 0))
    rho_b = partial_trace(psi, keep=[1])
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(rho_b.entries, expected)


def test_partial_trace_keep_all_identity():
    rng = np.random.default_rng(5)
    spec = HilbertSpec((3, 4))
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = StateVector(spec, v / np.linalg.norm(v))
    rho = DensityMatrix(spec, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    back = partial_trace(rho, keep=[0, 1])
    assert np.allclose(back.entries, rho.entries, atol=1e-12)


def test_partial_trace_trace_one():
    rng = np.random.default_rng(8)
    spec = HilbertSpec((4, 3, 2))
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    psi = StateVector(spec, v / np.linalg.norm(v))
    for keep in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):
        rho = partial_trace(psi, keep=keep)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_empty_keep():
    spec = HilbertSpec((3, 3))
    psi = basis_state(spec, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(psi, keep=[])


def test_density_matrix_path_matches_pure_path():
    rng = np.random.default_rng(21)
    spec = HilbertSpec((3, 4, 2))
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    psi = StateVector(spec, v / np.linalg.norm(v))
    rho_full = DensityMatrix(spec, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    for keep in ([0], [2], [0, 2], [1, 2]):
        a = partial_trace(psi, keep=keep)
        b = partial_trace(rho_full, keep=keep)
        assert np.allclose(a.entries, b.entries, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_schmidt_symmetry_property(seed):
    # bipartite pure state: both reduced spectra must agree
    rng = np.random.default_rng(seed)
    spec = HilbertSpec((4, 6))
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    psi = StateVector(spec, v / np.linalg.norm(v))
    ev_a = np.sort(partial_trace(psi, keep=[0]).eigenvalues())[-4:]
    ev_b = np.sort(partial_trace(psi, keep=[1]).eigenvalues())[-4:]
    assert np.allclose(ev_a, ev_b, atol=1e-8)


# --- expectation / validation -------------------------------------------------

def test_expectation_vacuum_number():
    psi = coherent(0.0, 5)
    _, _, num = ladder_ops(5)
    assert expectation(psi, num) == pytest.approx(0.0)


def test_expectation_fock_exact():
    spec = HilbertSpec((6,))
    psi = basis_state(spec, (4,))
    a, adag, _ = ladder_ops(6)
    n_op = ModeOperator(spec, adag.matrix @ a.matrix)
    assert expectation(psi, n_op).real == pytest.approx(4.0, abs=1e-14)


def test_expectation_spec_mismatch():
    psi = coherent(0.0, 5)
    _, _, num = ladder_ops(6)
    with pytest.raises(ValueError):
        expectation(psi, num)


def test_state_norm_validation():
    spec = HilbertSpec((3,))
    with pytest.raises(ValueError):
        StateVector(spec, [1.0, 1.0, 0.0])
    sv = StateVector(spec, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
    assert sv.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        StateVector(spec, [math.nan, 0.0, 0.0])


def test_density_matrix_validation():
    spec = HilbertSpec((2,))
    with pytest.raises(ValueError):
        DensityMatrix(spec, [[0.5, 0.5], [0.1, 0.5]])       # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(spec, [[0.9, 0.0], [0.0, 0.9]])       # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(spec, [[1.1, 0.0], [0.0, -0.1]])      # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(spec, [[math.nan, 0.0], [0.0, 0.5]])  # trace nan


def test_density_matrix_spectrum_from_positivity_check(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mat = x @ x.conj().T
    mat /= np.trace(mat).real
    spec = HilbertSpec((6,))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rho = DensityMatrix(spec, mat)
    first, second = rho.eigenvalues(), rho.eigenvalues()
    assert len(calls) == 1  # the positivity check's spectrum is reused
    assert np.array_equal(first, eigvalsh(rho.entries)) and second is first


def test_boundary_population():
    spec = HilbertSpec((3, 3))
    psi = basis_state(spec, (2, 0))
    pops = boundary_population(psi)
    assert pops[0] == pytest.approx(1.0)
    assert pops[1] == pytest.approx(0.0)


def test_min_coherent_dim_gate_consistency():
    for mean in (1.0, 4.0, 9.0):
        d = min_coherent_dim(mean)
        coherent_state(math.sqrt(mean), d)  # must not raise
        with pytest.raises(TruncationError):
            coherent_state(math.sqrt(mean), d - 1)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -1.0])
def test_min_coherent_dim_rejects_bad_mean(mean):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        min_coherent_dim(mean)


def test_coherent_dim_search_runaway_names_the_mean():
    # 2e5 quanta need more than the 100 000 levels the tail search may try;
    # coherent_state reports the dimension through the same search, so a
    # small truncation of such a pump gets the same error, not a false bound
    with pytest.raises(ValueError, match="needs more than 100000 Fock levels"):
        min_coherent_dim(2e5)
    with pytest.raises(ValueError, match="needs more than 100000 Fock levels"):
        coherent_state(math.sqrt(2e5), 30)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.0, math.nan)])
def test_coherent_rejects_non_finite_amplitude(alpha):
    with pytest.raises(ValueError, match="not finite"):
        coherent_state(alpha, 5)
