"""States, Fourier bases, Born tables, and Bell-operator eigenproblems.

The d^2 x d^2 CGLMP operator below is the oracle for the d x d Toeplitz
eigensolve that the package runs; no package code builds it."""
from dataclasses import dataclass
from itertools import product
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diqkd_cc import (
    MeasurementBasis,
    PureState,
    cglmp_born_table,
    cglmp_coefficients,
    cglmp_state,
    cglmp_value,
    fourier_basis,
    idmax_closed_form,
    maximally_entangled_state,
    validate,
)
from diqkd_cc.cglmp import _difference_coefficients
from diqkd_cc.quantum import (
    CGLMP_ALICE_PHASES,
    CGLMP_BOB_PHASES,
    _cglmp_toeplitz,
    _diagonal_state,
    _key_differences,
    _top_eigenpair,
    difference_distribution,
)
from diqkd_cc.scenario import Scenario, _differences

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class BellOperatorMatrix:
    d: int
    matrix: np.ndarray       # (d^2, d^2) Hermitian
    coefficients: np.ndarray  # c(a,b,x,y) used to build it

    def __post_init__(self):
        dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if not dev <= HERMITICITY_TOL:
            raise ValueError(f"operator not Hermitian: residual {dev:.3e}")


def max_eigenpair(op: BellOperatorMatrix) -> tuple[float, PureState]:
    """Largest eigenvalue and a unit eigenvector of the Hermitian operator."""
    lam, v = _top_eigenpair(op.matrix)
    return lam, PureState(d=op.d, amplitudes=v)


def cglmp_bell_operator(d: int) -> BellOperatorMatrix:
    """sum_{a,b,x,y} c(a,b,x,y) P_{a|x} (x) P_{b|y} over the two Bell settings of
    each party, with rank-1 Fourier projectors: the d^2 x d^2 CGLMP operator."""
    coefficients = cglmp_coefficients(d)
    B = np.zeros((d * d, d * d), dtype=complex)
    for x, alpha in enumerate(CGLMP_ALICE_PHASES):
        Va = fourier_basis(d, alpha).vectors
        for y, beta in enumerate(CGLMP_BOB_PHASES):
            Vb = fourier_basis(d, beta, conjugate=True).vectors
            for a in range(d):
                Pa = np.outer(Va[a], Va[a].conj())
                row = coefficients[a, :, x, y]
                if not row.any():
                    continue
                Pb_sum = np.zeros((d, d), dtype=complex)
                for b in range(d):
                    if row[b] != 0.0:
                        Pb_sum += row[b] * np.outer(Vb[b], Vb[b].conj())
                B += np.kron(Pa, Pb_sum)
    return BellOperatorMatrix(d=d, matrix=B, coefficients=coefficients)


OP3 = cglmp_bell_operator(3)


# ------------------------------------------------------------------- bases

def test_fourier_d2_phase_zero():
    basis = fourier_basis(2, 0.0)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)
    assert np.allclose(basis.vectors, expected, atol=1e-15)


@given(st.integers(2, 10), st.floats(-2.0, 2.0), st.booleans())
def test_fourier_bases_are_orthonormal(d, phase, conjugate):
    basis = fourier_basis(d, phase, conjugate=conjugate)
    gram = basis.vectors @ basis.vectors.conj().T
    assert np.allclose(gram, np.eye(d), atol=1e-12)


def test_fourier_rejects_d1():
    with pytest.raises(ValueError):
        fourier_basis(1, 0.0)


@pytest.mark.parametrize("build", [
    lambda d: maximally_entangled_state(d).amplitudes,
    lambda d: fourier_basis(d, 0.25).vectors,
], ids=["maximally_entangled_state", "fourier_basis"])
def test_builders_require_integral_d(build):
    for d in (2.5, 3.0, "3"):
        with pytest.raises(TypeError, match="integer"):
            build(d)
    for d in (1, True, 0, -4):
        with pytest.raises(ValueError, match=">= 2"):
            build(d)
    assert np.array_equal(build(np.int64(5)), build(5))


def test_basis_validation_rejects_degenerate_vectors():
    bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis(d=2, phase=0.0, vectors=bad)


# ------------------------------------------------------------------ states

def test_pure_state_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        PureState(d=2, amplitudes=np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))


def test_pure_state_requires_d_squared_amplitudes():
    with pytest.raises(ValueError):
        PureState(d=3, amplitudes=np.zeros(4, dtype=complex))


def test_pure_state_requires_integral_d():
    amp = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(TypeError, match="integer"):
        PureState(d=2.0, amplitudes=amp)
    with pytest.raises(ValueError, match=">= 2"):
        PureState(d=True, amplitudes=amp[:1])
    assert type(PureState(d=np.int64(2), amplitudes=amp).d) is int


def test_state_leaves_the_callers_array_writable():
    # the state freezes its own copy, not the array it was given
    amp = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = PureState(d=2, amplitudes=amp)
    amp[0] = 0.0
    assert state.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_validation_rejects_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="normalized"):
        PureState(d=2, amplitudes=np.array([nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="orthonormal"):
        fourier_basis(3, nan)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_maximally_entangled_state(d):
    state = maximally_entangled_state(d)
    psi = state.amplitudes.reshape(d, d)
    assert np.allclose(psi, np.eye(d) / sqrt(d), atol=1e-15)
    assert np.allclose(np.abs(state.amplitudes[:: d + 1]), 1.0 / sqrt(d), atol=1e-12)


# ------------------------------------------------------------- Born tables

def test_optimal_phase_layout():
    # Bell settings take the optimal phases; Bob's key setting reuses Alice's
    # key phase so outcomes correlate exactly. Every one of the six setting
    # pairs is the chained product <a_x| Psi |b_y> to the bit, with each
    # basis built once
    alice = CGLMP_ALICE_PHASES
    bob = CGLMP_BOB_PHASES + (alice[1],)
    rng = np.random.default_rng(7)
    for d in (2, 3, 7, 16, 64):
        amp = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        random_state = PureState(d=d, amplitudes=amp / np.linalg.norm(amp))
        for state in (random_state, maximally_entangled_state(d), cglmp_state(d)):
            t = cglmp_born_table(state)
            Psi = state.amplitudes.reshape(d, d)
            for (x, alpha), (y, beta) in product(enumerate(alice), enumerate(bob)):
                Va = fourier_basis(d, alpha).vectors
                Vb = fourier_basis(d, beta, conjugate=True).vectors
                expected = np.abs(np.einsum("aq,qr,br->ab", Va.conj(), Psi, Vb.conj())) ** 2
                assert np.allclose(t.p[:, :, x, y], expected, atol=1e-14)
                chained = np.abs(Va.conj() @ Psi @ Vb.conj().T) ** 2
                assert np.array_equal(t.p[:, :, x, y], chained)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_key_settings_give_perfect_correlations(d):
    t = cglmp_born_table(maximally_entangled_state(d))
    s = t.scenario
    key_block = t.p[:, :, s.keyX - 1, s.keyY - 1]
    assert np.allclose(key_block, np.eye(d) / d, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_born_tables_validate(d):
    for state in (maximally_entangled_state(d), cglmp_state(d)):
        rep = validate(cglmp_born_table(state))
        assert rep.ok, str(rep)


def test_born_d2_reaches_tsirelson():
    t = cglmp_born_table(maximally_entangled_state(2))
    assert cglmp_value(t) == pytest.approx(2.0 * sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_max_entangled_table_is_cyclic(d):
    # p(a,b|x,y) depends only on (b - a) mod d
    t = cglmp_born_table(maximally_entangled_state(d))
    for x in range(t.scenario.nA):
        for y in range(t.scenario.nB):
            block = t.p[:, :, x, y]
            for k in range(d):
                j = np.arange(d)
                assert np.allclose(block[j, (j + k) % d], block[0, k], atol=1e-12)


def test_value_invariant_under_joint_relabeling():
    t = cglmp_born_table(maximally_entangled_state(3))
    rolled = type(t)(t.scenario, np.roll(t.p, shift=(1, 1), axis=(0, 1)))
    assert cglmp_value(rolled) == pytest.approx(cglmp_value(t), abs=1e-12)


def test_born_table_argument_checks():
    # the phases and the scenario are fixed; only the state can be passed
    state = maximally_entangled_state(3)
    with pytest.raises(TypeError):
        cglmp_born_table(state, (0.0, -0.5), (0.25, -0.25, -0.5))
    with pytest.raises(TypeError):
        cglmp_born_table(state, scenario=None)
    assert cglmp_born_table(state).p.shape == (3, 3, 2, 3)


# ------------------------------------------- Bell operators (the oracle)

def test_bell_operator_is_hermitian():
    assert OP3.matrix.shape == (9, 9)
    assert np.allclose(OP3.matrix, OP3.matrix.conj().T, atol=1e-12)


def test_bell_operator_rejects_nan():
    with pytest.raises(ValueError, match="Hermitian"):
        BellOperatorMatrix(d=2, matrix=np.full((4, 4), float("nan"), dtype=complex),
                           coefficients=np.zeros((2, 2, 2, 2)))


def test_hermiticity_validation():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        BellOperatorMatrix(d=2, matrix=m, coefficients=np.zeros((2, 2, 2, 2)))


def test_max_eigenpair_on_diagonal_matrix():
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    op = BellOperatorMatrix(d=2, matrix=m, coefficients=np.zeros((2, 2, 2, 2)))
    lam, state = max_eigenpair(op)
    assert lam == pytest.approx(4.0, abs=1e-12)
    assert abs(state.amplitudes[3]) == pytest.approx(1.0, abs=1e-12)


def test_largest_eigenvalue_d2_is_tsirelson():
    lam, _ = max_eigenpair(cglmp_bell_operator(2))
    assert lam == pytest.approx(2.0 * sqrt(2.0), abs=1e-9)


def test_largest_eigenvalue_d3():
    lam, _ = max_eigenpair(OP3)
    assert lam == pytest.approx(1.0 + sqrt(11.0 / 3.0), abs=1e-9)
    assert lam > idmax_closed_form(3)


@given(st.integers(0, 2**32 - 1))
def test_eigenvalue_is_variational_maximum(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    v /= np.linalg.norm(v)
    lam, _ = max_eigenpair(OP3)
    assert np.real(v.conj() @ OP3.matrix @ v) <= lam + 1e-9


# ----------------------------------------------------------- tuned states

def test_cglmp_state_d2_is_maximally_entangled():
    overlap = abs(np.vdot(cglmp_state(2).amplitudes, maximally_entangled_state(2).amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_cglmp_state_d3_schmidt_spectrum():
    # Schmidt vector proportional to (1, gamma, 1), gamma = (sqrt 11 - sqrt 3)/2
    # the state is sum_q c_q |qq>, so its Schmidt coefficients are the |c_q|
    coeffs = np.sort(np.abs(cglmp_state(3).amplitudes[::4]))[::-1]
    gamma = (sqrt(11.0) - sqrt(3.0)) / 2.0
    assert coeffs[0] == pytest.approx(coeffs[1], abs=1e-9)
    assert coeffs[2] / coeffs[0] == pytest.approx(gamma, abs=1e-9)
    assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-12)


def test_cglmp_state_value_matches_eigenvalue():
    lam, state = max_eigenpair(OP3)
    assert cglmp_value(cglmp_born_table(state)) == pytest.approx(lam, abs=1e-9)


# --------------------------------------- Toeplitz state, D from amplitudes

@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_toeplitz_state_matches_full_operator(d):
    # the d^2 x d^2 operator is the oracle for the d x d Toeplitz eigensolve
    lam_full, full = max_eigenpair(cglmp_bell_operator(d))
    lam_toeplitz = np.linalg.eigvalsh(_cglmp_toeplitz(d))[-1]
    assert abs(lam_toeplitz - lam_full) <= 1e-12
    state = cglmp_state(d)
    assert abs(np.vdot(state.amplitudes, full.amplitudes)) >= 1.0 - 1e-12
    amp = state.amplitudes.reshape(d, d)
    assert np.array_equal(amp, np.diag(np.diag(amp)))  # only |qq> amplitudes


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_toeplitz_matrix_is_the_operator_on_span_qq(d):
    diagonal = np.arange(d) * (d + 1)
    B = cglmp_bell_operator(d).matrix[np.ix_(diagonal, diagonal)]
    assert np.max(np.abs(_cglmp_toeplitz(d) - B)) <= 1e-13


def _complex_toeplitz(d):
    """The Toeplitz operator from its general form, before the sines cancel:
    B[q, q'] = (1/d) sum_{x,y,k} C(k|x,y) exp(-2 pi i (q - q')(k + phiB_y - phiA_x)/d)
    over the two Bell settings, a complex Hermitian matrix."""
    m = np.arange(d)
    shift = (m[:, None, None] + np.array(CGLMP_BOB_PHASES)[None, None, :]
             - np.array(CGLMP_ALICE_PHASES)[None, :, None])  # k + phiB_y - phiA_x
    entries = (np.exp(-2j * pi / d * np.multiply.outer(m, shift)).reshape(d, -1)
               @ _difference_coefficients(d).ravel() / d)
    lag = m[:, None] - m[None, :]
    return np.where(lag >= 0, entries[np.abs(lag)], entries[np.abs(lag)].conj())


@pytest.mark.parametrize("d", [*range(2, 65), 512, 1024])
def test_toeplitz_matrix_is_real_symmetric(d):
    # the DFT of the cosine sum is the real part of the general complex build,
    # whose imaginary part cancels; the largest residual, 1.9e-13, is at d = 1024
    B = _cglmp_toeplitz(d)
    assert B.dtype == np.float64
    assert np.array_equal(B, B.T)
    assert np.max(np.abs(B - _complex_toeplitz(d))) <= 1e-12


def test_tuned_state_amplitudes_are_real_positive_and_palindromic():
    for d in range(2, 65):
        c = cglmp_state(d).amplitudes[:: d + 1]
        assert np.all(c.imag == 0.0)
        c = c.real * np.sign(c.real[0])  # the eigensolve fixes no global sign
        assert np.all(c > 0.0), d
        assert np.max(np.abs(c - c[::-1])) <= 1e-12, d


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 16])
def test_difference_distribution_matches_born_table(d):
    # complex amplitudes too: the kernel takes c_q as given
    rng = np.random.default_rng(d)
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    for state in (cglmp_state(d), maximally_entangled_state(d),
                  _diagonal_state(c / np.linalg.norm(c))):
        D = difference_distribution(state.amplitudes[:: d + 1])
        assert D.shape == (d, 2, 3)
        reference = _differences(cglmp_born_table(state))
        assert np.max(np.abs(D - reference)) <= 1e-14


@pytest.mark.parametrize("d", range(2, 65))
def test_key_column_alone_is_the_difference_distribution_column(d):
    # s_xy is 0 at the key pair, so one inverse DFT of c_q gives that column
    # bit for bit: for the tuned eigenvector and the uniform amplitudes that
    # the key-rate layer passes
    for c in (_top_eigenpair(_cglmp_toeplitz(d))[1], np.full(d, 1.0 / sqrt(d))):
        key = difference_distribution(c)[:, Scenario.keyX - 1, Scenario.keyY - 1]
        assert np.array_equal(_key_differences(c), key), d


@pytest.mark.parametrize("c", [[], [1.0], [np.nan, 1.0], [[0.5, 0.5], [0.5, 0.5]]],
                         ids=["empty", "d1", "nan", "2d"])
def test_difference_distribution_rejects_invalid_amplitudes(c):
    # unchecked, [] divides by d = 0, [1.0] gives a (1, 2, 3) D and one NaN
    # spreads over all of D
    with pytest.raises(ValueError):
        difference_distribution(np.array(c))
