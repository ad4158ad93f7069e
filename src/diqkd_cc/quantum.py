"""Complex linear-algebra layer: states, Fourier measurement bases, the
tuned state's Toeplitz operator, and Born-rule correlation tables used as the
nonlocal resource.

Both states of the protocol have the form sum_q c_q |qq>, and everything the
key-rate layer needs is computed from the d amplitudes c_q. The tuned state
is the top eigenvector of the CGLMP operator restricted to span{|qq>}, a d x d
Toeplitz matrix (Acin, Durt, Gisin & Latorre, PRA 65, 052325 (2002)). With
the optimal Fourier phases its sine parts cancel in pairs, so it is real
symmetric, and c_q is real. Its entries and the difference distribution
D(k|x,y) of a state are both DFTs, of the term weights and of the
amplitudes, and are computed with FFTs. The top eigenvalue lambda_max of the
operator's real eigensolve is the state's CGLMP value, which gives the local
visibility 2/lambda_max, and its table enters only through D(k|x,y), of
which the key rate reads the key-setting column: the inverse DFT of c_q
itself. The dense eigensolve bounds d: TUNED_STATE_MAX_D. The full Born
table remains as the reference the difference distribution is tested
against, and serves idmax up to BORN_TABLE_MAX_D; the d^2 x d^2 operator
that the Toeplitz matrix restricts lives in the tests. check-local uses
nothing here: it reads V_L = 2/I_d^max from the closed form, which for
d < 512 is a stdlib series that calls no numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np
# numpy loads numpy.fft on first use; importing it here books its 1 to 2 ms
# to start-up rather than to the first solve
from numpy.fft import fft, ifft

from .cglmp import _cglmp_weight
from .scenario import CorrelationTable, Scenario, _check_dimension

ORTHONORMALITY_TOL = 1e-12
EIGENPAIR_RESIDUAL_TOL = 1e-9

#: Largest d for which the tuned state's d x d Toeplitz operator is built and
#: eigensolved. The dense real eigensolve grows as d^3 in time: it takes
#: 0.22 to 0.29 s at d = 1024 on one core of a 2-core x86-64 machine, and
#: `vcrit --d 1024 --state cglmp` takes 0.4 to 0.6 s end to end there (0.2 s
#: of it start-up) and 72 MB peak: about 29 MB of interpreter and numpy, and
#: a few d x d arrays (the operator and its eigenvectors). d = 2048 would
#: need about 4x the array memory and 8x the eigensolve time.
TUNED_STATE_MAX_D = 1024

#: Largest d for which `idmax` builds the Born table of the maximally
#: entangled state: its d^2 amplitudes, the five d x d Fourier bases (each
#: built once) and a d x d product per setting pair. Time grows as d^3 and
#: memory as d^2: `idmax --d 512` takes 0.4 to 0.5 s and 78 MB peak end to
#: end on one core of a 2-core x86-64 machine, d = 1024 2.2 s and 217 MB.
BORN_TABLE_MAX_D = 512

#: Fourier phases maximizing I_d on the maximally entangled state for the two
#: Bell settings of each party (validated against idmax_closed_form for
#: d = 2..10; see tests).
CGLMP_ALICE_PHASES = (0.0, -0.5)
CGLMP_BOB_PHASES = (0.25, -0.25)
#: Bob's phases for all three of his settings: his key setting reuses Alice's
#: keyX phase, which makes the key-setting table perfectly correlated.
_BOB_PHASES = CGLMP_BOB_PHASES + (CGLMP_ALICE_PHASES[Scenario.keyX - 1],)
#: phiB_y - phiA_x at [x-1, y-1]: the fractional outcome shift of each setting
#: pair, 0 at the key pair.
_SETTING_SHIFTS = np.array(_BOB_PHASES) - np.array(CGLMP_ALICE_PHASES)[:, None]


@dataclass(frozen=True)
class PureState:
    """Bipartite pure state on C^d x C^d, amplitudes over |q>|r> (q major)."""
    d: int
    amplitudes: np.ndarray

    def __post_init__(self):
        d = _check_dimension(self.d)
        object.__setattr__(self, "d", d)
        # a copy, so that freezing it leaves the caller's array writable
        amp = np.array(self.amplitudes, dtype=complex, order="C")
        if amp.shape != (d * d,):
            raise ValueError(f"amplitude vector must have length d^2={d**2}, got {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1):.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class MeasurementBasis:
    """d orthonormal vectors (rows) in Fourier-phase form."""
    d: int
    phase: float
    vectors: np.ndarray  # (outcome, component)

    def __post_init__(self):
        gram = self.vectors @ self.vectors.conj().T
        dev = float(np.max(np.abs(gram - np.eye(self.d))))
        if not dev <= ORTHONORMALITY_TOL:
            raise ValueError(f"basis not orthonormal: residual {dev:.3e}")


def fourier_basis(d: int, phase: float, conjugate: bool = False) -> MeasurementBasis:
    """Basis vector for outcome a has components exp(i 2pi q (a + phase)/d)/sqrt(d).

    Bob's bases use conjugate=True (negated exponent). Outcomes enter 0-based
    internally; a global outcome shift only relabels the vectors.
    """
    d = _check_dimension(d)
    q = np.arange(d)[None, :]
    a = np.arange(d)[:, None]
    sign = -1.0 if conjugate else 1.0
    vectors = np.exp(sign * 2j * pi * q * (a + phase) / d) / sqrt(d)
    return MeasurementBasis(d=d, phase=phase, vectors=vectors)


def _diagonal_state(c: np.ndarray) -> PureState:
    """sum_q c_q |qq> from its d amplitudes c_q."""
    d = len(c)
    amp = np.zeros(d * d, dtype=complex)
    amp[:: d + 1] = c
    return PureState(d=d, amplitudes=amp)


def maximally_entangled_state(d: int) -> PureState:
    """(1/sqrt d) sum_q |qq>."""
    d = _check_dimension(d)
    return _diagonal_state(np.full(d, 1.0 / sqrt(d)))


def cglmp_born_table(state: PureState) -> CorrelationTable:
    """p(a,b|x,y) = |<a_x| <b_y| psi>|^2 with the optimal Fourier bases per setting."""
    d = state.d
    scenario = Scenario(d)
    Psi = state.amplitudes.reshape(d, d)
    p = np.empty((d, d, scenario.nA, scenario.nB))
    # <a_x| Psi, (a, r), once per Alice setting; each basis is built once
    alice = [fourier_basis(d, alpha).vectors.conj() @ Psi for alpha in CGLMP_ALICE_PHASES]
    for y, beta in enumerate(_BOB_PHASES):
        Vb = fourier_basis(d, beta, conjugate=True).vectors.conj().T
        for x, amplitude in enumerate(alice):
            p[:, :, x, y] = np.abs(amplitude @ Vb) ** 2
    return CorrelationTable(scenario, p)


def _top_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a real symmetric or a
    Hermitian matrix (the eigenvector is real for a real matrix);
    ArithmeticError unless the eigenpair residual is within
    EIGENPAIR_RESIDUAL_TOL."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    lam = float(eigenvalues[-1])
    v = eigenvectors[:, -1]
    residual = float(np.linalg.norm(matrix @ v - lam * v))
    if not residual <= EIGENPAIR_RESIDUAL_TOL:
        raise ArithmeticError(f"eigenpair residual {residual:.3e} exceeds {EIGENPAIR_RESIDUAL_TOL}")
    return lam, v


def _cglmp_toeplitz(d: int) -> np.ndarray:
    """The CGLMP operator on span{|qq>}: the d x d real symmetric Toeplitz
    matrix B[q, q'] = entries[|q - q'|] with

        entries[m] = (4/d) sum_k w_k [cos(2 pi m (k + 1/4)/d) - cos(2 pi m (k + 3/4)/d)]

    over the terms (w_k, k) of I_d. In general B[q, q'] is
    (1/d) sum_{x,y,k} C(k|x,y) exp(-2 pi i (q - q')(k + phiB_y - phiA_x)/d)
    over the two Bell settings and the coefficients C(k|x,y) of the difference
    distribution in I_d. With the phases (0, -1/2) for Alice and (1/4, -1/4)
    for Bob, each term's four +1 shifts are +-(k + 1/4) and its four -1 shifts
    are +-(k + 3/4), each sign twice, so the sines cancel in pairs and B is
    real. The cosine sum is the real part of one DFT of length 4d:
    entries = (4/d) Re FFT(g)[:d] with g[4k + 1] = w_k and g[4k + 3] = -w_k.
    The weights w_k = _cglmp_weight(k, d) are all it reads of I_d. Its top
    eigenvalue is the largest CGLMP value of any state sum_q c_q |qq>.
    Unchecked: callers hold d to TUNED_STATE_MAX_D first."""
    w = _cglmp_weight(np.arange(d // 2), d)
    g = np.zeros(4 * d)
    g[1:4 * w.size:4] = w
    g[3:4 * w.size:4] = -w
    entries = fft(g)[:d].real * (4 / d)
    m = np.arange(d)
    return entries[np.abs(m[:, None] - m[None, :])]


def cglmp_state(d: int) -> PureState:
    """Eigenstate of the CGLMP Bell operator with the largest violation.

    It lies in span{|qq>}, where the operator is the d x d real symmetric
    Toeplitz matrix of _cglmp_toeplitz; its top eigenvector is the amplitude
    vector c_q, real and of one sign.
    Coincides with the maximally entangled state at d=2; strictly beats it
    for d >= 3 (non-uniform Schmidt spectrum).
    """
    d = _check_dimension(d, TUNED_STATE_MAX_D, "tuned-state")
    return _diagonal_state(_top_eigenpair(_cglmp_toeplitz(d))[1])


def difference_distribution(c: np.ndarray) -> np.ndarray:
    """D[k, x-1, y-1] = sum_a p(a, a+k mod d | x, y) of the table that
    cglmp_born_table gives for sum_q c_q |qq>: with w = exp(2 pi i/d),
    D(k|x,y) = |sum_q c_q w^(q s_xy) w^(qk)|^2 / d, one inverse DFT of
    c_q w^(q s_xy) per setting pair, where s_xy = phiB_y - phiA_x
    (_SETTING_SHIFTS). The table itself is p(a, b|x, y) = D(b - a|x, y)/d.
    ValueError unless c is 1-D, with d >= 2 entries, all finite."""
    c = np.asarray(c)
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValueError("amplitudes must be a 1-D array of finite numbers")
    d = _check_dimension(c.size)
    twisted = c * np.exp(2j * pi / d * np.multiply.outer(_SETTING_SHIFTS, np.arange(d)))
    return np.moveaxis(np.abs(ifft(twisted, norm="forward")) ** 2 / d, -1, 0)


def _key_differences(c: np.ndarray) -> np.ndarray:
    """The key-setting column D[:, keyX-1, keyY-1] of difference_distribution,
    alone: s_xy is 0 at the key pair, so it is |inverse DFT of c_q|^2 / d,
    with the same operations as that column. Unchecked."""
    return np.abs(ifft(c, norm="forward")) ** 2 / len(c)
