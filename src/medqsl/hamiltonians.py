"""Hamiltonians in dimensionless units, energy moments, and builtin systems.

A Hamiltonian here is the dimensionless matrix M = H / (hbar Omega); one
unit of evolution parameter T = Omega t generates exp(-i M T).  The mean
energy is always quoted above the ground state, so the pair
(mean, std) feeds the speed limit directly.

The builtin pairs are three-qubit systems where two parties A and B
interact only through a mediator C, plus the optimal direct two-qudit
coupling.  ``resource_equality_scale`` normalizes any (Hamiltonian,
state) pair so min{mean, std} = 1; the builtins already satisfy this
with scale 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    LayoutMismatchError,
    StationaryStateError,
)
from .linalg import dot_rows, require_hermitian
from .states import DensityState, SystemLayout, embed_operator
from .tolerances import STATIONARY_TOL

__all__ = [
    "Hamiltonian",
    "EnergyMoments",
    "energy_moments",
    "energy_moments_array",
    "resource_equality_scale",
    "direct_optimal",
    "generalized_x",
    "generalized_y",
    "cmi_product_example",
    "entangled_mediator_example",
    "classical_mediator_example",
    "open_system_example",
    "commuting_mediated",
    "BUILTIN_PAIRS",
    "builtin_pair",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator on a layout, in units of hbar Omega."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        if m.shape != (self.layout.dim, self.layout.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match layout dim {self.layout.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def ground_energy(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def scaled(self, k: float) -> "Hamiltonian":
        return Hamiltonian(self.layout, k * self.matrix)


@dataclass(frozen=True)
class EnergyMoments:
    """Mean energy above the ground state, and the energy spread.

    For a stack of states both are arrays, and ``smaller`` is for one state.
    """

    mean: float
    std: float

    @property
    def smaller(self) -> float:
        return min(self.mean, self.std)


def energy_moments_array(m: np.ndarray, x: np.ndarray, ground: float, *,
                         stacked: bool = False) -> EnergyMoments:
    """Moments of ``m`` in a state vector ``(n,)`` or a density matrix ``(n, n)``.

    With ``stacked`` the first axis of ``x`` runs over states, ``(T, n)``
    vectors or ``(T, n, n)`` matrices, and the moments are arrays of T
    values, each equal to the single-state moments of its row.  The mean
    is quoted above ``ground``, the lowest eigenvalue of ``m``, which the
    caller supplies so that no extra eigensolve is needed.
    """
    if x.ndim == 1 + stacked:
        mx = (m @ x[..., None])[..., 0]
        raw_mean = dot_rows(x.conj(), mx).real
        raw_sq = dot_rows(mx.conj(), mx).real
    else:
        raw_mean = np.einsum("ij,...ji->...", m, x).real
        raw_sq = np.einsum("ij,jk,...ki->...", m, m, x).real
    var = np.maximum(raw_sq - raw_mean * raw_mean, 0.0)
    mean, std = raw_mean - ground, np.sqrt(var)
    if stacked:
        return EnergyMoments(mean=mean, std=std)
    return EnergyMoments(mean=float(mean), std=float(std))


def energy_moments(h: Hamiltonian, s: DensityState) -> EnergyMoments:
    """Moments of ``h`` in state ``s``: (tr(M rho) - E_ground, sqrt(var)).

    For a stack of states the moments are arrays, one value per state.
    """
    if h.layout != s.layout:
        raise LayoutMismatchError(
            f"hamiltonian on {h.layout.labels}, state on {s.layout.labels}"
        )
    x = s.pure_vector if s.is_pure else s.matrix
    return energy_moments_array(h.matrix, x, h.ground_energy(), stacked=s.matrix.ndim == 3)


def resource_equality_scale(h: Hamiltonian, s: DensityState) -> tuple[Hamiltonian, float]:
    """Rescale ``h`` so that min{mean, std} = 1 in state ``s``.

    Returns the scaled Hamiltonian and the applied factor k.  Raises
    StationaryStateError when both moments are at most ``STATIONARY_TOL``,
    since no finite rescaling moves a stationary state.
    """
    em = energy_moments(h, s)
    if em.smaller <= STATIONARY_TOL:
        raise StationaryStateError(
            f"state is stationary for this Hamiltonian (min moment {em.smaller:.3e})"
        )
    k = 1.0 / em.smaller
    return h.scaled(k), k


def generalized_x(d: int, j: int) -> np.ndarray:
    """|0><j| + |j><0| on a d-level system."""
    m = np.zeros((d, d), dtype=complex)
    m[0, j] = 1.0
    m[j, 0] = 1.0
    return m


def generalized_y(d: int, j: int) -> np.ndarray:
    """-i|0><j| + i|j><0| on a d-level system."""
    m = np.zeros((d, d), dtype=complex)
    m[0, j] = -1j
    m[j, 0] = 1j
    return m


def direct_optimal(d: int, labels: tuple[str, str] = ("A", "B")) -> Hamiltonian:
    """The fastest direct entangler of two d-level systems.

    H = 1/(2 sqrt(d-1)) * sum_j (X^j + Y^j) (x) (X^j + Y^j), which drives
    |00> along cos(T)|00> + sin(T) sum_{j>=1} |jj>/sqrt(d-1) and reaches
    the maximally entangled state at T = arccos(1/sqrt(d)).
    """
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    layout = SystemLayout(((labels[0], d), (labels[1], d)))
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(1, d):
        a = generalized_x(d, j) + generalized_y(d, j)
        m += np.kron(a, a)
    return Hamiltonian(layout, m / (2.0 * math.sqrt(d - 1)))


def _three_qubits() -> SystemLayout:
    return SystemLayout((("A", 2), ("B", 2), ("C", 2)))


def cmi_product_example() -> tuple[Hamiltonian, DensityState]:
    """Mediated pair coupling (X_A Y_C + Y_B X_C)/sqrt(2) from |000>.

    A and B become maximally entangled at T = pi/2, twice the direct
    optimum, with the mediator disentangling again at the end.
    """
    layout = _three_qubits()
    m = (embed_operator(layout, ("A", "C"), np.kron(PAULI_X, PAULI_Y))
         + embed_operator(layout, ("B", "C"), np.kron(PAULI_Y, PAULI_X))) / math.sqrt(2)
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    return Hamiltonian(layout, m), DensityState.from_pure(layout, v)


def entangled_mediator_example() -> tuple[Hamiltonian, DensityState]:
    """Mediated coupling that entangles A:B at the direct-optimal rate.

    Starts from the three-qubit GHZ state, so AB:C carries maximal
    correlations; N_{A:B}(T) = sin(2T)/2 exactly as for the optimal
    direct qubit pair.
    """
    layout = _three_qubits()
    hc1 = -(ID2 + PAULI_X + PAULI_Y + PAULI_Z)
    hc2 = ID2 - PAULI_X - PAULI_Y + PAULI_Z
    m = (embed_operator(layout, ("A", "C"), np.kron(PAULI_Z, hc1))
         + embed_operator(layout, ("B", "C"), np.kron(PAULI_Z, hc2))) / (2 * math.sqrt(2))
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    return Hamiltonian(layout, m), DensityState.from_pure(layout, v)


def classical_mediator_example() -> tuple[Hamiltonian, DensityState]:
    """Dephasing-style coupling with a merely classically correlated mediator.

    The initial state mixes two Bell-like AB states flagged by orthogonal
    mediator states; the commuting interaction (Z_A Z_C + Z_B Z_C)/2 still
    yields N_{A:B}(T) = sin(2T)/2, and the state stays classical on C
    throughout.
    """
    layout = _three_qubits()
    m = (embed_operator(layout, ("A", "C"), np.kron(PAULI_Z, PAULI_Z))
         + embed_operator(layout, ("B", "C"), np.kron(PAULI_Z, PAULI_Z))) / 2.0
    return Hamiltonian(layout, m), _classical_initial_state(layout)


def _classical_initial_state(layout: SystemLayout) -> DensityState:
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
    psi = (np.kron(plus, minus) + np.kron(minus, plus)) / math.sqrt(2)
    psi_t = (np.kron(minus, minus) + np.kron(plus, plus)) / math.sqrt(2)
    k0 = np.array([1, 0], dtype=complex)
    k1 = np.array([0, 1], dtype=complex)
    rho = 0.5 * np.outer(np.kron(psi, k0), np.kron(psi, k0).conj()) \
        + 0.5 * np.outer(np.kron(psi_t, k1), np.kron(psi_t, k1).conj())
    return DensityState(layout, rho)


def open_system_example() -> tuple[Hamiltonian, DensityState]:
    """Z_A Z_C coupling from the classical-mediator initial state.

    Only A talks to the mediator, yet A:B entanglement still grows to
    maximal at T = pi/4 while the AB marginal purifies from 1/2 to 1.
    """
    layout = _three_qubits()
    m = embed_operator(layout, ("A", "C"), np.kron(PAULI_Z, PAULI_Z))
    return Hamiltonian(layout, m), _classical_initial_state(layout)


def commuting_mediated(h_a: np.ndarray, h_b: np.ndarray, h_c: np.ndarray) -> Hamiltonian:
    """(H_A (x) I + I (x) H_B) (x) H_C: both couplings commute.

    Such Hamiltonians cannot entangle A with B from any product
    rho_AB (x) rho_C, whatever the local factors are.
    """
    h_a, h_b, h_c = (require_hermitian(h) for h in (h_a, h_b, h_c))
    layout = SystemLayout((("A", h_a.shape[0]), ("B", h_b.shape[0]), ("C", h_c.shape[0])))
    m = embed_operator(layout, ("A", "C"), np.kron(h_a, h_c)) \
        + embed_operator(layout, ("B", "C"), np.kron(h_b, h_c))
    return Hamiltonian(layout, m)


BUILTIN_PAIRS = {
    "cmi-product": cmi_product_example,
    "cmi-entangled": entangled_mediator_example,
    "cmi-classical": classical_mediator_example,
    "open-system": open_system_example,
}


def builtin_pair(name: str) -> tuple[Hamiltonian, DensityState]:
    """Look up a builtin (Hamiltonian, initial state) pair by CLI name."""
    try:
        return BUILTIN_PAIRS[name]()
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; choices: {sorted(BUILTIN_PAIRS)}"
        ) from None
