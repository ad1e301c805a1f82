"""Hamiltonians in dimensionless units, energy moments, and builtin systems.

A Hamiltonian here is the dimensionless matrix M = H / (hbar Omega); one
unit of evolution parameter T = Omega t generates exp(-i M T).  The mean
energy is always quoted above the ground state, so the pair
(mean, std) feeds the speed limit directly.

The builtin pairs are three-qubit systems where two parties A and B
interact only through a mediator C, plus the optimal direct two-qudit
coupling.  ``EnergyMoments.scale`` gives the factor k that normalizes
any (Hamiltonian, state) pair to min{mean, std} = 1 through
``Hamiltonian.scaled``; the builtins already satisfy this with k = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StationaryStateError
from .linalg import dot_rows, first_failure, kron_stack, require_hermitian
from .states import DensityState, SystemLayout, _value, embed_operator, require_dim
from .tolerances import STATIONARY_TOL

__all__ = [
    "Hamiltonian",
    "EnergyMoments",
    "energy_moments",
    "energy_moments_array",
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
    """Hermitian generator on a layout, in units of hbar Omega.

    ``matrix`` may also be a ``(B, n, n)`` stack of B couplings on one
    layout; ``eig`` and ``scaled`` then work on the stack, and ``h[i]`` is coupling i.
    """

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        if m.ndim > 3 or m.shape[-2:] != (self.layout.dim, self.layout.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match layout dim {self.layout.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of the checked ``matrix``: read-only, computed once on first use."""
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def __getitem__(self, i) -> "Hamiltonian":
        """Coupling ``i`` of a stack, so a stack iterates; a kept ``eig`` keeps its row."""
        out = Hamiltonian(self.layout, self.matrix[i])
        if "eig" in self.__dict__:
            out.__dict__["eig"] = tuple(a[i] for a in self.eig)
        return out

    def scaled(self, k) -> "Hamiltonian":
        """k M, one k per coupling of a stack.

        For k >= 0 a kept ``eig`` carries over as (k w, v), still ascending.
        """
        k = np.asarray(k, dtype=float)
        out = Hamiltonian(self.layout, k[..., None, None] * self.matrix)
        if (k >= 0).all() and "eig" in self.__dict__:
            w, v = self.eig
            w = k[..., None] * w
            w.setflags(write=False)
            out.__dict__["eig"] = (w, v)
        return out


@dataclass(frozen=True)
class EnergyMoments:
    """Mean energy above the ground state, and the energy spread.

    For a stack both are arrays, and so are ``smaller`` and ``scale``.
    """

    mean: float
    std: float

    @property
    def smaller(self) -> float | np.ndarray:
        return _value(np.minimum(self.mean, self.std))

    def scale(self) -> float | np.ndarray:
        """k = 1 / min{mean, std}, refused when that smaller moment is at most ``STATIONARY_TOL``.

        For a stack, any stationary state refuses the whole stack, and the
        error names the first one by its stack index (kept as ``index``).
        """
        smaller = self.smaller
        k = first_failure(~(np.asarray(smaller) <= STATIONARY_TOL))
        if k is not None:
            raise StationaryStateError(f"state is stationary (min energy moment "
                                       f"{np.asarray(smaller)[k]:.3e}): its speed limit "
                                       "is vacuous", k)
        return 1.0 / smaller


def energy_moments_array(h: Hamiltonian, x: np.ndarray, *,
                         density: bool = False) -> EnergyMoments:
    """Moments of ``h`` in the states ``x``, arrays over its leading axes.

    ``x`` holds column factors X of rho = X X+, ``(..., n, k)``, a pure
    state being its one-column factor: the moments are tr(X+ M X) and
    |M X|^2, and no density matrix is formed.  With ``density`` it holds
    density matrices ``(..., n, n)``; shape cannot tell the two apart at
    k = n.  Leading axes broadcast against a ``(B, n, n)`` stack ``h``, and
    each value is the one-state call's bit for bit.  The mean is quoted
    above the lowest eigenvalue in ``h.eig``.
    """
    m = h.matrix
    if density:
        raw_mean = np.einsum("...ij,...ji->...", m, x).real
        raw_sq = np.einsum("...ij,...ji->...", m @ m, x).real
    else:
        mx = m @ x
        rows = mx.shape[:-2] + (-1,)
        x, mx = np.broadcast_to(x, mx.shape).reshape(rows), mx.reshape(rows)
        raw_mean = dot_rows(x.conj(), mx).real
        raw_sq = dot_rows(mx.conj(), mx).real
    var = np.maximum(raw_sq - raw_mean * raw_mean, 0.0)
    return EnergyMoments(mean=_value(raw_mean - h.eig[0][..., 0]), std=_value(np.sqrt(var)))


def energy_moments(h: Hamiltonian, s: DensityState) -> EnergyMoments:
    """Moments of ``h`` in state ``s``: (tr(M rho) - E_ground, sqrt(var)).

    For a stack of states or of couplings the moments are arrays, one value per row.
    """
    s.layout.require(h.layout, "hamiltonian")
    pure = s.is_pure
    return energy_moments_array(h, s.pure_vector[..., None] if pure else s.matrix,
                                density=not pure)


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


def direct_optimal(d: int) -> Hamiltonian:
    """The fastest direct entangler of two d-level systems.

    H = 1/(2 sqrt(d-1)) * sum_j (X^j + Y^j) (x) (X^j + Y^j), which drives
    |00> along cos(T)|00> + sin(T) sum_{j>=1} |jj>/sqrt(d-1) and reaches
    the maximally entangled state at T = arccos(1/sqrt(d)).
    """
    d = require_dim(d)
    layout = SystemLayout((("A", d), ("B", d)))
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(1, d):
        a = generalized_x(d, j) + generalized_y(d, j)
        m += kron_stack(a, a)
    return Hamiltonian(layout, m / (2.0 * math.sqrt(d - 1)))


def _three_qubits() -> SystemLayout:
    return SystemLayout((("A", 2), ("B", 2), ("C", 2)))


def cmi_product_example() -> tuple[Hamiltonian, DensityState]:
    """Mediated pair coupling (X_A Y_C + Y_B X_C)/sqrt(2) from |000>.

    A and B become maximally entangled at T = pi/2, twice the direct
    optimum, with the mediator disentangling again at the end.
    """
    layout = _three_qubits()
    m = (embed_operator(layout, ("A", "C"), kron_stack(PAULI_X, PAULI_Y))
         + embed_operator(layout, ("B", "C"), kron_stack(PAULI_Y, PAULI_X))) / math.sqrt(2)
    return Hamiltonian(layout, m), DensityState.basis(layout)


def entangled_mediator_example() -> tuple[Hamiltonian, DensityState]:
    """Mediated coupling that entangles A:B at the direct-optimal rate.

    Starts from the three-qubit GHZ state, so AB:C carries maximal
    correlations; N_{A:B}(T) = sin(2T)/2 exactly as for the optimal
    direct qubit pair.
    """
    layout = _three_qubits()
    hc1 = -(ID2 + PAULI_X + PAULI_Y + PAULI_Z)
    hc2 = ID2 - PAULI_X - PAULI_Y + PAULI_Z
    m = (embed_operator(layout, ("A", "C"), kron_stack(PAULI_Z, hc1))
         + embed_operator(layout, ("B", "C"), kron_stack(PAULI_Z, hc2))) / (2 * math.sqrt(2))
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
    m = (embed_operator(layout, ("A", "C"), kron_stack(PAULI_Z, PAULI_Z))
         + embed_operator(layout, ("B", "C"), kron_stack(PAULI_Z, PAULI_Z))) / 2.0
    return Hamiltonian(layout, m), _classical_initial_state(layout)


def _classical_initial_state(layout: SystemLayout) -> DensityState:
    # column vectors, so each product state is one kron_stack
    plus = np.array([[1], [1]], dtype=complex) / math.sqrt(2)
    minus = np.array([[1], [-1]], dtype=complex) / math.sqrt(2)
    psi = (kron_stack(plus, minus) + kron_stack(minus, plus)) / math.sqrt(2)
    psi_t = (kron_stack(minus, minus) + kron_stack(plus, plus)) / math.sqrt(2)
    v0 = kron_stack(psi, np.array([[1], [0]], dtype=complex))
    v1 = kron_stack(psi_t, np.array([[0], [1]], dtype=complex))
    rho = 0.5 * np.outer(v0, v0.conj()) + 0.5 * np.outer(v1, v1.conj())
    return DensityState(layout, rho)


def open_system_example() -> tuple[Hamiltonian, DensityState]:
    """Z_A Z_C coupling from the classical-mediator initial state.

    Only A talks to the mediator, yet A:B entanglement still grows to
    maximal at T = pi/4 while the AB marginal purifies from 1/2 to 1.
    """
    layout = _three_qubits()
    m = embed_operator(layout, ("A", "C"), kron_stack(PAULI_Z, PAULI_Z))
    return Hamiltonian(layout, m), _classical_initial_state(layout)


def commuting_mediated(h_a: np.ndarray, h_b: np.ndarray, h_c: np.ndarray) -> Hamiltonian:
    """(H_A (x) I + I (x) H_B) (x) H_C: both couplings commute.

    Such Hamiltonians cannot entangle A with B from any product
    rho_AB (x) rho_C, whatever the local factors are.  Three ``(B, d, d)``
    stacks of factors give the stack of B couplings.
    """
    h_a, h_b, h_c = (require_hermitian(h) for h in (h_a, h_b, h_c))
    layout = SystemLayout((("A", h_a.shape[-1]), ("B", h_b.shape[-1]), ("C", h_c.shape[-1])))
    m = embed_operator(layout, ("A", "C"), kron_stack(h_a, h_c)) \
        + embed_operator(layout, ("B", "C"), kron_stack(h_b, h_c))
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
