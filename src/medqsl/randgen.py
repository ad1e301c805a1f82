"""Counter-based random sampling for reproducible ensembles.

Every instance of a sweep owns an ``RngStream(seed, stream_id)``.
Streams use the Philox counter-based generator keyed by the pair, so
draw k of stream (s, i) is a pure function of (s, i, k): the same
triple gives bit-identical values regardless of how many worker
processes participate or in which order instances run.  Growing an
ensemble keeps stream ids of earlier instances, so an n-instance run
is a prefix of any larger run with the same seed.
"""

from __future__ import annotations

import numpy as np

from .errors import BadDimensionError
from .hamiltonians import Hamiltonian
from .states import SystemLayout, embed_operator

__all__ = [
    "RngStream",
    "haar_pure",
    "random_density",
    "random_hermitian",
    "random_mediated_hamiltonian",
]


class RngStream:
    """One independent, restartable random stream.

    Two streams constructed with the same ``(seed, stream_id)`` yield
    identical draw sequences on every platform.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        if not 0 <= stream_id < 2**64:
            raise ValueError(f"stream_id {stream_id} outside [0, 2^64)")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, *shape: int) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def complex_normals(self, *shape: int) -> np.ndarray:
        """Entries with independent unit-variance real and imaginary parts."""
        v = self._gen.standard_normal((2,) + shape)
        return v[0] + 1j * v[1]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def haar_pure(dim: int, stream: RngStream) -> np.ndarray:
    """Haar-uniform unit vector: normalized complex normals."""
    if dim < 1:
        raise BadDimensionError(f"need dim >= 1, got {dim}")
    z = stream.complex_normals(dim)
    return z / np.linalg.norm(z)


def random_density(dim: int, stream: RngStream) -> np.ndarray:
    """Hilbert-Schmidt random density matrix G G+ / tr(G G+), G square Ginibre."""
    if dim < 1:
        raise BadDimensionError(f"need dim >= 1, got {dim}")
    g = stream.complex_normals(dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, stream: RngStream) -> np.ndarray:
    """GUE matrix (G + G+)/2 from a square complex Ginibre draw."""
    if dim < 1:
        raise BadDimensionError(f"need dim >= 1, got {dim}")
    g = stream.complex_normals(dim, dim)
    return 0.5 * (g + g.conj().T)


def random_mediated_hamiltonian(d_a: int, d_b: int, d_c: int,
                                stream: RngStream) -> Hamiltonian:
    """H_AC (x) I_B + I_A (x) H_BC with independent GUE pair couplings.

    There is never a direct A-B term: any entanglement between the ends
    has to flow through the mediator C.  A one-dimensional mediator is
    allowed and degenerates this to purely local dynamics.
    """
    if d_a < 2 or d_b < 2:
        raise BadDimensionError(f"need d_a, d_b >= 2, got {d_a}, {d_b}")
    if d_c < 1:
        raise BadDimensionError(f"need d_c >= 1, got {d_c}")
    layout = SystemLayout((("A", d_a), ("B", d_b), ("C", d_c)))
    h_ac = random_hermitian(d_a * d_c, stream)
    h_bc = random_hermitian(d_b * d_c, stream)
    m = embed_operator(layout, ("A", "C"), h_ac) + embed_operator(layout, ("B", "C"), h_bc)
    return Hamiltonian(layout, m)
