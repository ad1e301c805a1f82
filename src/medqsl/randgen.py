"""Counter-based random sampling for reproducible ensembles.

Every instance of a sweep owns an ``RngStream(seed, stream_id)``.
Streams use the Philox counter-based generator keyed by the pair, so
draw k of stream (s, i) is a pure function of (s, i, k): the same
triple gives bit-identical values regardless of how many worker
processes participate or in which order instances run.  Growing an
ensemble keeps stream ids of earlier instances, so an n-instance run
is a prefix of any larger run with the same seed.

Each sampler takes one stream, or a sequence of them (a sweep block's) for
a stack whose row i is, bit for bit, the one-stream draw from stream i,
each stream advanced as that draw advances it.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import Hamiltonian
from .linalg import dot_rows
from .states import MAX_TOTAL_DIM, SystemLayout, embed_operator, require_dim

__all__ = [
    "RngStream",
    "haar_pure",
    "random_density",
    "random_hermitian",
    "random_mediated_hamiltonian",
    "random_weights",
]

# the stream seed of a sweep that names none (``SweepConfig.seed``, and the CLI's --seed)
DEFAULT_SEED = 7


def require_integer(name: str, value) -> int:
    """``value`` as an int: an int or a numpy integer, never a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_uint64(name: str, value) -> int:
    """``value`` as an int in [0, 2^64), the range of a Philox key word."""
    value = require_integer(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} {value} outside [0, 2^64)")
    return value


class RngStream:
    """One independent, restartable random stream.

    Two streams constructed with the same ``(seed, stream_id)`` yield
    identical draw sequences on every platform.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int):
        self.seed = require_uint64("seed", seed)
        self.stream_id = require_uint64("stream_id", stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, *shape: int) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def complex_normals(self, *shape: int) -> np.ndarray:
        """Entries with independent unit-variance real and imaginary parts."""
        v = self._gen.standard_normal((2,) + shape)
        return v[0] + 1j * v[1]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _stacked(stream, draw, *shape: int) -> np.ndarray:
    """``draw(stream, *shape)``, or its ``(B, *shape)`` stack over a sequence of B streams;
    ``MAX_TOTAL_DIM`` caps the dimension ``shape[0]`` before anything is drawn."""
    require_dim(shape[0], 1, MAX_TOTAL_DIM, "dim")
    if isinstance(stream, RngStream):
        return draw(stream, *shape)
    return np.array([draw(s, *shape) for s in stream])


def haar_pure(dim: int, stream) -> np.ndarray:
    """Haar-uniform unit vector from normalized complex normals; a stack for many streams."""
    z = _stacked(stream, RngStream.complex_normals, dim)
    # np.linalg.norm of each row, bit for bit: the BLAS dots of its real and imaginary parts
    return z / np.sqrt(dot_rows(z.real, z.real) + dot_rows(z.imag, z.imag))[..., None]


def random_density(dim: int, stream) -> np.ndarray:
    """Hilbert-Schmidt random state G G+ / tr(G G+), G square Ginibre; a stack for many streams."""
    g = _stacked(stream, RngStream.complex_normals, dim, dim)
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_hermitian(dim: int, stream) -> np.ndarray:
    """GUE matrix (G + G+)/2 from a square complex Ginibre draw; a stack for many streams."""
    g = _stacked(stream, RngStream.complex_normals, dim, dim)
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def random_weights(k: int, stream) -> np.ndarray:
    """k mixture weights g_i^2 / sum_j g_j^2 from k normals; a stack for many streams."""
    w = _stacked(stream, RngStream.normals, k) ** 2
    return w / w.sum(axis=-1, keepdims=True)


def random_mediated_hamiltonian(d_a: int, d_b: int, d_c: int, stream) -> Hamiltonian:
    """H_AC (x) I_B + I_A (x) H_BC with independent GUE pair couplings.

    There is never a direct A-B term: any entanglement between the ends
    has to flow through the mediator C.  A one-dimensional mediator is
    allowed and degenerates this to purely local dynamics.  Each stream
    draws H_AC, then H_BC; many streams give a ``(B, n, n)`` stack.
    """
    d_a, d_b = require_dim(d_a, name="d_a"), require_dim(d_b, name="d_b")
    d_c = require_dim(d_c, 1, name="d_c")
    layout = SystemLayout((("A", d_a), ("B", d_b), ("C", d_c)))
    h_ac, h_bc = random_hermitian(d_a * d_c, stream), random_hermitian(d_b * d_c, stream)
    return Hamiltonian(layout, embed_operator(layout, ("A", "C"), h_ac)
                       + embed_operator(layout, ("B", "C"), h_bc))
