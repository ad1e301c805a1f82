"""Labeled multipartite density states and the measures used throughout.

Subsystems are ordered and labeled.  A basis index packs subsystem
indices big-endian: the first subsystem is most significant, so
``i = sum_k i_k * prod_{l>k} d_l``.  This matches ``numpy.kron`` with
the first factor on the left.

Entropies and mutual information are in bits (base-2 logarithms).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    FullOrEmptySetError,
    LayoutMismatchError,
    NotPSDError,
    PartitionMismatchError,
    UnknownLabelError,
)
from .linalg import at_index, dot_rows, first_failure, require_hermitian, sqrtm_psd
from .tolerances import CLASSICAL_TOL, ENTROPY_CUTOFF, NEG_EIG_TOL, PSD_FLOOR, TRACE_TOL

__all__ = [
    "SystemLayout",
    "Bipartition",
    "DensityState",
    "maximally_entangled",
    "embed_operator",
    "partial_trace",
    "partial_transpose",
    "negativity",
    "partial_trace_array",
    "partial_transpose_array",
    "negativity_array",
    "uhlmann_fidelity",
    "bures_angle",
    "von_neumann_entropy",
    "mutual_information",
    "purity",
    "is_classically_correlated_on",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
]

# the largest total dimension a layout may have: one dense complex
# matrix of it is 256 MiB (12 qubits)
MAX_TOTAL_DIM = 4096


def _integer_dim(label, dim) -> int:
    """``dim`` as an int: an int or a numpy integer, never a bool, float or string."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise BadDimensionError(f"subsystem {str(label)!r} has dimension {dim!r}: not an integer")
    return int(dim)


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of labeled subsystems with fixed dimensions."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((str(lab), _integer_dim(lab, dim)) for lab, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise BadDimensionError("layout needs at least one subsystem")
        seen = set()
        for lab, dim in subs:
            if not lab:
                raise UnknownLabelError("empty subsystem label")
            if lab in seen:
                raise UnknownLabelError(f"duplicate subsystem label {lab!r}")
            seen.add(lab)
            if dim < 1:
                raise BadDimensionError(f"subsystem {lab!r} has dimension {dim}")
        total = math.prod(dim for _, dim in subs)
        if total > MAX_TOTAL_DIM:
            raise BadDimensionError(f"total dimension {total} exceeds the cap {MAX_TOTAL_DIM}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.subsystems)

    def position(self, label: str) -> int:
        for k, (lab, _) in enumerate(self.subsystems):
            if lab == label:
                return k
        raise UnknownLabelError(f"no subsystem labeled {label!r} in layout {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.position(label)][1]

    def basis_index(self, indices) -> int:
        """Pack per-subsystem indices into a flat basis index, big-endian."""
        indices = tuple(int(i) for i in indices)
        if len(indices) != len(self):
            raise DimensionMismatchError(
                f"{len(indices)} indices for {len(self)} subsystems"
            )
        out = 0
        for i, (_, d) in zip(indices, self.subsystems):
            if not 0 <= i < d:
                raise DimensionMismatchError(f"index {i} out of range for dim {d}")
            out = out * d + i
        return out

    def restricted(self, labels) -> "SystemLayout":
        """Sub-layout of ``labels``, kept in this layout's order."""
        labels = set(labels)
        return SystemLayout(tuple(s for s in self.subsystems if s[0] in labels))


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint nonempty groups of subsystem labels."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self):
        a = tuple(str(x) for x in self.side_a)
        b = tuple(str(x) for x in self.side_b)
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)
        if not a or not b:
            raise PartitionMismatchError("both sides of a bipartition must be nonempty")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise PartitionMismatchError("repeated label within a bipartition side")
        if set(a) & set(b):
            raise PartitionMismatchError(f"sides overlap: {sorted(set(a) & set(b))}")

    @classmethod
    def parse(cls, text: str) -> "Bipartition":
        """Parse ``"A:B"`` or ``"A,B:C"`` into a bipartition."""
        halves = text.split(":")
        if len(halves) != 2:
            raise PartitionMismatchError(f"expected one ':' in bipartition, got {text!r}")
        a, b = (tuple(p.strip() for p in half.split(",") if p.strip()) for half in halves)
        return cls(a, b)

    def validate_covering(self, layout: SystemLayout) -> None:
        """Require the two sides to cover the layout's labels exactly."""
        got = set(self.side_a) | set(self.side_b)
        want = set(layout.labels)
        if got != want:
            raise PartitionMismatchError(
                f"bipartition covers {sorted(got)}, layout has {sorted(want)}"
            )


class DensityState:
    """A density matrix tied to a layout, carrying its vector when pure.

    A state may also be a stack of T states on one layout: a ``(T, n, n)``
    matrix, with a ``(T, n)`` vector when pure.  The measures below take a
    stack and return one value per state, and a float for a single state.

    Validation on construction: Hermitian within ``HERM_TOL``, unit trace
    within ``TRACE_TOL``, eigenvalues above ``eig_floor`` (default
    ``PSD_FLOOR``); a NaN or infinite entry fails.  A stack is validated
    in one pass, and an error names the first failing state by its stack
    index.  A pure state comes from ``from_pure``, which checks its vector
    instead: the projector onto a normalized vector passes all of the
    above by construction.

    Args:
        layout: subsystem structure of the state.
        matrix: square density matrix of size ``layout.dim``, or a stack.
        eig_floor: most negative eigenvalue tolerated by validation.
            Integrators hand in slightly looser floors for stepped states.
    """

    __slots__ = ("layout", "matrix", "pure_vector")

    def __init__(self, layout: SystemLayout, matrix: np.ndarray, *,
                 eig_floor: float = PSD_FLOOR):
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (layout.dim, layout.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match layout dim {layout.dim}"
            )
        require_hermitian(matrix)
        tr = np.trace(matrix, axis1=-2, axis2=-1)
        k = first_failure(abs(tr - 1.0) <= TRACE_TOL)
        if k is not None:
            raise ValueError(f"trace {tr[k]:.12f} is not 1 within {TRACE_TOL:.0e}"
                             + at_index(k))
        wmin = np.linalg.eigvalsh(matrix)[..., 0]
        k = first_failure(wmin >= eig_floor)
        if k is not None:
            raise NotPSDError(f"minimum eigenvalue {wmin[k]:.3e} below {eig_floor:.0e}"
                              + at_index(k))
        matrix.setflags(write=False)
        self.layout = layout
        self.matrix = matrix
        self.pure_vector = None

    @classmethod
    def _trusted(cls, layout: SystemLayout, matrix: np.ndarray,
                 vector: np.ndarray | None = None) -> "DensityState":
        """A state from arrays already checked, read-only, without validating them."""
        s = object.__new__(cls)
        s.layout, s.matrix, s.pure_vector = layout, matrix, vector
        return s

    @classmethod
    def from_pure(cls, layout: SystemLayout, vector) -> "DensityState":
        """The projector onto ``vector`` normalized; a ``(T, n)`` array gives a stack."""
        vector = np.asarray(vector, dtype=complex)
        if vector.ndim != 2 or vector.shape[1] != layout.dim:
            vector = vector.reshape(-1)
        if vector.shape[-1] != layout.dim:
            raise DimensionMismatchError(
                f"pure vector length {vector.shape[-1]} != layout dim {layout.dim}"
            )
        # np.linalg.norm of each vector, bit for bit: the BLAS dots of its
        # real and imaginary parts
        norm = np.sqrt(dot_rows(vector.real, vector.real) + dot_rows(vector.imag, vector.imag))
        k = first_failure(norm != 0)
        if k is not None:
            raise ValueError("zero vector cannot be normalized" + at_index(k))
        k = first_failure(np.isfinite(norm))
        if k is not None:
            bad = np.flatnonzero(~np.isfinite(vector[k]))
            raise ValueError(f"vector has non-finite entries at {bad[:4].tolist()}"
                             + at_index(k))
        vector = vector / norm[..., None]
        matrix = vector[..., :, None] * vector.conj()[..., None, :]
        vector.setflags(write=False)
        matrix.setflags(write=False)
        return cls._trusted(layout, matrix, vector)

    def __iter__(self):
        """The states of a stack, one at a time, as views that are not validated again."""
        if self.matrix.ndim == 2:
            raise TypeError("a single state is not a stack")
        vectors = self.pure_vector if self.is_pure else [None] * len(self.matrix)
        return (DensityState._trusted(self.layout, m, x) for m, x in zip(self.matrix, vectors))

    @property
    def is_pure(self) -> bool:
        return self.pure_vector is not None

    def __repr__(self) -> str:
        kind = "pure" if self.is_pure else "mixed"
        stack = f", stack of {len(self.matrix)}" if self.matrix.ndim == 3 else ""
        return f"DensityState({kind}, labels={self.layout.labels}, dims={self.layout.dims}{stack})"


def _value(s: DensityState, values: np.ndarray) -> float | np.ndarray:
    """One measure's values: a float for a single state, the array for a stack."""
    return float(values) if s.matrix.ndim == 2 else values


def maximally_entangled(layout: SystemLayout) -> DensityState:
    """The state sum_j |jj> / sqrt(d) on a two-subsystem layout of dims (d, d)."""
    if len(layout) != 2 or layout.dims[0] != layout.dims[1]:
        raise DimensionMismatchError(f"layout dims {layout.dims} do not form a d x d pair")
    d = layout.dims[0]
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return DensityState.from_pure(layout, v / math.sqrt(d))


def embed_operator(layout: SystemLayout, labels, op: np.ndarray) -> np.ndarray:
    """Extend an operator acting jointly on ``labels`` by identity elsewhere.

    ``op`` is indexed in the order the labels are given; the result is
    indexed in layout order.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise UnknownLabelError(f"repeated label in {labels}")
    positions = [layout.position(lab) for lab in labels]
    op = np.asarray(op, dtype=complex)
    d_act = int(np.prod([layout.dims[p] for p in positions]))
    if op.shape != (d_act, d_act):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match joint dim {d_act} of {labels}"
        )
    rest = [lab for lab in layout.labels if lab not in labels]
    d_rest = int(np.prod([layout.dim_of(lab) for lab in rest])) if rest else 1
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    order = list(labels) + rest
    if order == list(layout.labels):
        return big
    dims_order = [layout.dim_of(lab) for lab in order]
    n = len(order)
    perm = [order.index(lab) for lab in layout.labels]
    t = big.reshape(dims_order + dims_order)
    t = t.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(layout.dim, layout.dim))


def partial_trace_array(m: np.ndarray, dims: tuple[int, ...], keep_pos) -> np.ndarray:
    """Trace a matrix or a ``(..., n, n)`` stack down to the subsystems at ``keep_pos``.

    ``dims`` is the tuple of subsystem dimensions in layout order, and
    ``keep_pos`` the kept positions, ascending.  Callers check labels.
    """
    n = len(dims)
    keep_pos = list(keep_pos)
    lead = m.shape[:-2]
    t = m.reshape(lead + dims + dims)
    row_sub = list(range(n))
    col_sub = [k + n if k in keep_pos else k for k in range(n)]
    out_sub = keep_pos + [k + n for k in keep_pos]
    out = np.einsum(t, [Ellipsis] + row_sub + col_sub, [Ellipsis] + out_sub)
    d_keep = int(np.prod([dims[k] for k in keep_pos]))
    return out.reshape(lead + (d_keep, d_keep))


def partial_trace(s: DensityState, keep) -> DensityState:
    """Trace out everything except ``keep``, preserving layout order.

    ``keep`` must be a nonempty proper subset of the layout labels.  A
    stack gives the stack of marginals, validated in one pass.
    """
    keep = tuple(keep)
    keep_set = set(keep)
    if len(keep_set) != len(keep):
        raise UnknownLabelError(f"repeated label in {keep}")
    for lab in keep:
        s.layout.position(lab)
    if not keep_set or keep_set == set(s.layout.labels):
        raise FullOrEmptySetError(
            "partial trace must keep a nonempty proper subset of subsystems"
        )
    keep_pos = [k for k, lab in enumerate(s.layout.labels) if lab in keep_set]
    out = partial_trace_array(s.matrix, s.layout.dims, keep_pos)
    return DensityState(s.layout.restricted(keep_set), out)


def partial_transpose_array(m: np.ndarray, dims: tuple[int, ...], b_pos) -> np.ndarray:
    """Transpose the subsystems at ``b_pos`` of a matrix or a ``(..., n, n)`` stack."""
    n = len(dims)
    lead = m.shape[:-2]
    perm = list(range(2 * n))
    for k in b_pos:
        perm[k], perm[k + n] = perm[k + n], perm[k]
    t = m.reshape(lead + dims + dims)
    t = t.transpose(list(range(len(lead))) + [len(lead) + k for k in perm])
    return np.ascontiguousarray(t.reshape(m.shape))


def partial_transpose(s: DensityState, p: Bipartition) -> np.ndarray:
    """Transpose the ``side_b`` subsystems; returns a plain matrix.

    The result is Hermitian but generally not positive, so it is not a
    DensityState.  ``p`` must cover the layout exactly.
    """
    p.validate_covering(s.layout)
    b_pos = [s.layout.position(lab) for lab in p.side_b]
    return partial_transpose_array(s.matrix, s.layout.dims, b_pos)


def negativity_array(m: np.ndarray, dims: tuple[int, ...], b_pos) -> np.ndarray:
    """Negativity of a density matrix or a ``(..., n, n)`` stack, transposing ``b_pos``.

    Every subsystem in ``dims`` belongs to one side of the cut: trace out
    the rest first.  Returns one value per matrix (a 0-d array for one).
    """
    w = np.linalg.eigvalsh(partial_transpose_array(m, dims, b_pos))
    return np.where(w < -NEG_EIG_TOL, -w, 0.0).sum(axis=-1)


def negativity(s: DensityState, p: Bipartition) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose across ``p``.

    Maximal value is (d-1)/2 for the smaller side dimension d.  Callers
    must trace out any subsystem not in the bipartition first.
    """
    p.validate_covering(s.layout)
    b_pos = [s.layout.position(lab) for lab in p.side_b]
    return _value(s, negativity_array(s.matrix, s.layout.dims, b_pos))


def uhlmann_fidelity(s1: DensityState, s2: DensityState) -> float | np.ndarray:
    """Root fidelity tr sqrt(sqrt(r1) r2 sqrt(r1)), in [0, 1].

    Symmetric in its arguments.  When both states carry pure vectors this
    reduces to |<u|v>|, and when one does, to sqrt(<u|rho|u>): sqrtm of the
    rank-one product would be good only to about sqrt(eps).  Either state
    may be a stack: a single state is compared with each state of a
    stack, and two stacks pair state k with state k.
    """
    if s1.layout != s2.layout:
        raise LayoutMismatchError(
            f"states on different layouts: {s1.layout.labels} vs {s2.layout.labels}"
        )
    if s1.is_pure and s2.is_pure:
        z = dot_rows(s1.pure_vector.conj(), s2.pure_vector)
        f = np.hypot(z.real, z.imag)  # abs of each, as a complex scalar takes it
    elif s1.is_pure or s2.is_pure:
        u, rho = (s1.pure_vector, s2.matrix) if s1.is_pure else (s2.pure_vector, s1.matrix)
        f = np.sqrt(np.maximum(dot_rows(u.conj(), (rho @ u[..., None])[..., 0]).real, 0.0))
    else:
        root = sqrtm_psd(s1.matrix)
        inner = root @ s2.matrix @ root
        del root  # a stack of roots need not stay alive through the second one
        f = np.real(np.trace(sqrtm_psd(inner), axis1=-2, axis2=-1))
    f = np.clip(f, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def bures_angle(s1: DensityState, s2: DensityState) -> float | np.ndarray:
    """arccos of the root fidelity; a metric, in [0, pi/2]."""
    f = uhlmann_fidelity(s1, s2)
    if isinstance(f, float):
        return math.acos(f)
    # math.acos per value: numpy's vectorized arccos may differ in the last bit
    return np.fromiter(map(math.acos, f), float, len(f))


def von_neumann_entropy(s: DensityState) -> float | np.ndarray:
    """Entropy -sum(w log2 w) of the spectrum, in bits."""
    w = np.linalg.eigvalsh(s.matrix).reshape(-1, s.layout.dim)
    # the spectrum is ascending, so the entries above the cutoff end each
    # row; rows that keep as many entries are summed together, and each
    # sum runs over the kept entries alone, as it does for one state
    start = (w <= ENTROPY_CUTOFF).sum(axis=1)
    out = np.empty(len(w))
    for j in np.unique(start).tolist():
        rows = start == j
        kept = w[rows, j:]
        out[rows] = -(kept * np.log2(kept)).sum(axis=1)
    return _value(s, out.reshape(s.matrix.shape[:-2]))


def mutual_information(s: DensityState, p: Bipartition) -> float | np.ndarray:
    """S(A) + S(B) - S(AB) across ``p``, which must cover the layout."""
    p.validate_covering(s.layout)
    sa = von_neumann_entropy(partial_trace(s, p.side_a))
    sb = von_neumann_entropy(partial_trace(s, p.side_b))
    return sa + sb - von_neumann_entropy(s)


def purity(s: DensityState) -> float | np.ndarray:
    """tr(rho^2), which is 1 exactly for pure states."""
    flat = s.matrix.reshape(s.matrix.shape[:-2] + (-1,))
    return _value(s, dot_rows(flat.conj(), flat).real)


def is_classically_correlated_on(s: DensityState, label: str) -> bool:
    """Whether ``s`` is block diagonal in some orthonormal basis of ``label``.

    One fixed generic complex probe G on the rest of the system gives
    K_ij = tr(G <i|rho|j>), diagonal with entries p_k tr(G rho_k) in every
    basis where rho = sum_k p_k |k><k| (x) rho_k.  Distinct blocks p_k rho_k
    almost surely get distinct entries, and equal blocks span an eigenspace
    on which rho is block diagonal in any basis, so the orthonormalized
    eigenvectors of K are the one candidate.  The verdict is the largest
    off-diagonal block norm measured in it against ``CLASSICAL_TOL``: a
    state called classical is classical in a basis it exhibits.
    """
    layout = s.layout
    pos = layout.position(label)
    dm = layout.dims[pos]
    if dm == 1:
        return True
    dr = layout.dim // dm
    n = len(layout)
    perm = [pos] + [k for k in range(n) if k != pos]
    t = s.matrix.reshape(layout.dims + layout.dims)
    # blocks[i, :, j, :] = <i|rho|j> on the rest of the system
    blocks = t.transpose(perm + [k + n for k in perm]).reshape(dm, dr, dm, dr)
    # fixed-key counter RNG: the classicality test must be deterministic
    gen = np.random.Generator(np.random.Philox(key=[0xC1A55, 0]))
    probe = gen.standard_normal((dr, dr)) + 1j * gen.standard_normal((dr, dr))
    k_mat = np.einsum("ab,ibja->ij", probe, blocks)
    # inside a degenerate eigenspace eig's vectors need not be orthogonal
    basis = np.linalg.qr(np.linalg.eig(k_mat)[1])[0]
    rotated = np.einsum("ik,iajb,jl->kalb", basis.conj(), blocks, basis)
    norms = np.linalg.norm(rotated, axis=(1, 3))
    return float(norms[~np.eye(dm, dtype=bool)].max()) <= CLASSICAL_TOL


# ---------------------------------------------------------------------------
# state files

def _complex_pairs(arr: np.ndarray):
    return [[float(z.real), float(z.imag)] for z in arr]


def state_to_dict(s: DensityState) -> dict:
    """JSON-ready dict; pure states serialize their vector, mixed the matrix."""
    d: dict = {"layout": [[lab, dim] for lab, dim in s.layout.subsystems]}
    if s.is_pure:
        d["pure"] = _complex_pairs(s.pure_vector)
    else:
        d["density"] = [_complex_pairs(row) for row in s.matrix]
    return d


def state_from_dict(d: dict) -> DensityState:
    try:
        layout = SystemLayout(tuple((lab, dim) for lab, dim in d["layout"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"bad layout entry: {exc}") from exc
    if ("pure" in d) == ("density" in d):
        raise DimensionMismatchError("state dict needs exactly one of 'pure', 'density'")
    key = "pure" if "pure" in d else "density"
    try:
        rows = [d[key]] if key == "pure" else d[key]
        entries = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(
            f"bad {key!r} field: expected [re, im] number pairs ({exc})") from None
    if key == "pure":
        return DensityState.from_pure(layout, entries[0])
    return DensityState(layout, entries)


def save_state(s: DensityState, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path) -> DensityState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))
