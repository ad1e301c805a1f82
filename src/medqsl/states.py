"""Labeled multipartite density states and the measures used throughout.

Subsystems are ordered and labeled.  A basis index packs subsystem
indices big-endian: the first subsystem is most significant, so
``i = sum_k i_k * prod_{l>k} d_l``.  This matches ``numpy.kron`` with
the first factor on the left.

Entropies and mutual information are in bits (base-2 logarithms); an
entropy is one masked sum over a spectrum's last axis, for one state and a
stack alike.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    FullOrEmptySetError,
    LayoutMismatchError,
    NormalizationError,
    PartitionMismatchError,
    StackCheckError,
    UnknownLabelError,
)
from .linalg import dot_rows, first_failure, require_hermitian, require_psd
from .tolerances import (
    CLASSICAL_TOL, ENTROPY_CUTOFF, NEG_EIG_TOL, PSD_FLOOR, SUPPORT_CUT, TRACE_TOL,
)

__all__ = [
    "SystemLayout",
    "Bipartition",
    "DensityState",
    "maximally_entangled",
    "embed_operator",
    "partial_trace",
    "negativity",
    "partial_trace_array",
    "partial_transpose_array",
    "negativity_array",
    "negativity_rate",
    "uhlmann_fidelity",
    "bures_angle",
    "von_neumann_entropy",
    "mutual_information",
    "purity",
    "is_classically_correlated_on",
    "state_to_dict",
    "state_from_dict",
    "json_text",
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
    """Ordered collection of labeled subsystems with fixed dimensions.

    ``labels``, ``dims``, ``dim`` and the label positions are resolved once
    per layout, on first read; equality, hashing and pickles see
    ``subsystems`` alone.
    """

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

    def __getstate__(self):
        return {"subsystems": self.subsystems}

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.subsystems)

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @functools.cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {lab: k for k, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.subsystems)

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise UnknownLabelError(
                f"no subsystem labeled {label!r} in layout {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.position(label)][1]

    def positions(self, labels) -> tuple[int, ...]:
        """The position of each of ``labels``, in the order given; none may repeat."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise UnknownLabelError(f"repeated label in {labels}")
        return tuple(self.position(lab) for lab in labels)

    def axes_first(self, labels) -> tuple[int, ...]:
        """Every axis position: those of ``labels`` first, as given, then the rest in order."""
        first = self.positions(labels)
        return first + tuple(k for k in range(len(self)) if k not in first)

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
        return SystemLayout(tuple(self.subsystems[k] for k in sorted(self.positions(labels))))

    def require(self, other: "SystemLayout", name: str, own: str = "state") -> None:
        """Refuse ``name``'s layout ``other`` unless it is this one, ``own``'s, with
        LayoutMismatchError naming both by their labels and dims."""
        if other != self:
            raise LayoutMismatchError(f"{name} on {other.subsystems}, {own} on {self.subsystems}")


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
    in one pass, and the error is the earliest failing state's first
    failing check, naming its stack index (kept as the error's ``index``).
    A pure state comes from ``from_pure``, which checks its vector
    instead: the projector onto a normalized vector passes all of the
    above by construction.  So does the Gram product X X+ of a unit-norm
    column factor, which ``from_factor`` builds after checking X.  Only
    this constructor keeps a spectrum: the ascending one it checked, as
    ``spectrum`` (read-only, ``(T, n)`` for a stack); it is None for
    ``from_pure``, ``from_factor`` and states of a stack.

    Args:
        layout: subsystem structure of the state.
        matrix: square density matrix of size ``layout.dim``, or a stack.
        eig_floor: most negative eigenvalue tolerated by validation.
            Integrators hand in slightly looser floors for stepped states.
    """

    __slots__ = ("layout", "matrix", "pure_vector", "spectrum")

    def __init__(self, layout: SystemLayout, matrix: np.ndarray, *,
                 eig_floor: float = PSD_FLOOR):
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (layout.dim, layout.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match layout dim {layout.dim}"
            )
        try:
            require_hermitian(matrix)
            tr = np.trace(matrix, axis1=-2, axis2=-1)
            k = first_failure(abs(tr - 1.0) <= TRACE_TOL)
            if k is not None:
                raise NormalizationError(f"trace {tr[k]:.12f} is not 1 within {TRACE_TOL:.0e}", k)
            w = require_psd(np.linalg.eigvalsh(matrix), eig_floor)
        except StackCheckError as e:
            # an earlier state may fail a later check: it raises its own error
            if e.index:
                DensityState(layout, matrix[:e.index[0]], eig_floor=eig_floor)
            raise
        matrix.setflags(write=False)
        w.setflags(write=False)
        self.layout, self.matrix, self.pure_vector, self.spectrum = layout, matrix, None, w

    @classmethod
    def _trusted(cls, layout: SystemLayout, matrix: np.ndarray,
                 vector: np.ndarray | None = None) -> "DensityState":
        """A state from checked, read-only arrays, not validated again."""
        s = object.__new__(cls)
        s.layout, s.matrix, s.pure_vector, s.spectrum = layout, matrix, vector, None
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
        k = first_failure((norm != 0) & np.isfinite(norm))
        if k is not None:
            bad = np.flatnonzero(~np.isfinite(vector[k]))
            raise NormalizationError("zero vector cannot be normalized" if norm[k] == 0
                                     else f"vector has non-finite entries at {bad[:4].tolist()}", k)
        vector = vector / norm[..., None]
        matrix = vector[..., :, None] * vector.conj()[..., None, :]
        vector.setflags(write=False)
        matrix.setflags(write=False)
        return cls._trusted(layout, matrix, vector)

    @classmethod
    def from_factor(cls, layout: SystemLayout, x) -> "DensityState":
        """The Gram product X X+ of a column factor ``x``; a ``(T, n, k)`` array gives a stack.

        The factor is checked, not the matrix it builds: finite entries and
        tr X X+ = ||X||_F^2 within ``TRACE_TOL`` of 1, the earliest failing
        factor named by its stack index.  X X+ is Hermitian and PSD by
        construction, and the computed product misses either by roundoff of
        some k eps ||X||^2, about 1e-15, far inside ``HERM_TOL`` and
        ``PSD_FLOOR``; so no eigensolve is made, and ``spectrum`` is None.
        """
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (2, 3) or x.shape[-2] != layout.dim:
            raise DimensionMismatchError(
                f"factor shape {x.shape} does not match layout dim {layout.dim}"
            )
        flat = x.reshape(x.shape[:-2] + (-1,))
        with np.errstate(over="ignore", invalid="ignore"):
            tr = dot_rows(flat.real, flat.real) + dot_rows(flat.imag, flat.imag)
        # a non-finite entry makes a non-finite trace, so one scan finds both
        k = first_failure(abs(tr - 1.0) <= TRACE_TOL)
        if k is not None:
            bad = np.argwhere(~np.isfinite(x[k])).tolist()
            raise NormalizationError(f"factor has {len(bad)} non-finite entries, at {bad[:4]}"
                                     if bad else f"trace {tr[k]:.12f} is not 1 within "
                                     f"{TRACE_TOL:.0e}", k)
        matrix = x @ x.conj().swapaxes(-1, -2)
        matrix.setflags(write=False)
        return cls._trusted(layout, matrix)

    @classmethod
    def basis(cls, layout: SystemLayout, indices=None) -> "DensityState":
        """The product basis state |i_1 ... i_k> of ``layout``, |0...0> by default."""
        vector = np.zeros(layout.dim, dtype=complex)
        vector[layout.basis_index((0,) * len(layout) if indices is None else indices)] = 1.0
        return cls.from_pure(layout, vector)

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


def _value(values: np.ndarray) -> float | np.ndarray:
    """One measure's values: a float when they are 0-d, one value, else the array."""
    return float(values) if np.ndim(values) == 0 else values


def _single(**states: DensityState | None) -> None:
    """Refuse a stack where one state is meant: DimensionMismatchError names its argument."""
    for name, s in states.items():
        if s is not None and s.matrix.ndim != 2:
            raise DimensionMismatchError(f"{name} is a stack of {len(s.matrix)} states, not one")


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
    indexed in layout order.  A ``(B, m, m)`` stack of operators gives the
    ``(B, n, n)`` stack of their extensions, each the one its matrix gives.
    One broadcast product lays op, its axes in layout order (a view, skipped
    when the labels are), against the identity on the other labels, each
    reshaped onto the layout's axes: every entry is the one product
    op_ij e_kl of op (x) I, zero signs included, and nothing is permuted.
    """
    labels = tuple(labels)
    pos = layout.positions(labels)
    op = np.asarray(op, dtype=complex)
    on, off = [1] * len(layout), list(layout.dims)
    for k in pos:
        on[k], off[k] = off[k], 1
    d_act = math.prod(on)
    if op.ndim not in (2, 3) or op.shape[-2:] != (d_act, d_act):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match joint dim {d_act} of {labels}")
    lead, b = op.shape[:-2], op.ndim - 2
    if list(pos) != sorted(pos):
        order = sorted(range(len(pos)), key=pos.__getitem__)
        op = op.reshape(lead + 2 * tuple(on[k] for k in pos)).transpose(
            *range(b), *(b + k for k in order), *(b + len(pos) + k for k in order))
    eye = np.eye(layout.dim // d_act, dtype=complex).reshape(off + off)
    out = np.multiply(op.reshape(lead + (*on, *on)), eye, order="C")
    return out.reshape(lead + (layout.dim, layout.dim))


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
    kept = sorted(s.layout.positions(keep))
    if not 0 < len(kept) < len(s.layout):
        raise FullOrEmptySetError("partial trace must keep a nonempty proper subset of subsystems")
    out = partial_trace_array(s.matrix, s.layout.dims, kept)
    return DensityState(s.layout.restricted(keep), out)


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


def negativity_array(m: np.ndarray, dims: tuple[int, ...], b_pos) -> np.ndarray:
    """Negativity of a density matrix or a ``(..., n, n)`` stack, transposing ``b_pos``.

    Every subsystem in ``dims`` belongs to one side of the cut: trace out
    the rest first.  Returns one value per matrix (a 0-d array for one).
    """
    w = np.linalg.eigvalsh(partial_transpose_array(m, dims, b_pos))
    return np.where(w < -NEG_EIG_TOL, -w, 0.0).sum(axis=-1)


def negativity_rate(sigma: np.ndarray, dsigma: np.ndarray, dims: tuple[int, ...],
                    b_pos) -> np.ndarray:
    """dN/dt at t = 0+ of N(sigma + t dsigma), transposing ``b_pos``; a stack gives each row's.

    With sigma^G = V diag(w) V+, first-order degenerate perturbation theory (Kato,
    *Perturbation Theory for Linear Operators*, ch. II) gives

        dN/dt = -sum_{w < -tol} <v|dsigma^G|v> - sum_{mu < 0} mu,

    tol = ``NEG_EIG_TOL`` and mu the eigenvalues of dsigma^G on the kernel |w| <= tol: V+
    dsigma^G V with its other rows and columns masked to zero, in one stacked ``eigvalsh``.
    """
    w, v = np.linalg.eigh(partial_transpose_array(sigma, dims, b_pos))
    m = v.conj().swapaxes(-1, -2) @ partial_transpose_array(dsigma, dims, b_pos) @ v
    kernel = np.abs(w) <= NEG_EIG_TOL
    mu = np.linalg.eigvalsh(m * (kernel[..., :, None] & kernel[..., None, :]))
    moving = np.where(w < -NEG_EIG_TOL, np.diagonal(m, axis1=-2, axis2=-1).real, 0.0)
    return -moving.sum(axis=-1) - np.where(mu < 0, mu, 0.0).sum(axis=-1)


def negativity(s: DensityState, p: Bipartition) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose across ``p``.

    Maximal value is (d-1)/2 for the smaller side dimension d.  Callers
    must trace out any subsystem not in the bipartition first.
    """
    p.validate_covering(s.layout)
    return _value(negativity_array(s.matrix, s.layout.dims, s.layout.positions(p.side_b)))


def uhlmann_fidelity(s1: DensityState, s2: DensityState) -> float | np.ndarray:
    """Root fidelity tr sqrt(sqrt(r1) r2 sqrt(r1)), in [0, 1].

    Symmetric in its arguments.  When both states carry pure vectors this
    reduces to |<u|v>|, and when one does, to sqrt(<u|rho|u>): sqrtm of the
    rank-one product would be good only to about sqrt(eps).  Either state
    may be a stack: a single state is compared with each state of a
    stack, and two stacks pair state k with state k.  Two mixed states
    give sum sqrt(w) over the eigenvalues w of F+ r2 F, F = V_r sqrt(L_r)
    the factor of r1 = F F+ on its support (eigenvalues above
    ``SUPPORT_CUT``): they are the nonzero eigenvalues of the product, and
    r1's null space, whose roundoff would add some sqrt(eps) each, is
    left out.  Only ``s1`` is factored: pass a single state first.
    """
    s1.layout.require(s2.layout, "second state", "first state")
    if s1.is_pure and s2.is_pure:
        z = dot_rows(s1.pure_vector.conj(), s2.pure_vector)
        f = np.hypot(z.real, z.imag)  # abs of each, as a complex scalar takes it
    elif s1.is_pure or s2.is_pure:
        u, rho = (s1.pure_vector, s2.matrix) if s1.is_pure else (s2.pure_vector, s1.matrix)
        f = np.sqrt(np.maximum(dot_rows(u.conj(), (rho @ u[..., None])[..., 0]).real, 0.0))
    else:
        w, v = np.linalg.eigh(s1.matrix)
        factor = v * np.sqrt(np.clip(require_psd(w), 0.0, None))[..., None, :]
        null = (w <= SUPPORT_CUT).sum(axis=-1)
        rho = s2.matrix
        # the product's spectrum on the support first, zeros after it; states of one
        # rank share a support size, so each rank is one stacked eigensolve
        prod = np.zeros(np.broadcast_shapes(w.shape[:-1], rho.shape[:-2]) + w.shape[-1:])
        # each rank once, not by np.unique: numpy 2.4 imports numpy.ma there
        for j in sorted(set(null.ravel().tolist())):
            rows = null == j
            f_r = factor[rows][..., j:]
            sub = rho[rows] if w.ndim == 2 and rho.ndim == 3 else rho  # two stacks: pairs
            prod[rows, ..., :f_r.shape[-1]] = np.linalg.eigvalsh(
                f_r.conj().swapaxes(-1, -2) @ sub @ f_r)
        f = np.sqrt(np.maximum(require_psd(prod), 0.0)).sum(axis=-1)
    return _value(np.clip(f, 0.0, 1.0))


def _acos(f: float | np.ndarray) -> float | np.ndarray:
    """math.acos of each root fidelity: numpy's arccos may differ in the last bit.

    Near F = 1 the angle is sqrt(2 (1 - F)), so a roundoff eps in F reads
    as an angle of sqrt(2 eps): about 2e-8 at eps = 2.2e-16, and up to a few
    1e-7 for a mixed root fidelity, whose roundoff is some 1e-14.
    """
    if isinstance(f, float):
        return math.acos(f)
    return np.fromiter(map(math.acos, f), float, len(f))


def bures_angle(s1: DensityState, s2: DensityState) -> float | np.ndarray:
    """arccos of the root fidelity; a metric, in [0, pi/2]."""
    return _acos(uhlmann_fidelity(s1, s2))


def von_neumann_entropy(s: DensityState) -> float | np.ndarray:
    """Entropy -sum(w log2 w) of the spectrum, in bits; entries at or below
    ``ENTROPY_CUTOFF`` add 0, for one state and a stack alike."""
    w = np.linalg.eigvalsh(s.matrix) if s.spectrum is None else s.spectrum
    w = np.where(w > ENTROPY_CUTOFF, w, 1.0)  # 1 log2 1 = 0
    return _value(-(w * np.log2(w)).sum(axis=-1))


def mutual_information(s: DensityState, p: Bipartition) -> float | np.ndarray:
    """S(A) + S(B) - S(AB) across ``p``, which must cover the layout."""
    p.validate_covering(s.layout)
    sa = von_neumann_entropy(partial_trace(s, p.side_a))
    sb = von_neumann_entropy(partial_trace(s, p.side_b))
    return sa + sb - von_neumann_entropy(s)


def purity(s: DensityState) -> float | np.ndarray:
    """tr(rho^2), which is 1 exactly for pure states."""
    flat = s.matrix.reshape(s.matrix.shape[:-2] + (-1,))
    return _value(dot_rows(flat.conj(), flat).real)


def is_classically_correlated_on(s: DensityState, label: str) -> bool:
    """Whether ``s``, one state, is block diagonal in some orthonormal basis of ``label``.

    One fixed generic complex probe G on the rest of the system gives
    K_ij = tr(G <i|rho|j>), diagonal with entries p_k tr(G rho_k) in every
    basis where rho = sum_k p_k |k><k| (x) rho_k.  Distinct blocks p_k rho_k
    almost surely get distinct entries, and equal blocks span an eigenspace
    on which rho is block diagonal in any basis, so the orthonormalized
    eigenvectors of K are the one candidate.  The verdict is the largest
    off-diagonal block norm measured in it against ``CLASSICAL_TOL``: a
    state called classical is classical in a basis it exhibits.
    """
    _single(s=s)
    layout = s.layout
    perm = layout.axes_first((label,))
    dm = layout.dims[perm[0]]
    if dm == 1:
        return True
    dr = layout.dim // dm
    t = s.matrix.reshape(layout.dims + layout.dims)
    # blocks[i, :, j, :] = <i|rho|j> on the rest of the system
    blocks = t.transpose(perm + tuple(k + len(perm) for k in perm)).reshape(dm, dr, dm, dr)
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


def json_text(doc) -> str:
    """``doc`` as every JSON document here is written: the text of
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a final newline.

    json's encoder runs in pure Python whenever it indents.  Here dicts
    and lists are walked in Python too, but each list of floats is joined
    from ``float.__repr__`` in one ``str.join``.
    """
    return _json_value(doc, "\n") + "\n"


# json's spelling of the floats whose repr is not a JSON number
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(value, newline: str) -> str:
    """``value`` as ``json_text`` writes it, its inner lines led by ``newline``'s indent."""
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_WORDS.get(text, text)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = "," + inner
        if set(map(type, value)) == {float}:
            # no finite float's repr has an "n": nan and inf go item by item
            text = sep.join(map(float.__repr__, value))
            if "n" not in text:
                return "[" + inner + text + newline + "]"
        return "[" + inner + sep.join([_json_value(x, inner) for x in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            key = key if isinstance(key, str) else _json_value(key, inner)
            items.append(_json_value(key, inner) + ": " + _json_value(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_state(s: DensityState, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(state_to_dict(s)))


def load_state(path) -> DensityState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))
