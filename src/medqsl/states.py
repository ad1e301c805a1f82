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
from .linalg import require_hermitian, sqrtm_psd
from .tolerances import (
    CLASSICAL_TOL, ENTROPY_CUTOFF, MARGINAL_DEGENERACY_TOL, NEG_EIG_TOL,
    PROBE_DEGENERACY_TOL, PROJECTOR_TOL, PSD_FLOOR, TRACE_TOL,
)

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


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of labeled subsystems with fixed dimensions."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((str(lab), int(dim)) for lab, dim in self.subsystems)
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
    """A density matrix tied to a layout, optionally carrying its pure vector.

    Validation on construction: Hermitian within ``HERM_TOL``, unit trace
    within ``TRACE_TOL``, eigenvalues above ``eig_floor`` (default
    ``PSD_FLOOR``); a NaN or infinite entry fails.  When ``pure_vector``
    is given the matrix must equal the projector onto it, and positivity
    is then automatic.

    Args:
        layout: subsystem structure of the state.
        matrix: square density matrix of size ``layout.dim``.
        pure_vector: optional unit vector with ``matrix == outer(v, v*)``.
        eig_floor: most negative eigenvalue tolerated by validation.
            Integrators hand in slightly looser floors for stepped states.
    """

    __slots__ = ("layout", "matrix", "pure_vector")

    def __init__(self, layout: SystemLayout, matrix: np.ndarray,
                 pure_vector: np.ndarray | None = None, *,
                 eig_floor: float = PSD_FLOOR):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (layout.dim, layout.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match layout dim {layout.dim}"
            )
        require_hermitian(matrix)
        tr = matrix.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {tr:.12f} is not 1 within {TRACE_TOL:.0e}")
        if pure_vector is not None:
            pure_vector = np.array(pure_vector, dtype=complex).reshape(-1)
            if pure_vector.shape != (layout.dim,):
                raise DimensionMismatchError(
                    f"pure vector length {pure_vector.shape[0]} != layout dim {layout.dim}"
                )
            if not abs(np.vdot(pure_vector, pure_vector) - 1.0) <= TRACE_TOL:
                raise ValueError("pure vector is not normalized")
            if not np.abs(matrix - np.outer(pure_vector, pure_vector.conj())).max() \
                    <= PROJECTOR_TOL:
                raise ValueError("matrix is not the projector onto pure_vector")
            pure_vector.setflags(write=False)
        else:
            wmin = np.linalg.eigvalsh(matrix)[0]
            if not wmin >= eig_floor:
                raise NotPSDError(f"minimum eigenvalue {wmin:.3e} below {eig_floor:.0e}")
        matrix.setflags(write=False)
        self.layout = layout
        self.matrix = matrix
        self.pure_vector = pure_vector

    @classmethod
    def from_pure(cls, layout: SystemLayout, vector) -> "DensityState":
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vector)
        if norm == 0:
            raise ValueError("zero vector cannot be normalized")
        if not math.isfinite(norm):
            bad = np.flatnonzero(~np.isfinite(vector))
            raise ValueError(f"vector has non-finite entries at {bad[:4].tolist()}")
        vector = vector / norm
        return cls(layout, np.outer(vector, vector.conj()), vector)

    @property
    def is_pure(self) -> bool:
        return self.pure_vector is not None

    def __repr__(self) -> str:
        kind = "pure" if self.is_pure else "mixed"
        return f"DensityState({kind}, labels={self.layout.labels}, dims={self.layout.dims})"


def maximally_entangled(d: int, layout: SystemLayout) -> DensityState:
    """The state sum_j |jj> / sqrt(d) on a two-subsystem layout of equal dims."""
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    if len(layout) != 2 or layout.dims != (d, d):
        raise DimensionMismatchError(
            f"layout dims {layout.dims} do not form a {d}x{d} pair"
        )
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

    ``keep`` must be a nonempty proper subset of the layout labels.
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


def negativity(s: DensityState, p: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose across ``p``.

    Maximal value is (d-1)/2 for the smaller side dimension d.  Callers
    must trace out any subsystem not in the bipartition first.
    """
    p.validate_covering(s.layout)
    b_pos = [s.layout.position(lab) for lab in p.side_b]
    return float(negativity_array(s.matrix, s.layout.dims, b_pos))


def uhlmann_fidelity(s1: DensityState, s2: DensityState) -> float:
    """Root fidelity tr sqrt(sqrt(r1) r2 sqrt(r1)), in [0, 1].

    Symmetric in its arguments.  When both states carry pure vectors this
    reduces to |<u|v>|.
    """
    if s1.layout != s2.layout:
        raise LayoutMismatchError(
            f"states on different layouts: {s1.layout.labels} vs {s2.layout.labels}"
        )
    if s1.is_pure and s2.is_pure:
        f = abs(np.vdot(s1.pure_vector, s2.pure_vector))
    else:
        root = sqrtm_psd(s1.matrix)
        inner = root @ s2.matrix @ root
        f = float(np.real(np.trace(sqrtm_psd(inner))))
    return float(min(max(f, 0.0), 1.0))


def bures_angle(s1: DensityState, s2: DensityState) -> float:
    """arccos of the root fidelity; a metric, in [0, pi/2]."""
    return float(math.acos(uhlmann_fidelity(s1, s2)))


def von_neumann_entropy(s: DensityState) -> float:
    """Entropy -sum(w log2 w) of the spectrum, in bits."""
    w = np.linalg.eigvalsh(s.matrix)
    w = w[w > ENTROPY_CUTOFF]
    return float(-(w * np.log2(w)).sum())


def mutual_information(s: DensityState, p: Bipartition) -> float:
    """S(A) + S(B) - S(AB) across ``p``, which must cover the layout."""
    p.validate_covering(s.layout)
    sa = von_neumann_entropy(partial_trace(s, p.side_a))
    sb = von_neumann_entropy(partial_trace(s, p.side_b))
    return sa + sb - von_neumann_entropy(s)


def purity(s: DensityState) -> float:
    """tr(rho^2), which is 1 exactly for pure states."""
    return float(np.vdot(s.matrix, s.matrix).real)


def _mediator_blocks(s: DensityState, label: str) -> tuple[np.ndarray, int, int]:
    """Reshape the state into mediator-indexed blocks of operators on the rest."""
    layout = s.layout
    pos = layout.position(label)
    dims = layout.dims
    n = len(dims)
    dm = dims[pos]
    dr = layout.dim // dm
    t = s.matrix.reshape(dims + dims)
    perm = [k for k in range(n) if k != pos] + [pos]
    t = t.transpose(perm + [k + n for k in perm]).reshape(dr, dm, dr, dm)
    # blocks[i, j] = <i|_m rho |j>_m
    return np.ascontiguousarray(t.transpose(1, 3, 0, 2)), dm, dr


def _probe_operator(dr: int, round_idx: int) -> np.ndarray:
    # fixed-key counter RNG: the classicality test must be deterministic
    gen = np.random.Generator(np.random.Philox(key=[0xC1A55, round_idx]))
    return gen.standard_normal((dr, dr)) + 1j * gen.standard_normal((dr, dr))


def _cluster(values: np.ndarray, indices: list[int], tol: float) -> list[list[int]]:
    """Split ``indices`` into runs whose ``values`` differ by more than ``tol``."""
    order = sorted(indices, key=lambda k: values[k])
    groups: list[list[int]] = [[order[0]]]
    for k in order[1:]:
        if values[k] - values[groups[-1][-1]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def is_classically_correlated_on(s: DensityState, label: str,
                                 tol: float = CLASSICAL_TOL) -> bool:
    """Whether ``s`` is block diagonal in some orthonormal basis of ``label``.

    Candidates come from the eigenbasis of the mediator marginal.  Inside a
    degenerate eigenspace that basis is arbitrary, so it is refined by
    jointly diagonalizing probe contractions of the cross blocks; the final
    verdict is always the measured off-diagonal block norm against ``tol``,
    never the refinement itself.
    """
    blocks, dm, dr = _mediator_blocks(s, label)
    if dm == 1:
        return True
    rho_m = np.einsum("ijkk->ij", blocks)
    w, basis = np.linalg.eigh(rho_m)
    clusters = _cluster(w, list(range(dm)), MARGINAL_DEGENERACY_TOL)
    for round_idx in range(4):
        if all(len(c) == 1 for c in clusters):
            break
        rotated = np.einsum("ik,jl,ijab->klab", basis.conj(), basis, blocks)
        probe = _probe_operator(dr, round_idx)
        k_mat = np.einsum("ab,klab->kl", probe.conj(), rotated)
        k_herm = 0.5 * (k_mat + k_mat.conj().T)
        next_clusters: list[list[int]] = []
        for c in clusters:
            if len(c) == 1:
                next_clusters.append(c)
                continue
            sub = k_herm[np.ix_(c, c)]
            w2, u = np.linalg.eigh(sub)
            basis[:, c] = basis[:, c] @ u
            vals = np.full(dm, np.nan)
            vals[c] = w2
            next_clusters.extend(_cluster(vals, c, PROBE_DEGENERACY_TOL))
        clusters = next_clusters
    rotated = np.einsum("ik,jl,ijab->klab", basis.conj(), basis, blocks)
    return max(float(np.linalg.norm(rotated[i, j]))
               for i in range(dm) for j in range(dm) if i != j) <= tol


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
    if "pure" in d:
        v = np.array([complex(re, im) for re, im in d["pure"]])
        return DensityState.from_pure(layout, v)
    m = np.array([[complex(re, im) for re, im in row] for row in d["density"]])
    # validation names a non-finite entry: no numpy warning for inf - inf first
    with np.errstate(invalid="ignore"):
        return DensityState(layout, m)


def save_state(s: DensityState, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_state(path) -> DensityState:
    with open(path) as fh:
        return state_from_dict(json.load(fh))
