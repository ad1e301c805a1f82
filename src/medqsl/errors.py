"""Exception types shared across the package."""

from __future__ import annotations


class MedqslError(Exception):
    """Base class for all package-specific errors."""


class StackCheckError(MedqslError):
    """A failed check of a matrix, or of the one at ``index`` of a stack; ``message`` omits it."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        where = f" (stack index {index[0] if len(index) == 1 else index})" if index else ""
        super().__init__(message + where)
        self.message, self.index = message, index


class NotHermitianError(StackCheckError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NormalizationError(StackCheckError, ValueError):
    """A density matrix's trace is not 1, or a state vector cannot be normalized."""


class NotPSDError(StackCheckError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class BadDimensionError(MedqslError):
    """Dimension argument outside the supported range."""


class DimensionMismatchError(MedqslError):
    """Operand shapes or subsystem dimensions are inconsistent."""


class PositionedError(MedqslError):
    """Error tied to a 1-based (line, col) position in parsed source text.

    ``excerpt`` is the offending source line; ``diagnostic()`` renders it
    with a caret under the position.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None,
                 excerpt: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.excerpt = excerpt

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"line {self.line}, col {self.col}: {self.message}"

    def diagnostic(self) -> str:
        out = str(self)
        if self.excerpt is not None and self.col is not None:
            out += f"\n  {self.excerpt}\n  " + " " * (self.col - 1) + "^"
        return out


class UnknownLabelError(PositionedError):
    """A subsystem label does not appear in the layout."""


class HSpecSyntaxError(PositionedError):
    """Hamiltonian spec text violates the grammar."""


class ArgOutOfRangeError(PositionedError):
    """Operator argument missing, unexpected, or outside the subsystem range."""


class PauliOnQuditError(PositionedError):
    """X, Y, or Z applied to a subsystem whose dimension is not 2."""


class FullOrEmptySetError(MedqslError):
    """A partial trace must keep at least one subsystem and drop at least none short of all."""


class PartitionMismatchError(MedqslError):
    """A bipartition does not split the layout labels as required."""


class LayoutMismatchError(MedqslError):
    """Two objects defined on different system layouts were combined."""


class StationaryStateError(StackCheckError):
    """Both energy moments vanish: the state does not move under this Hamiltonian."""


class PositivityLostError(StackCheckError):
    """An evolved density matrix acquired an eigenvalue below the tolerance floor."""
