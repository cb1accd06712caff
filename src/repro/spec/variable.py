"""Variables and signals of the specification model.

The paper distinguishes *variables* (plain storage, the objects that get
mapped to memories during refinement) from the *signals* the refinement
itself introduces (control handshakes, bus lines).  Both are represented
by :class:`Variable` with a :class:`StorageClass` tag.

A variable's *role* marks it as a system input, output or internal
state; roles drive the simulator's stimulus application and the
functional-equivalence check (outputs are the observed trace).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SpecError
from repro.spec.types import DataType

__all__ = ["StorageClass", "Role", "Variable", "variable", "signal"]


class StorageClass(enum.Enum):
    """How a named object stores and propagates values."""

    #: Plain storage; assignments take effect immediately.
    VARIABLE = "variable"
    #: Delta-delayed storage visible across concurrent behaviors.
    SIGNAL = "signal"


class Role(enum.Enum):
    """Observability role of a variable in the system boundary."""

    #: Internal state; may be freely relocated by refinement.
    INTERNAL = "internal"
    #: Environment-driven input; the simulator applies the stimulus to it.
    INPUT = "input"
    #: System output; its write trace defines observable behaviour.
    OUTPUT = "output"


@dataclass
class Variable:
    """A named, typed storage object.

    ``init`` is the value the object holds at time zero; when ``None``
    the type's default is used.  ``doc`` is carried through refinement
    into the printed specification as a trailing comment.
    """

    name: str
    dtype: DataType
    init: object = None
    kind: StorageClass = StorageClass.VARIABLE
    role: Role = Role.INTERNAL
    doc: str = ""

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SpecError(f"invalid variable name {self.name!r}")
        if self.init is not None:
            self.init = self.dtype.coerce(self.init)

    @property
    def is_signal(self) -> bool:
        return self.kind is StorageClass.SIGNAL

    @property
    def initial_value(self):
        """The coerced time-zero value."""
        return self.init if self.init is not None else self.dtype.default_value()

    @property
    def bit_width(self) -> int:
        """Bits moved by one access to this object (drives channel rates)."""
        return self.dtype.bit_width

    def renamed(self, new_name: str) -> "Variable":
        """A copy of this variable under a different name."""
        return Variable(
            name=new_name,
            dtype=self.dtype,
            init=self.init,
            kind=self.kind,
            role=self.role,
            doc=self.doc,
        )

    def copy(self) -> "Variable":
        """An independent copy (variables are mutable containers);
        carries any provenance stamp (:mod:`repro.obs.provenance`)."""
        clone = self.renamed(self.name)
        record = getattr(self, "_provenance", None)
        if record is not None:
            clone._provenance = record
        return clone

    def __str__(self) -> str:
        keyword = "signal" if self.is_signal else "variable"
        rendered = f"{keyword} {self.name} : {self.dtype}"
        if self.init is not None:
            rendered += f" := {self.init}"
        return rendered


def variable(
    name: str,
    dtype: DataType,
    init: object = None,
    role: Role = Role.INTERNAL,
    doc: str = "",
) -> Variable:
    """Construct a plain variable."""
    return Variable(name, dtype, init=init, role=role, doc=doc)


def signal(name: str, dtype: DataType, init: object = None, doc: str = "") -> Variable:
    """Construct a signal (delta-delayed, cross-behavior storage)."""
    return Variable(name, dtype, init=init, kind=StorageClass.SIGNAL, doc=doc)
