"""Micro-operation model for the detailed core simulator.

The simulator is trace-driven: workloads supply a stream of
:class:`MicroOp` records carrying everything the timing model needs --
operation class, register dependencies, memory address, and the
branch's actual outcome (so the predictor can be graded against it).
Architectural *values* are never computed; only timing is modelled.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["OpClass", "MicroOp", "NUM_ARCH_REGS"]

#: Size of the architectural register file visible to traces. Sixteen
#: integer-ish registers is enough to express realistic dependency
#: chains; the renamer removes false dependencies anyway.
NUM_ARCH_REGS = 16


class OpClass(enum.Enum):
    """Execution classes, each with its own latency and port binding."""

    ALU = "alu"
    MUL = "mul"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"


class MicroOp:
    """One trace record: an immutable value.

    Parameters
    ----------
    opclass:
        Execution class.
    pc:
        Instruction address (drives the I-cache, iTLB and predictor).
    dest:
        Destination architectural register, or None.
    srcs:
        Source architectural registers (dependencies).
    address:
        Effective address for LOAD/STORE.
    taken / target:
        Actual branch outcome; ``target`` is the address control flow
        continues at (used only to grade the BTB).

    A trace builds one record per dynamic memory uop, so this is a
    ``__slots__`` class rather than a frozen dataclass, which cost about
    three times as much to construct. It keeps the dataclass's value
    semantics: fields in this order with these defaults, the same
    checks, equality and hash over the field tuple, the same ``repr``,
    and assignment or deletion raises :class:`AttributeError`.
    """

    __slots__ = ("opclass", "pc", "dest", "srcs", "address", "taken", "target")
    __match_args__ = __slots__

    opclass: OpClass
    pc: int
    dest: Optional[int]
    srcs: tuple[int, ...]
    address: Optional[int]
    taken: bool
    target: Optional[int]

    def __init__(
        self,
        opclass: OpClass,
        pc: int,
        dest: Optional[int] = None,
        srcs: tuple[int, ...] = (),
        address: Optional[int] = None,
        taken: bool = False,
        target: Optional[int] = None,
    ) -> None:
        if pc < 0:
            raise ConfigurationError("pc must be non-negative")
        for reg in srcs:
            if not 0 <= reg < NUM_ARCH_REGS:
                raise ConfigurationError(f"source register {reg} out of range")
        if dest is not None and not 0 <= dest < NUM_ARCH_REGS:
            raise ConfigurationError(f"dest register {dest} out of range")
        if address is None and (opclass is _LOAD or opclass is _STORE):
            raise ConfigurationError(f"{opclass.value} requires an address")
        if target is None and opclass is _BRANCH:
            raise ConfigurationError("branch requires a target")
        # The slots' own setters: ``__setattr__`` refuses every write.
        _set_opclass(self, opclass)
        _set_pc(self, pc)
        _set_dest(self, dest)
        _set_srcs(self, srcs)
        _set_address(self, address)
        _set_taken(self, taken)
        _set_target(self, target)

    def _fields(self) -> tuple:
        return (self.opclass, self.pc, self.dest, self.srcs, self.address,
                self.taken, self.target)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MicroOp) and other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(opclass={self.opclass!r}, "
            f"pc={self.pc!r}, dest={self.dest!r}, srcs={self.srcs!r}, "
            f"address={self.address!r}, taken={self.taken!r}, "
            f"target={self.target!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())


_LOAD, _STORE, _BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
(
    _set_opclass, _set_pc, _set_dest, _set_srcs, _set_address, _set_taken,
    _set_target,
) = (getattr(MicroOp, name).__set__ for name in MicroOp.__slots__)
