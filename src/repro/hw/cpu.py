"""Simulated CPU state.

The CPU is a state container; the fetch/decode/execute loop lives in
:mod:`repro.isa.interp`.  The ISA is a stack machine: the operand stack
models the register file (values in flight are CPU-internal, like
registers crossing a protection-domain switch), while call frames and
locals live in simulated memory and are therefore subject to the active
execution environment's memory view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.hw.clock import COSTS, SimClock
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.mpk import PKRU_ALLOW_ALL


@dataclass
class StackSegment:
    """Bounds of one in-memory call stack (grows upward)."""

    base: int
    size: int

    @property
    def limit(self) -> int:
        return self.base + self.size


@dataclass
class CPU:
    """Architectural state of the single simulated hardware thread."""

    mmu: MMU
    clock: SimClock

    # Execution context (translation + privilege).
    ctx: TranslationContext | None = None
    #: The execution environment most recently installed on *this* core
    #: by ``Backend.switch_to`` — per-CPU state on an SMP machine, used
    #: by the vtx/lwc backends to route syscall filtering.
    current_env: Any = None

    # Stack machine state.
    pc: int = 0
    fp: int = 0
    sp: int = 0
    stack: StackSegment | None = None
    operands: list[int] = field(default_factory=list)

    # Wired by the machine: kernel + runtime callbacks for SYSCALL /
    # RTCALL / LBCALL instructions.
    syscall_handler: Any = None
    rtcall_handler: Any = None
    lbcall_handler: Any = None

    halted: bool = False
    exit_code: int = 0

    # -- operand stack ---------------------------------------------------

    def push(self, value: int) -> None:
        self.operands.append(value)

    def pop(self) -> int:
        if not self.operands:
            raise ConfigError("operand stack underflow (codegen bug)")
        return self.operands.pop()

    def pop2(self) -> tuple[int, int]:
        """Pop ``b`` then ``a`` with one bounds check; returns ``(a, b)``
        (the binary-op operand order)."""
        ops = self.operands
        if len(ops) < 2:
            raise ConfigError("operand stack underflow (codegen bug)")
        b = ops.pop()
        return ops.pop(), b

    def popn(self, count: int) -> list[int]:
        if count == 0:
            return []
        if len(self.operands) < count:
            raise ConfigError("operand stack underflow (codegen bug)")
        values = self.operands[-count:]
        del self.operands[-count:]
        return values

    def peek(self) -> int:
        if not self.operands:
            raise ConfigError("operand stack underflow (codegen bug)")
        return self.operands[-1]

    # -- PKRU ------------------------------------------------------------

    @property
    def pkru(self) -> int:
        if self.ctx is None or self.ctx.pkru is None:
            return PKRU_ALLOW_ALL
        return self.ctx.pkru

    def write_pkru(self, value: int) -> None:
        """WRPKRU: user-writable, serializing (hence its cost)."""
        if self.ctx is None:
            raise ConfigError("WRPKRU with no translation context")
        self.clock.charge(COSTS.WRPKRU)
        self.ctx.pkru = value & 0xFFFFFFFF

    def read_pkru(self) -> int:
        self.clock.charge(COSTS.RDPKRU)
        return self.pkru

    # -- frames ----------------------------------------------------------

    def check_stack(self, new_sp: int) -> None:
        if self.stack is None:
            raise ConfigError("no stack segment installed")
        if new_sp > self.stack.limit or new_sp < self.stack.base:
            raise ConfigError(
                f"stack overflow: sp={new_sp:#x} outside "
                f"[{self.stack.base:#x},{self.stack.limit:#x}]")

    def save_activation(self) -> dict:
        """Snapshot scheduling-relevant state (for goroutine switches)."""
        return {
            "pc": self.pc,
            "fp": self.fp,
            "sp": self.sp,
            "stack": self.stack,
            "operands": list(self.operands),
            "ctx": self.ctx,
        }

    def restore_activation(self, snap: dict) -> None:
        self.pc = snap["pc"]
        self.fp = snap["fp"]
        self.sp = snap["sp"]
        self.stack = snap["stack"]
        self.operands = list(snap["operands"])
        self.ctx = snap["ctx"]
