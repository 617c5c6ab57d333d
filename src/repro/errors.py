"""Exception hierarchy for the Enclosure/LitterBox reproduction.

Every error raised by the simulated hardware, the simulated OS, the
LitterBox backend, or the language frontends derives from
:class:`SimError` so applications can catch simulation failures
separately from programming errors in the host Python code.
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for all errors raised inside the simulation."""


class ConfigError(SimError):
    """An invalid configuration was passed to a simulated component."""


def require(*rules: tuple[str, object, bool, str]) -> None:
    """Reject out-of-range settings at a component's boundary: raise a
    :class:`ConfigError` naming the first ``(name, value, ok, rule)``
    whose ``ok`` is false, as "<name> must be <rule>, got <value>"."""
    for name, value, ok, rule in rules:
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value}")


class Fault(SimError):
    """A hardware-detected access violation.

    In the paper, a fault "stops the execution of the closure and aborts
    the program".  That abort is the default ``fault_policy``; under the
    ``kill-goroutine`` / ``quarantine`` policies the scheduler contains
    the fault at the trust boundary instead (kills the offending
    goroutine, unwinds to the outermost Prolog frame) and the program
    keeps running.

    Attributes:
        kind: one of ``read``, ``write``, ``exec``, ``pkey``,
            ``non-present``, ``syscall``, ``call-site``, ``escalation``,
            ``denied-entry``, ``quota``.
        addr: the faulting virtual address, if the fault is memory-related.
        detail: human-readable root cause.
        env_id / env_name: the execution environment the fault is
            attributed to (filled at the raise site where known, else
            stamped by the scheduler when it catches the fault).
        pkg: offending package, where the raise site can name one.
    """

    def __init__(self, kind: str, detail: str, addr: int | None = None,
                 env_id: int | None = None, env_name: str = "",
                 pkg: str = ""):
        self.kind = kind
        self.addr = addr
        self.detail = detail
        self.env_id = env_id
        self.env_name = env_name
        self.pkg = pkg
        location = f" at {addr:#x}" if addr is not None else ""
        super().__init__(f"fault[{kind}]{location}: {detail}")

    def attribute(self, env=None, pkg: str = "") -> "Fault":
        """Fill unset attribution fields; never overwrites a raise-site
        attribution (the scheduler calls this as a catch-all)."""
        if env is not None and self.env_id is None:
            self.env_id = env.id
            self.env_name = env.name
        if pkg and not self.pkg:
            self.pkg = pkg
        return self

    def origin(self) -> str:
        """Human-readable source attribution for diagnostics."""
        parts = []
        if self.env_name:
            parts.append(f"env {self.env_name!r}")
        if self.pkg:
            parts.append(f"package {self.pkg!r}")
        return " ".join(parts) if parts else "unattributed"


class PageFault(Fault):
    """Translation failed or the access violated page permissions."""


class PkeyFault(Fault):
    """The access violated the PKRU rights for the page's protection key."""

    def __init__(self, detail: str, addr: int | None = None, pkey: int = 0):
        self.pkey = pkey
        super().__init__("pkey", detail, addr)


class SyscallFault(Fault):
    """An enclosure attempted a system call denied by its filter."""

    def __init__(self, detail: str, nr: int):
        self.nr = nr
        super().__init__("syscall", detail)


class CallSiteFault(Fault):
    """A LitterBox API call came from a call-site absent from ``.verif``."""

    def __init__(self, detail: str, addr: int | None = None):
        super().__init__("call-site", detail, addr)


class EscalationFault(Fault):
    """A switch attempted to enter a less restrictive environment."""

    def __init__(self, detail: str):
        super().__init__("escalation", detail)


class QuarantinedFault(Fault):
    """A Prolog (or Execute) targeted a quarantined enclosure.

    Raised under the ``quarantine`` fault policy once an enclosure's
    contained-fault count reaches the configured threshold: later
    entries fail fast at the trust boundary instead of running the
    compromised code again.
    """

    def __init__(self, detail: str, env_id: int | None = None,
                 env_name: str = ""):
        super().__init__("denied-entry", detail, env_id=env_id,
                         env_name=env_name)


class QuotaFault(Fault):
    """An enclosure exceeded a per-tenant resource quota.

    Raised at the layer that meters the resource — the span allocator
    (``spans``), the scheduler's slice accounting (``steps``), or the
    kernel's fd table (``fds``) — and contained exactly like any other
    fault: the offending goroutine dies at the trust boundary and the
    overrun counts toward the enclosure's quarantine breaker.
    """

    def __init__(self, detail: str, resource: str, limit: int, used: int,
                 env_id: int | None = None, env_name: str = "",
                 pkg: str = ""):
        self.resource = resource
        self.limit = limit
        self.used = used
        super().__init__("quota", detail, env_id=env_id, env_name=env_name,
                         pkg=pkg)


class PolicyError(SimError):
    """An enclosure policy string failed to parse or to be satisfied."""


class LinkError(SimError):
    """The linker could not lay out the program image."""


class CompileError(SimError):
    """A Golite source program failed to lex, parse, or type-check."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" (line {line})" if line else ""
        super().__init__(f"{message}{where}")


class KernelError(SimError):
    """The simulated kernel rejected an operation (bad fd, bad addr, ...)."""


class PyliteError(SimError):
    """The Pylite interpreter hit an unsupported construct or bad program."""


class WouldBlock(SimError):
    """Control-flow signal: the current operation must wait.

    Raised by kernel / runtime services when a goroutine must block
    (empty accept queue, empty channel, ...).  The interpreter catches
    it, rolls the instruction back, and parks the goroutine on
    ``wait_key`` until something calls the scheduler's ``wake``.
    """

    def __init__(self, wait_key: tuple):
        self.wait_key = wait_key
        super().__init__(f"would block on {wait_key}")


class MachineHalt(SimError):
    """Internal signal: the simulated program executed HALT."""

    def __init__(self, exit_code: int = 0):
        self.exit_code = exit_code
        super().__init__(f"halt({exit_code})")
