"""LBLWC: a light-weight-contexts software backend (paper §8).

The related-work section notes that "LWC presents an interesting OS
abstraction and could provide an alternative LitterBox backend that
does not require specialized hardware (e.g., Intel VT-x)".  This
backend implements that suggestion: each execution environment is an
OS-level context with its own page table, and a switch is a plain
system call (``lwSwitch``) into the host kernel that validates the
transition and installs the context's root — no VM, no VM exits, no
protection keys.

Cost profile (all from the shared model): switches cost a host syscall
plus a CR3 write (slower than MPK's ~20ns WRPKRU, much faster than
VT-x's double guest-syscall); system calls cost exactly the baseline,
since filtering happens in the kernel on the context id with no
seccomp machinery and no hypercalls; transfers update the per-context
tables directly during the same kernel entry.  The page-table
mechanics are :class:`~repro.core.backends.PageTableBackend`'s.
"""

from __future__ import annotations

from repro.core.backends import PageTableBackend
from repro.core.enclosure import Environment
from repro.errors import SyscallFault
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.os.syscalls import syscall_name


class LWCBackend(PageTableBackend):
    """Light-weight contexts: kernel-assisted, hardware-agnostic."""

    name = "lwc"
    kernel_entry_ns = COSTS.HOST_SYSCALL
    table_prefix = "lwc"

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        """lwSwitch: one host system call that validates the transition
        and installs the context's page-table root."""
        self.litterbox.clock.charge(
            COSTS.HOST_SYSCALL + COSTS.VERIF_VTX + COSTS.CR3_WRITE)
        self._install(cpu, env)

    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        """Filtering on the context id inside the normal kernel entry —
        no seccomp program, no hypercall."""
        env = cpu.current_env or self.litterbox.trusted_env
        verdict = "allow" if env.allows_syscall(nr) else "kill"
        if self.litterbox.obs is not None:
            self.litterbox.obs.filter("lwc-kernel", verdict, nr, env.name)
        if verdict == "kill":
            raise SyscallFault(
                f"lwc kernel rejected {syscall_name(nr)} in context "
                f"{env.name!r}", nr).attribute(env)
        return self.litterbox.kernel.syscall(nr, args, cpu.ctx, pkru=0)

    def contained_fault(self, cpu: CPU) -> None:
        """A contained LWC fault is one kernel trap into the context
        supervisor (no VM, no seccomp machinery)."""
        self.litterbox.clock.charge(COSTS.HOST_SYSCALL)
