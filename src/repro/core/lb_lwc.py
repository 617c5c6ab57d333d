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
tables directly during the same kernel entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import Backend
from repro.core.enclosure import LITTERBOX_SUPER, Environment
from repro.core.lb_vtx import _perms_under, _section_kind
from repro.core.policy import Access
from repro.errors import ConfigError, SyscallFault
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.pages import Perm, Section
from repro.hw.pagetable import PageTable
from repro.os.syscalls import syscall_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox


class LWCBackend(Backend):
    """Light-weight contexts: kernel-assisted, hardware-agnostic."""

    name = "lwc"

    def __init__(self) -> None:
        super().__init__()
        self.trusted_table: PageTable | None = None
        #: env id -> present-vpn snapshot taken at quarantine time so a
        #: supervised revival can undo ``revoke_all``.
        self._quarantine_presence: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------ init

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox
        kernel = litterbox.kernel
        if kernel.host_table is None:
            raise ConfigError("LWC backend requires the loaded master table")
        self.trusted_table = kernel.host_table
        litterbox.trusted_env.table = self.trusted_table

        for env in litterbox.envs.values():
            if env.trusted:
                continue
            env.table = self._build_context_table(env)

        def mmap_hook(base: int, size: int, pfns: list[int]) -> None:
            kernel.host_table.map_range(base, size, pfns, Perm.RW)
            for env in litterbox.envs.values():
                if env.table is not None and \
                        env.table is not self.trusted_table:
                    env.table.map_range(base, size, pfns, Perm.RW,
                                        present=False)

        kernel.mmap_hook = mmap_hook

    def _build_context_table(self, env: Environment) -> PageTable:
        image = self.litterbox.image
        table = PageTable(f"lwc.{env.name}")
        for pkg in image.graph:
            access = env.access_to(pkg.name)
            if pkg.name == LITTERBOX_SUPER:
                access = Access.U
            for section in pkg.sections:
                perms = _perms_under(access, _section_kind(section.name),
                                     section.perms)
                if perms is None:
                    continue
                for vpn in section.vpns():
                    pte = self.litterbox.kernel.host_table.lookup(vpn)
                    if pte is None:
                        raise ConfigError(
                            f"section {section.name} not loaded")
                    table.map_page(vpn, type(pte)(
                        pfn=pte.pfn, perms=perms, pkey=pte.pkey,
                        present=True, user=True))
        return table

    # --------------------------------------------------------------- switches

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        """lwSwitch: one host system call that validates the transition
        and installs the context's page-table root."""
        clock = self.litterbox.clock
        clock.charge(COSTS.HOST_SYSCALL + COSTS.VERIF_VTX + COSTS.CR3_WRITE)
        table = env.table if env.table is not None else self.trusted_table
        cpu.ctx.page_table = table
        # Installing a context root is a CR3 write: flush the TLB (the
        # CR3_WRITE charge above already accounts the simulated cost).
        self.litterbox.mmu.flush_tlb(cpu.ctx)
        # Per-core state: SMP syscall filtering reads the environment
        # last installed on the issuing core, not a backend global.
        cpu.current_env = env

    # --------------------------------------------------------------- transfer

    def transfer(self, section: Section, to_pkg: str) -> None:
        """One kernel entry updates every context's table directly."""
        clock = self.litterbox.clock
        clock.charge(COSTS.HOST_SYSCALL)
        for env in self.litterbox.envs.values():
            if env.table is None or env.trusted:
                continue
            access = env.access_to(to_pkg)
            if access is Access.U:
                updated = env.table.set_present_range(
                    section.base, section.size, False)
            else:
                perms = Perm.RW if access.includes(Access.RW) else Perm.R
                env.table.protect_range(section.base, section.size, perms)
                updated = env.table.set_present_range(
                    section.base, section.size, True)
            clock.charge(COSTS.PTE_UPDATE * updated)

    def prepare_stack(self, env: Environment, section: Section) -> None:
        if env.table is None or env.trusted:
            return
        env.table.protect_range(section.base, section.size, Perm.RW)
        updated = env.table.set_present_range(
            section.base, section.size, True)
        self.litterbox.clock.charge(COSTS.PTE_UPDATE * updated)

    # ---------------------------------------------------------------- syscall

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

    # ------------------------------------------------------------ containment

    def contained_fault(self, cpu: CPU) -> None:
        """A contained LWC fault is one kernel trap into the context
        supervisor (no VM, no seccomp machinery)."""
        self.litterbox.clock.charge(COSTS.HOST_SYSCALL)

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke the quarantined context's table: every page goes
        non-present, so the context cannot run even if re-installed."""
        if env.table is not None and env.table is not self.trusted_table:
            self._quarantine_presence[env.id] = env.table.present_vpns()
            env.table.revoke_all()

    def unquarantine(self, env: Environment) -> None:
        """Supervised revival: restore the presence snapshot taken at
        quarantine time (see :meth:`quarantine`); the generation bump in
        ``restore_present`` invalidates stale TLB entries."""
        snapshot = self._quarantine_presence.pop(env.id, None)
        if snapshot is not None and env.table is not None:
            env.table.restore_present(snapshot)
