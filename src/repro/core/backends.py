"""Backend interface shared by LitterBox's enforcement mechanisms.

LitterBox "provides a common implementation and only differentiates
between the selected hardware for three operations: (1) creating and
enforcing an execution environment (Init, FilterSyscall), (2) extending
a package's arena (Transfer), and (3) performing a switch between
execution environments (Prolog, Epilog, Execute)" (§5.3).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.core.enclosure import LITTERBOX_SUPER, Environment
from repro.core.policy import Access
from repro.errors import ConfigError
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.pages import Perm, Section
from repro.hw.pagetable import PageTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox
    from repro.hw.mmu import TranslationContext


class Backend(abc.ABC):
    """One hardware enforcement mechanism."""

    name: str = "abstract"
    #: PKRU the boot core starts with (``None``: no protection keys).
    boot_pkru: int | None = None

    def __init__(self) -> None:
        self.litterbox: "LitterBox | None" = None
        #: SMP hook ``fn()`` wired by the machine on multi-core
        #: configurations: charge the IPI burst that forces every
        #: *other* core to drop privilege state cached in registers
        #: (PKRU) rather than in a page table — MPK quarantine revokes
        #: by rewriting an environment's PKRU value, which no page-table
        #: shootdown would otherwise cover.  ``None`` on one core.
        self.remote_flush = None

    @abc.abstractmethod
    def init(self, litterbox: "LitterBox") -> None:
        """Create the execution environments from the computed views."""

    @abc.abstractmethod
    def switch_to(self, cpu: CPU, env: Environment) -> None:
        """Install ``env``'s restrictions on the CPU (Prolog/Epilog/Execute)."""

    @abc.abstractmethod
    def transfer(self, section: Section, to_pkg: str) -> None:
        """Re-assign a memory section to ``to_pkg``'s arena."""

    @abc.abstractmethod
    def prepare_stack(self, env: Environment, section: Section) -> None:
        """Make a freshly mmapped stack section usable inside ``env``."""

    @abc.abstractmethod
    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        """Route one SYSCALL instruction through this backend's filter path."""

    def contained_fault(self, cpu: CPU) -> None:
        """Charge the hardware cost of *containing* (not aborting on) a
        fault: the trap delivery that hands control back to the runtime.
        Default: free (baseline has no enforcement trap)."""

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke a quarantined environment at the hardware layer,
        as defense in depth under the ``quarantine`` policy (the
        quarantine registry already denies Prolog/Execute).  Default:
        nothing to revoke."""

    def unquarantine(self, env: Environment) -> None:
        """Undo :meth:`quarantine` for a supervised revival (tenant
        lifecycle): restore the environment's hardware restrictions to
        their pre-quarantine state.  Default: nothing was revoked."""

    def aborted_fault(self) -> None:
        """Charge the hardware cost of an uncontained fault aborting the
        program.  Default: free (the process simply dies)."""

    def boot(self, ctx: "TranslationContext") -> None:
        """Install the post-Init state on the boot core's translation
        context (further cores copy it).  Default: keep the host table."""

    def observed_parts(self) -> tuple:
        """Hardware parts beyond the machine's own that publish on the
        observer spine (each gets an ``obs`` attribute).  Default: none."""
        return ()


class BaselineBackend(Backend):
    """No enforcement: enclosures behave as vanilla closures.

    This is the paper's *Baseline* configuration; Prolog/Epilog are
    no-ops and system calls go straight to the host kernel.
    """

    name = "baseline"

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        pass

    def transfer(self, section: Section, to_pkg: str) -> None:
        pass

    def prepare_stack(self, env: Environment, section: Section) -> None:
        pass

    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        return self.litterbox.kernel.syscall(nr, args, cpu.ctx, pkru=0)


def _section_kind(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _perms_under(access: Access, kind: str, default: Perm) -> Perm | None:
    """Page permissions for a section kind under an access right (§2.2).

    ``None`` means the section is not mapped in this environment:
    text is only executable under RWX (hidden otherwise, like the
    Python frontend's code/data arena split), and U unmaps everything.
    """
    if access is Access.U:
        return None
    if kind == "text":
        return Perm.RX if access is Access.RWX else None
    if kind == "rodata":
        return Perm.R
    if kind == "data":
        return Perm.RW if access.includes(Access.RW) else Perm.R
    if kind == "meta":
        return None
    return default


class PageTableBackend(Backend):
    """Enforcement by one page table per execution environment.

    Shared by LBVTX, which adds the VM (EPT, guest CR3 writes,
    hypercalls), and LBLWC, which adds only the ``lwSwitch`` system call
    and its in-kernel filter.  Each enclosure gets a table built from
    its view; a trusted table runs non-enclosed code.  New mmap'd memory
    appears RW in the trusted table and non-present in every enclosure
    table until transferred; Transfer toggles presence and rights bits
    during one kernel entry.
    """

    #: Cost of the kernel entry that performs a Transfer.
    kernel_entry_ns: float
    #: Name prefix of the per-environment tables.
    table_prefix: str

    def __init__(self) -> None:
        super().__init__()
        self.trusted_table: PageTable | None = None
        #: env id -> present-vpn snapshot taken when the environment was
        #: quarantined (``revoke_all`` destroys the presence bits, so a
        #: supervised revival needs them recorded up front).
        self._quarantine_presence: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------ init

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox
        kernel = litterbox.kernel
        if kernel.host_table is None:
            raise ConfigError(f"{self.name.upper()} backend requires the "
                              "loaded master table")
        self.trusted_table = self._trusted_table(kernel.host_table)
        litterbox.trusted_env.table = self.trusted_table
        for env in litterbox.envs.values():
            if env.trusted:
                continue
            env.table = self._build_env_table(env)
        kernel.mmap_hook = self._mmap_hook

    def _trusted_table(self, host_table: PageTable) -> PageTable:
        """The table non-enclosed code runs on.  Default: the host's."""
        return host_table

    def _build_env_table(self, env: Environment) -> PageTable:
        """Create the per-enclosure page table from its view."""
        host_table = self.litterbox.kernel.host_table
        table = PageTable(f"{self.table_prefix}.{env.name}")
        for pkg in self.litterbox.image.graph:
            access = env.access_to(pkg.name)
            if pkg.name == LITTERBOX_SUPER:
                access = Access.U
            for section in pkg.sections:
                perms = _perms_under(access, _section_kind(section.name),
                                     section.perms)
                if perms is None:
                    continue
                for vpn in section.vpns():
                    pte = host_table.lookup(vpn)
                    if pte is None:
                        raise ConfigError(
                            f"section {section.name} not loaded")
                    table.map_page(vpn, type(pte)(
                        pfn=pte.pfn, perms=perms, pkey=pte.pkey,
                        present=True, user=True))
        return table

    def _mmap_hook(self, base: int, size: int, pfns: list[int]) -> None:
        host_table = self.litterbox.kernel.host_table
        host_table.map_range(base, size, pfns, Perm.RW)
        if self.trusted_table is not host_table:
            self.trusted_table.map_range(base, size, pfns, Perm.RW)
        for env in self.litterbox.envs.values():
            if env.table is not None and env.table is not self.trusted_table:
                env.table.map_range(base, size, pfns, Perm.RW, present=False)

    # --------------------------------------------------------------- switches

    def _install(self, cpu: CPU, env: Environment) -> PageTable:
        """Make ``env``'s table the core's root and return it.

        Installing a root is a CR3 write, which flushes the TLB (no PCID
        in this model); the caller charges its simulated cost.  The
        environment is per-core state, so SMP syscall filtering reads
        the one last installed on the issuing core."""
        table = env.table if env.table is not None else self.trusted_table
        cpu.ctx.page_table = table
        self.litterbox.mmu.flush_tlb(cpu.ctx)
        cpu.current_env = env
        return table

    # --------------------------------------------------------------- transfer

    def transfer(self, section: Section, to_pkg: str) -> None:
        """One kernel entry (the guest kernel's under VT-x, the fast
        158ns row of Table 1) toggles presence/rights bits in every
        enclosure table."""
        clock = self.litterbox.clock
        clock.charge(self.kernel_entry_ns)
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
        """Make the per-environment stack present (RW) in that
        environment only; it is already RW in the trusted table."""
        if env.table is None or env.trusted:
            return
        env.table.protect_range(section.base, section.size, Perm.RW)
        updated = env.table.set_present_range(
            section.base, section.size, True)
        self.litterbox.clock.charge(COSTS.PTE_UPDATE * updated)

    # ------------------------------------------------------------ containment

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke: mark every page of the quarantined environment's
        table non-present, so even a forged install of it faults on the
        first access."""
        if env.table is not None and env.table is not self.trusted_table:
            self._quarantine_presence[env.id] = env.table.present_vpns()
            env.table.revoke_all()

    def unquarantine(self, env: Environment) -> None:
        """Supervised revival: restore the presence snapshot taken at
        quarantine time.  Sound because a quarantined enclosure cannot
        allocate, so no Transfer retargets its pages while revoked; the
        generation bump invalidates any stale TLB entries."""
        snapshot = self._quarantine_presence.pop(env.id, None)
        if snapshot is not None and env.table is not None:
            env.table.restore_present(snapshot)
