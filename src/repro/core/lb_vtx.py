"""LBVTX: the Intel VT-x backend (paper §5.3).

The whole application runs in one VM.  Each execution environment is a
guest page table enforcing the enclosure description; a trusted page
table (user access to everything except LitterBox's super) runs
non-enclosed code.  Switches are specialized guest system calls that
validate the call-site (in super) and write the guest CR3; authorized
host system calls are forwarded through hypercalls, each paying a full
VM EXIT; transfers toggle presence bits in the relevant environments'
page tables without leaving the guest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import Backend
from repro.core.enclosure import LITTERBOX_SUPER, Environment
from repro.core.policy import Access
from repro.errors import ConfigError, SyscallFault
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.pages import Perm, Section
from repro.hw.pagetable import PageTable
from repro.hw.vtx import ExitReason
from repro.os.kvm import KVMDevice
from repro.os.syscalls import syscall_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox


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


class VTXBackend(Backend):
    """Intel VT-x enforcement via a KVM-hosted VM."""

    name = "vtx"

    def __init__(self, kvm: KVMDevice, arg_rules=None):
        super().__init__()
        self.kvm = kvm
        self.vm = None
        self.trusted_table: PageTable | None = None
        #: §6.5 extension: argument-granular rules enforced by the guest
        #: OS handler (nr -> list of ArgRule).
        self._arg_rules: dict[int, list] = {}
        for rule in arg_rules or []:
            self._arg_rules.setdefault(rule.nr, []).append(rule)
        #: env id -> present-vpn snapshot taken when the environment was
        #: quarantined (``revoke_all`` destroys the presence bits, so a
        #: supervised revival needs them recorded up front).
        self._quarantine_presence: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------ init

    def init(self, litterbox: "LitterBox") -> None:
        self.litterbox = litterbox
        kernel = litterbox.kernel
        if kernel.host_table is None:
            raise ConfigError("VTX backend requires the loaded master table")
        self.vm = self.kvm.create_vm()

        # Trusted table: everything user-accessible except super, which
        # stays supervisor-only (the loader maps it user=False already).
        self.trusted_table = kernel.host_table.clone("gpt.trusted")
        self.vm.register_guest_table(self.trusted_table)
        self.litterbox.trusted_env.table = self.trusted_table

        for env in litterbox.envs.values():
            if env.trusted:
                continue
            env.table = self._build_env_table(env)
            self.vm.register_guest_table(env.table)

        # New mmap'd memory appears RW in the trusted table and
        # non-present in every enclosure table until transferred.
        def mmap_hook(base: int, size: int, pfns: list[int]) -> None:
            kernel.host_table.map_range(base, size, pfns, Perm.RW)
            self.trusted_table.map_range(base, size, pfns, Perm.RW)
            for env in litterbox.envs.values():
                if env.table is not None and env.table is not self.trusted_table:
                    env.table.map_range(base, size, pfns, Perm.RW,
                                        present=False)
            self.vm.register_guest_table(self.trusted_table)

        kernel.mmap_hook = mmap_hook
        self.vm.launch(self.trusted_table)

    def _build_env_table(self, env: Environment) -> PageTable:
        """Create the per-enclosure guest page table from its view."""
        image = self.litterbox.image
        table = PageTable(f"gpt.{env.name}")
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
        """A switch is a specialized system call to the guest OS: enter
        the guest kernel, validate, write CR3, and iret (§5.3)."""
        clock = self.litterbox.clock
        clock.charge(COSTS.GUEST_SYSCALL + COSTS.VERIF_VTX
                     + COSTS.VTX_SWITCH_MISC)
        table = env.table if env.table is not None else self.trusted_table
        self.vm.write_cr3(table)
        cpu.ctx.page_table = table
        # A CR3 write flushes the TLB (no PCID in this model); the
        # simulated cost is already inside write_cr3's CR3_WRITE charge.
        self.litterbox.mmu.flush_tlb(cpu.ctx)
        # Per-vCPU state: each simulated core tracks which environment
        # it is running, so SMP syscall filtering stays core-accurate.
        cpu.current_env = env

    # --------------------------------------------------------------- transfer

    def transfer(self, section: Section, to_pkg: str) -> None:
        """Toggle presence/rights bits in the relevant page tables — no
        host involvement (the fast 158ns row of Table 1)."""
        clock = self.litterbox.clock
        clock.charge(COSTS.GUEST_SYSCALL)
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

    # ---------------------------------------------------------------- syscall

    def syscall(self, cpu: CPU, nr: int, args: tuple[int, ...]) -> int:
        """FilterSyscall in the guest OS, then hypercall to the host.

        "The handler filters system calls according to the current
        execution environment's filter.  If authorized, system calls are
        passed through to the host via a hypercall (VM EXIT)" (§5.3).
        """
        obs = self.litterbox.obs
        if obs is None:
            return self._guest_syscall(cpu, nr, args, None)
        obs.syscall_enter("guest-sys", nr)
        ret = None
        try:
            ret = self._guest_syscall(cpu, nr, args, obs)
            return ret
        finally:
            obs.syscall_exit("guest-sys", nr, ret)

    def _guest_syscall(self, cpu: CPU, nr: int, args: tuple[int, ...],
                       obs) -> int:
        clock = self.litterbox.clock
        clock.charge(COSTS.GUEST_SYSCALL)
        env = cpu.current_env or self.litterbox.trusted_env
        if not env.allows_syscall(nr):
            if obs is not None:
                obs.filter("guest-os", "kill", nr, env.name)
            raise SyscallFault(
                f"guest OS rejected {syscall_name(nr)} in environment "
                f"{env.name!r}", nr).attribute(env)
        for rule in self._arg_rules.get(nr, ()):
            value = args[rule.arg_index] if rule.arg_index < len(args) else 0
            if (value & 0xFFFFFFFF) not in \
                    {v & 0xFFFFFFFF for v in rule.allowed_values}:
                if obs is not None:
                    obs.filter("guest-os", "kill", nr, env.name,
                               arg_index=rule.arg_index, value=value)
                raise SyscallFault(
                    f"guest OS rejected {syscall_name(nr)}: argument "
                    f"{rule.arg_index} = {value:#x} not in the allow-list",
                    nr).attribute(env)
        if obs is not None:
            obs.filter("guest-os", "allow", nr, env.name)
        return self.kvm.forward_syscall(nr, args, cpu.ctx)

    # ------------------------------------------------------------ containment

    def contained_fault(self, cpu: CPU) -> None:
        """A contained guest fault still pays the full VM EXIT round
        trip — it just RESUMEs the guest instead of tearing it down."""
        self.vm.vm_exit(ExitReason.CONTAIN)

    def quarantine(self, env: Environment) -> None:
        """Hard-revoke: mark every page of the quarantined environment's
        guest table non-present, so even a forged CR3 write into it
        faults on the first access."""
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
