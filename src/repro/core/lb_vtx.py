"""LBVTX: the Intel VT-x backend (paper §5.3).

The whole application runs in one VM.  Each execution environment is a
guest page table enforcing the enclosure description; a trusted page
table (user access to everything except LitterBox's super) runs
non-enclosed code.  Switches are specialized guest system calls that
validate the call-site (in super) and write the guest CR3; authorized
host system calls are forwarded through hypercalls, each paying a full
VM EXIT; transfers toggle presence bits in the relevant environments'
page tables without leaving the guest.  The page-table mechanics are
:class:`~repro.core.backends.PageTableBackend`'s; this module adds the VM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import PageTableBackend
from repro.core.enclosure import Environment
from repro.errors import SyscallFault
from repro.hw.clock import COSTS
from repro.hw.cpu import CPU
from repro.hw.pagetable import PageTable
from repro.hw.vtx import ExitReason
from repro.os.kvm import KVMDevice
from repro.os.syscalls import syscall_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.litterbox import LitterBox
    from repro.hw.mmu import TranslationContext


class VTXBackend(PageTableBackend):
    """Intel VT-x enforcement via a KVM-hosted VM."""

    name = "vtx"
    kernel_entry_ns = COSTS.GUEST_SYSCALL
    table_prefix = "gpt"

    def __init__(self, kvm: KVMDevice, arg_rules=None):
        super().__init__()
        self.kvm = kvm
        self.vm = None
        #: §6.5 extension: argument-granular rules enforced by the guest
        #: OS handler (nr -> list of ArgRule).
        self._arg_rules: dict[int, list] = {}
        for rule in arg_rules or []:
            self._arg_rules.setdefault(rule.nr, []).append(rule)

    # ------------------------------------------------------------------ init

    def init(self, litterbox: "LitterBox") -> None:
        """Create the VM, extend its EPT over the trusted table's frames
        (a superset of every enclosure table's), and launch it on the
        trusted table."""
        self.vm = self.kvm.create_vm()
        super().init(litterbox)
        table = self.trusted_table
        self.vm.extend_ept(table.lookup(vpn).pfn
                           for vpn in table.mapped_vpns())
        self.vm.launch(table)

    def _trusted_table(self, host_table: PageTable) -> PageTable:
        """Everything user-accessible except super, which stays
        supervisor-only (the loader maps it user=False already)."""
        return host_table.clone(f"{self.table_prefix}.trusted")

    def _mmap_hook(self, base: int, size: int, pfns: list[int]) -> None:
        """Map the new frames, then extend the EPT over them: they are
        the only frames a mmap can add to any guest table."""
        super()._mmap_hook(base, size, pfns)
        self.vm.extend_ept(pfns)

    def boot(self, ctx: "TranslationContext") -> None:
        """Entering guest mode installs a new CR3 and the EPT: any
        translations cached during loading are flushed."""
        ctx.page_table = self.trusted_table
        ctx.ept = self.vm.vmcs.ept
        self.litterbox.mmu.flush_tlb(ctx)

    def observed_parts(self) -> tuple:
        return (self.vm,)

    # --------------------------------------------------------------- switches

    def switch_to(self, cpu: CPU, env: Environment) -> None:
        """A switch is a specialized system call to the guest OS: enter
        the guest kernel, validate, write CR3, and iret (§5.3)."""
        self.litterbox.clock.charge(COSTS.GUEST_SYSCALL + COSTS.VERIF_VTX
                                    + COSTS.VTX_SWITCH_MISC)
        self.vm.write_cr3(self._install(cpu, env))

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

    def aborted_fault(self) -> None:
        """A fault triggers a VM EXIT before the program aborts.  Ticked
        on the clock directly, not through ``vm.vm_exit``: the abort is
        reported as a violation, not as a ``vm_exit`` event."""
        self.litterbox.clock.tick("vm_exits", COSTS.VMEXIT_ROUNDTRIP)
