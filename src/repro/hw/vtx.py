"""Intel VT-x simulation: VMCS, root/non-root modes, EPT, VM exits.

LitterBox's VT-x backend (``LBVTX``) runs the whole application inside a
single VM.  Each enclosure execution environment is a separate *guest*
page table; switches write the guest CR3 (a specialized guest system
call), and host system calls are forwarded through hypercalls, each
paying a full VM EXIT / VM RESUME round trip.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ConfigError
from repro.hw.clock import COSTS, SimClock
from repro.hw.pagetable import PTE, PageTable
from repro.hw.pages import Perm


class ExitReason(enum.Enum):
    """Why control returned from non-root to root mode."""

    HYPERCALL = "hypercall"
    FAULT = "fault"
    #: A guest fault intercepted and *contained* by the runtime instead
    #: of aborting the program (``fault_policy`` != ``abort``): the same
    #: hardware round trip as FAULT, but control returns to the guest.
    CONTAIN = "contain"
    HLT = "hlt"


@dataclass
class VMCS:
    """The subset of VMCS state the simulation needs."""

    guest_cr3: PageTable | None = None
    ept: PageTable | None = None
    launched: bool = False
    exits: int = 0


class VirtualMachine:
    """A single VT-x VM hosting the application (as in LBVTX).

    The VM owns the EPT and provides the VM EXIT / VM RESUME cost
    accounting.  ``GPA == HVA`` is preserved: the backend hands the VM
    every guest-physical frame its guest tables reference, and the EPT
    identity-maps each one, mirroring the paper's simplification.
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self.vmcs = VMCS(ept=PageTable("ept"))
        self.hypercall_handler: Callable[..., int] | None = None
        self.obs = None  # observer spine (repro.trace.Observers)

    # -- EPT management ----------------------------------------------------

    def extend_ept(self, pfns: Iterable[int]) -> None:
        """Identity-map each guest-physical frame in ``pfns``, charging
        one EPT update per frame the EPT did not already map."""
        ept = self.vmcs.ept
        for pfn in pfns:
            if ept.lookup(pfn) is None:
                ept.map_page(pfn, PTE(pfn, Perm.RWX, user=True))
                self.clock.charge(COSTS.EPT_UPDATE)

    # -- mode transitions --------------------------------------------------

    def launch(self, initial_cr3: PageTable) -> None:
        if self.vmcs.launched:
            raise ConfigError("VM already launched")
        self.vmcs.guest_cr3 = initial_cr3
        self.vmcs.launched = True

    def write_cr3(self, table: PageTable) -> None:
        """Guest CR3 write: switches the active environment's mappings.

        Only guest *kernel* code (LitterBox's super package) invokes
        this, via the specialized switch system call.
        """
        if not self.vmcs.launched:
            raise ConfigError("CR3 write before VM launch")
        self.clock.charge(COSTS.CR3_WRITE)
        self.vmcs.guest_cr3 = table

    def vm_exit(self, reason: ExitReason) -> None:
        """Account one VM EXIT + later VM RESUME round trip."""
        self.vmcs.exits += 1
        if self.obs is not None:
            self.obs.vm_exit(reason.value, COSTS.VMEXIT_ROUNDTRIP,
                             self.vmcs.exits)
        self.clock.tick("vm_exits", COSTS.VMEXIT_ROUNDTRIP)

    def hypercall(self, nr: int, args: tuple[int, ...]) -> int:
        """Forward a request to root mode (the host kernel)."""
        if self.hypercall_handler is None:
            raise ConfigError("no hypercall handler installed")
        self.vm_exit(ExitReason.HYPERCALL)
        return self.hypercall_handler(nr, args)
