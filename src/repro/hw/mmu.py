"""Simulated MMU: translation plus permission / protection-key checks.

Every memory access made by simulated code — instruction fetches,
loads, stores, and the bulk accesses of runtime helpers acting on behalf
of simulated code — goes through :meth:`MMU.read` / :meth:`MMU.write` /
:meth:`MMU.check_exec` with the currently installed
:class:`TranslationContext`.  This is what makes LitterBox's enforcement
non-bypassable inside the simulation.

Software TLB
------------

Each :class:`TranslationContext` carries a software TLB: a dict mapping
``vpn * 4 + kind`` to a cached ``(pte, frame, table, table_gen, ept,
ept_gen)`` tuple, filled only after a walk fully passes the present /
user / permission checks — a denied translation is never cached.  A hit
revalidates the tag (same page table object, same generation, same EPT
and generation) so that any ``map``/``unmap``/``protect`` edit — which
bumps :attr:`PageTable.gen` — invalidates stale entries with no
shootdown, and explicit :meth:`flush_tlb` calls model the places real
hardware flushes (CR3 writes, environment switches in the VT-x/LWC
backends).

PKRU is deliberately **not** part of the TLB tag: as on real MPK
hardware, protection keys are checked on every data access against the
*current* PKRU using the key stored in the cached PTE, so a ``WRPKRU``
takes effect on the very next access even with a hot TLB entry, and no
enforcement is weakened by caching.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import PageFault, PkeyFault
from repro.hw.clock import COSTS, SimClock
from repro.hw.mpk import pkru_allows_read, pkru_allows_write
from repro.hw.pages import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Perm
from repro.hw.pagetable import PTE, PageTable
from repro.hw.physmem import PhysicalMemory
from repro.perf import PerfStats

_WORD = struct.Struct("<q")
_UWORD = struct.Struct("<Q")
WORD_SIZE = 8

#: Largest page offset at which an aligned 8-byte word still fits.
_WORD_FIT = PAGE_SIZE - WORD_SIZE

#: TLB key kind codes (the key is ``vpn * 4 + kind``; int keys hash
#: faster than tuples on the hot path).
KIND_R, KIND_W, KIND_X = 0, 1, 2
_KIND_CODE = {"r": KIND_R, "w": KIND_W, "x": KIND_X}

#: Permission bit required for each access kind (module-level so
#: ``_walk`` doesn't rebuild the mapping per call).
_NEEDED_PERM = {"r": Perm.R, "w": Perm.W, "x": Perm.X}


@dataclass
class TranslationContext:
    """The translation state the hardware sees for the running code.

    Attributes:
        page_table: the active table (CR3 in VT-x mode selects this).
        pkru: PKRU register value, or ``None`` when MPK is not in use.
        ept: optional second-level table (guest-physical -> host frame).
        user: whether the access executes in user mode.
        tlb: per-context software TLB (see module docstring).
    """

    page_table: PageTable
    pkru: int | None = None
    ept: PageTable | None = None
    user: bool = True
    tlb: dict = field(default_factory=dict, repr=False, compare=False)


class MMU:
    """Performs checked virtual-memory accesses against a context."""

    def __init__(self, physmem: PhysicalMemory, clock: SimClock,
                 perf: PerfStats | None = None):
        self.physmem = physmem
        self.clock = clock
        self.perf = perf if perf is not None else PerfStats()
        #: Observer spine (repro.trace.Observers); only fault paths
        #: consult it, never a successful access.
        self.obs = None
        #: Optional FaultInjector consulted per checked access (None in
        #: normal runs, so the hot path pays one predictable branch).
        self.inject = None

    def _trace_violation(self, kind: str, vaddr: int,
                         detail: str, **extra) -> None:
        if self.obs is not None:
            self.obs.violation(kind, vaddr=vaddr, detail=detail, **extra)

    # -- translation ----------------------------------------------------

    def _walk(self, ctx: TranslationContext, vaddr: int,
              kind: str) -> tuple[PTE, int]:
        """Full page-table (and EPT) walk; raises on any violation
        *except* protection keys, which are per-access (see module
        docstring) and checked by the callers.
        """
        pte = ctx.page_table.lookup(vaddr >> PAGE_SHIFT)
        if pte is None:
            self._trace_violation("page-fault", vaddr, "no translation",
                                  access=kind, table=ctx.page_table.name)
            raise PageFault("non-present",
                            f"no translation for {vaddr:#x} in {ctx.page_table.name}",
                            addr=vaddr)
        if not pte.present:
            self._trace_violation("page-fault", vaddr, "not present",
                                  access=kind, table=ctx.page_table.name)
            raise PageFault("non-present",
                            f"page {vaddr:#x} not present in {ctx.page_table.name}",
                            addr=vaddr)
        if ctx.user and not pte.user:
            self._trace_violation("page-fault", vaddr, "supervisor page",
                                  access=kind, table=ctx.page_table.name)
            raise PageFault(kind, f"user access to supervisor page {vaddr:#x}",
                            addr=vaddr)
        needed = _NEEDED_PERM[kind]
        if not pte.perms & needed:
            self._trace_violation("page-fault", vaddr, "permission denied",
                                  access=kind, perms=pte.perms.label())
            raise PageFault(
                kind,
                f"{kind}-access to {vaddr:#x} ({pte.perms.label()}) denied",
                addr=vaddr)
        paddr = pte.pfn * PAGE_SIZE + (vaddr & PAGE_MASK)
        if ctx.ept is not None:
            ept_pte = ctx.ept.lookup(paddr >> PAGE_SHIFT)
            if ept_pte is None:
                self._trace_violation("ept", vaddr, "EPT violation",
                                      access=kind, gpa=paddr)
                raise PageFault("non-present",
                                f"EPT violation for GPA {paddr:#x}", addr=vaddr)
            paddr = ept_pte.pfn * PAGE_SIZE + (paddr & PAGE_MASK)
        return pte, paddr

    def _check_pkey(self, ctx: TranslationContext, pte: PTE, vaddr: int,
                    kind: str) -> None:
        """MPK: PKRU governs *data* accesses to user pages only.

        Evaluated on every access — even TLB hits — against the current
        PKRU, exactly as the hardware rechecks keys per access.
        """
        if ctx.pkru is None or not ctx.user or kind == "x":
            return
        if kind == "r" and not pkru_allows_read(ctx.pkru, pte.pkey):
            self._trace_violation("pkey", vaddr, "PKRU denied read",
                                  pkey=pte.pkey, pkru=ctx.pkru)
            raise PkeyFault(
                f"read of {vaddr:#x} denied by PKRU for key {pte.pkey}",
                addr=vaddr, pkey=pte.pkey)
        if kind == "w" and not pkru_allows_write(ctx.pkru, pte.pkey):
            self._trace_violation("pkey", vaddr, "PKRU denied write",
                                  pkey=pte.pkey, pkru=ctx.pkru)
            raise PkeyFault(
                f"write of {vaddr:#x} denied by PKRU for key {pte.pkey}",
                addr=vaddr, pkey=pte.pkey)

    def _translate(self, ctx: TranslationContext, vaddr: int,
                   kind: str) -> tuple[PTE, int]:
        """Translate one address; raise a fault on any violation.

        ``kind`` is ``'r'``, ``'w'``, or ``'x'``.  Kept as the uncached
        reference path; checked accesses go through :meth:`_access`.
        """
        pte, paddr = self._walk(ctx, vaddr, kind)
        self._check_pkey(ctx, pte, vaddr, kind)
        return pte, paddr

    def _fill(self, ctx: TranslationContext, vaddr: int,
              kind: str) -> tuple:
        """TLB miss path: walk, then cache the *approved* translation.

        The entry is created only after the walk passes every
        present/user/permission check, so the TLB never caches a denied
        translation.  Protection keys are intentionally checked after
        caching (and on every later hit) — the translation itself is
        legal to cache under MPK semantics.
        """
        self.perf.tlb_misses += 1
        pte, paddr = self._walk(ctx, vaddr, kind)
        frame = self.physmem.frame(paddr >> PAGE_SHIFT)
        table = ctx.page_table
        ept = ctx.ept
        entry = (pte, frame, table, table.gen, ept,
                 0 if ept is None else ept.gen)
        ctx.tlb[(vaddr >> PAGE_SHIFT) * 4 + _KIND_CODE[kind]] = entry
        return entry

    def _access(self, ctx: TranslationContext, vaddr: int,
                kind: str) -> tuple[PTE, bytearray]:
        """One checked access through the TLB; returns (pte, frame)."""
        if self.inject is not None:
            self.inject.on_access(vaddr, kind)
        entry = ctx.tlb.get((vaddr >> PAGE_SHIFT) * 4 + _KIND_CODE[kind])
        if entry is not None:
            pte, frame, table, tgen, ept, egen = entry
            if table is ctx.page_table and tgen == table.gen and \
                    ept is ctx.ept and (ept is None or egen == ept.gen) and \
                    (pte.user or not ctx.user):
                self.perf.tlb_hits += 1
                self._check_pkey(ctx, pte, vaddr, kind)
                return pte, frame
        pte, frame = self._fill(ctx, vaddr, kind)[:2]
        self._check_pkey(ctx, pte, vaddr, kind)
        return pte, frame

    def flush_tlb(self, ctx: TranslationContext) -> None:
        """Drop every cached translation for ``ctx``.

        Called where real hardware flushes: CR3 writes (VT-x / LWC
        environment switches) and guest-mode entry.  Page-table edits do
        not need it — the generation tag already invalidates them.
        """
        ctx.tlb.clear()
        self.perf.tlb_flushes += 1

    # -- checked accesses ------------------------------------------------

    def read(self, ctx: TranslationContext, vaddr: int, size: int,
             charge: bool = True) -> bytes:
        """Read ``size`` bytes, enforcing permissions.

        A single translation serves the whole access when it stays
        within one page (the common case); page-spanning accesses
        translate once per page.
        """
        if charge:
            self.clock.charge(COSTS.INSN_MEM + COSTS.MEM_BYTE * max(0, size - 8))
        if size <= 0:
            return b""
        offset = vaddr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            _, frame = self._access(ctx, vaddr, "r")
            return bytes(frame[offset:offset + size])
        out = bytearray()
        remaining = size
        addr = vaddr
        while remaining > 0:
            offset = addr & PAGE_MASK
            _, frame = self._access(ctx, addr, "r")
            chunk = min(remaining, PAGE_SIZE - offset)
            out += frame[offset:offset + chunk]
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, ctx: TranslationContext, vaddr: int, data: bytes,
              charge: bool = True) -> None:
        if charge:
            self.clock.charge(
                COSTS.INSN_MEM + COSTS.MEM_BYTE * max(0, len(data) - 8))
        size = len(data)
        if size == 0:
            return
        offset = vaddr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            _, frame = self._access(ctx, vaddr, "w")
            frame[offset:offset + size] = data
            return
        pos = 0
        remaining = size
        addr = vaddr
        while remaining > 0:
            offset = addr & PAGE_MASK
            _, frame = self._access(ctx, addr, "w")
            chunk = min(remaining, PAGE_SIZE - offset)
            frame[offset:offset + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk
            remaining -= chunk

    def check_exec(self, ctx: TranslationContext, vaddr: int) -> None:
        """Validate an instruction fetch from ``vaddr``."""
        self._access(ctx, vaddr, "x")

    def exec_tag(self, ctx: TranslationContext, vaddr: int) -> tuple:
        """Validate a fetch and return the interpreter's per-page exec
        cache tag ``(vpn, ctx, table, table_gen, ept, ept_gen)``.

        The interpreter compares the tag inline on every step; while it
        matches, fetches from the same page skip :meth:`check_exec`.
        """
        self._access(ctx, vaddr, "x")
        table = ctx.page_table
        ept = ctx.ept
        return (vaddr >> PAGE_SHIFT, ctx, table, table.gen, ept,
                0 if ept is None else ept.gen)

    # -- word-granular helpers (the ISA operates on 64-bit words) --------

    # The word/byte helpers below open-code the TLB-hit path of
    # :meth:`_access` (same tag revalidation, same per-access PKRU
    # check with the AD/WD bit tests of :func:`pkru_allows_read` /
    # :func:`pkru_allows_write` inlined).  Any miss, mismatch, injector,
    # or denial falls back to ``_access``, which repeats the checks and
    # owns every fault/trace/counter slow path — so enforcement and
    # observable faults are byte-for-byte those of the shared path, and
    # only successful hits are short-circuited.

    def read_word(self, ctx: TranslationContext, vaddr: int,
                  charge: bool = True) -> int:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        offset = vaddr & PAGE_MASK
        if offset <= _WORD_FIT:
            self.perf.word_fast += 1
            if self.inject is None:
                entry = ctx.tlb.get((vaddr >> PAGE_SHIFT) * 4)
                if entry is not None:
                    pte, frame, table, tgen, ept, egen = entry
                    if table is ctx.page_table and tgen == table.gen \
                            and ept is ctx.ept \
                            and (ept is None or egen == ept.gen) \
                            and (pte.user or not ctx.user):
                        pkru = ctx.pkru
                        if pkru is None or not ctx.user \
                                or not (pkru >> (2 * pte.pkey)) & 0x1:
                            self.perf.tlb_hits += 1
                            return _WORD.unpack_from(frame, offset)[0]
            _, frame = self._access(ctx, vaddr, "r")
            return _WORD.unpack_from(frame, offset)[0]
        self.perf.word_slow += 1
        return _WORD.unpack(self.read(ctx, vaddr, WORD_SIZE, False))[0]

    def write_word(self, ctx: TranslationContext, vaddr: int, value: int,
                   charge: bool = True) -> None:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        offset = vaddr & PAGE_MASK
        if offset <= _WORD_FIT:
            self.perf.word_fast += 1
            if self.inject is None:
                entry = ctx.tlb.get((vaddr >> PAGE_SHIFT) * 4 + 1)
                if entry is not None:
                    pte, frame, table, tgen, ept, egen = entry
                    if table is ctx.page_table and tgen == table.gen \
                            and ept is ctx.ept \
                            and (ept is None or egen == ept.gen) \
                            and (pte.user or not ctx.user):
                        pkru = ctx.pkru
                        if pkru is None or not ctx.user \
                                or (pkru >> (2 * pte.pkey)) & 0x3 == 0:
                            self.perf.tlb_hits += 1
                            _UWORD.pack_into(frame, offset,
                                             value & 0xFFFFFFFFFFFFFFFF)
                            return
            _, frame = self._access(ctx, vaddr, "w")
            _UWORD.pack_into(frame, offset, value & 0xFFFFFFFFFFFFFFFF)
            return
        self.perf.word_slow += 1
        self.write(ctx, vaddr, _WORD.pack(_wrap64(value)), False)

    def read_frame(self, ctx: TranslationContext, vaddr: int) -> bytearray:
        """Checked read access returning the backing frame (for
        single-page structure reads that unpack in place, e.g. slice
        descriptors).  Open-codes the TLB-hit path like the word/byte
        helpers above — counters and enforcement are exactly
        :meth:`_access`'s."""
        if self.inject is None:
            entry = ctx.tlb.get((vaddr >> PAGE_SHIFT) * 4)
            if entry is not None:
                pte, frame, table, tgen, ept, egen = entry
                if table is ctx.page_table and tgen == table.gen \
                        and ept is ctx.ept \
                        and (ept is None or egen == ept.gen) \
                        and (pte.user or not ctx.user):
                    pkru = ctx.pkru
                    if pkru is None or not ctx.user \
                            or not (pkru >> (2 * pte.pkey)) & 0x1:
                        self.perf.tlb_hits += 1
                        return frame
        return self._access(ctx, vaddr, "r")[1]

    def read_byte(self, ctx: TranslationContext, vaddr: int,
                  charge: bool = True) -> int:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        if self.inject is None:
            entry = ctx.tlb.get((vaddr >> PAGE_SHIFT) * 4)
            if entry is not None:
                pte, frame, table, tgen, ept, egen = entry
                if table is ctx.page_table and tgen == table.gen \
                        and ept is ctx.ept \
                        and (ept is None or egen == ept.gen) \
                        and (pte.user or not ctx.user):
                    pkru = ctx.pkru
                    if pkru is None or not ctx.user \
                            or not (pkru >> (2 * pte.pkey)) & 0x1:
                        self.perf.tlb_hits += 1
                        return frame[vaddr & PAGE_MASK]
        _, frame = self._access(ctx, vaddr, "r")
        return frame[vaddr & PAGE_MASK]

    def write_byte(self, ctx: TranslationContext, vaddr: int, value: int,
                   charge: bool = True) -> None:
        if charge:
            self.clock.now_ns += COSTS.INSN_MEM
        if self.inject is None:
            entry = ctx.tlb.get((vaddr >> PAGE_SHIFT) * 4 + 1)
            if entry is not None:
                pte, frame, table, tgen, ept, egen = entry
                if table is ctx.page_table and tgen == table.gen \
                        and ept is ctx.ept \
                        and (ept is None or egen == ept.gen) \
                        and (pte.user or not ctx.user):
                    pkru = ctx.pkru
                    if pkru is None or not ctx.user \
                            or (pkru >> (2 * pte.pkey)) & 0x3 == 0:
                        self.perf.tlb_hits += 1
                        frame[vaddr & PAGE_MASK] = value & 0xFF
                        return
        _, frame = self._access(ctx, vaddr, "w")
        frame[vaddr & PAGE_MASK] = value & 0xFF

    def memcpy(self, ctx: TranslationContext, dst: int, src: int,
               size: int) -> None:
        """Bulk copy with both sides permission-checked."""
        self.clock.charge(COSTS.MEM_BYTE * size)
        data = self.read(ctx, src, size, charge=False)
        self.write(ctx, dst, data, charge=False)


def _wrap64(value: int) -> int:
    """Wrap a Python int into signed 64-bit two's-complement range."""
    value &= (1 << 64) - 1
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def wrap64(value: int) -> int:
    return _wrap64(value)
