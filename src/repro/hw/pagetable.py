"""Simulated page tables.

A :class:`PageTable` maps virtual page numbers to :class:`PTE` entries.
PTEs carry access rights, a user/supervisor bit, a presence bit, and —
as on MPK-capable x86 — a 4-bit protection key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.hw.pages import PAGE_SIZE, Perm, pages_spanned


@dataclass(frozen=True, slots=True)
class PTE:
    """A page-table entry (slotted: a machine holds ~100k of them)."""

    pfn: int
    perms: Perm
    pkey: int = 0
    present: bool = True
    user: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.pkey < 16:
            raise ConfigError(f"protection key {self.pkey} out of range [0,16)")


class PageTable:
    """A single-level simulated page table (vpn -> PTE).

    Real x86 tables are 4-level radix trees; a flat dict preserves the
    semantics (per-page translation + rights) that the reproduction needs
    while staying fast to clone, which LitterBox's VT-x backend does once
    per execution environment.
    """

    _next_id = 0

    def __init__(self, name: str = ""):
        PageTable._next_id += 1
        self.id = PageTable._next_id
        self.name = name or f"pt{self.id}"
        self._entries: dict[int, PTE] = {}
        #: Generation counter, bumped on every mutation.  The MMU's
        #: software TLB tags cached translations with the generation of
        #: the table they came from; any map/unmap/protect edit makes
        #: those entries stale without an explicit shootdown.
        self.gen = 0
        #: Optional SMP shootdown hook ``fn(table)``; the machine wires
        #: it on multi-core configurations so mutations charge the
        #: cross-core IPI/TLB-shootdown cost that the generation counter
        #: alone gets "for free".  Fired at most once per *public*
        #: mutation (a ``map_range`` of N pages is one invalidation
        #: batch, exactly as ``flush_tlb_mm_range`` is one IPI burst),
        #: and only when an *existing* translation changed — mapping
        #: fresh pages leaves nothing stale in any TLB, so, as on Linux,
        #: ``mmap`` costs no IPIs while ``munmap``/``mprotect`` do.
        self.shootdown = None
        self._in_batch = False
        self._batch_stale = False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def lookup(self, vpn: int) -> PTE | None:
        """Translate a virtual page number; ``None`` if unmapped."""
        return self._entries.get(vpn)

    def _shot(self, stale: bool = True) -> None:
        """Fire the SMP shootdown hook for one mutation.

        Inside a batch the staleness is only accumulated; the batch end
        fires at most one shootdown.  ``stale=False`` records a
        mutation that invalidated nothing (a fresh mapping)."""
        if self.shootdown is None:
            return
        if self._in_batch:
            self._batch_stale = self._batch_stale or stale
        elif stale:
            self.shootdown(self)

    def _end_batch(self) -> None:
        self._in_batch = False
        if self._batch_stale:
            self._batch_stale = False
            self._shot()

    def map_page(self, vpn: int, pte: PTE) -> None:
        stale = vpn in self._entries
        self._entries[vpn] = pte
        self.gen += 1
        self._shot(stale)

    def map_range(self, base: int, size: int, pfns: list[int], perms: Perm,
                  pkey: int = 0, user: bool = True, present: bool = True) -> None:
        """Map ``[base, base+size)`` onto consecutive entries of ``pfns``."""
        vpns = list(pages_spanned(base, size))
        if len(vpns) != len(pfns):
            raise ConfigError(
                f"map_range: {len(vpns)} pages but {len(pfns)} frames")
        self._in_batch = True
        try:
            for vpn, pfn in zip(vpns, pfns):
                self.map_page(vpn, PTE(pfn, perms, pkey, present, user))
        finally:
            self._end_batch()

    def unmap_page(self, vpn: int) -> None:
        stale = self._entries.pop(vpn, None) is not None
        self.gen += 1
        self._shot(stale)

    def unmap_range(self, base: int, size: int) -> None:
        self._in_batch = True
        try:
            for vpn in pages_spanned(base, size):
                self.unmap_page(vpn)
        finally:
            self._end_batch()

    def _update_range(self, base: int, size: int, **changes) -> int:
        """Apply field changes to every mapped PTE in a range.

        Returns the number of entries updated (the caller charges
        simulated time per updated entry).
        """
        updated = 0
        for vpn in pages_spanned(base, size):
            pte = self._entries.get(vpn)
            if pte is None:
                raise ConfigError(f"update of unmapped page vpn={vpn:#x}")
            self._entries[vpn] = replace(pte, **changes)
            updated += 1
        if updated:
            self.gen += 1
            self._shot()
        return updated

    def protect_range(self, base: int, size: int, perms: Perm) -> int:
        return self._update_range(base, size, perms=perms)

    def set_pkey_range(self, base: int, size: int, pkey: int) -> int:
        return self._update_range(base, size, pkey=pkey)

    def set_present_range(self, base: int, size: int, present: bool) -> int:
        return self._update_range(base, size, present=present)

    def revoke_all(self) -> int:
        """Clear the present bit of every mapping (quarantine hard-revoke
        of a per-environment table).  Returns the PTEs updated."""
        updated = 0
        for vpn, pte in self._entries.items():
            if pte.present:
                self._entries[vpn] = replace(pte, present=False)
                updated += 1
        if updated:
            self.gen += 1
            self._shot()
        return updated

    def present_vpns(self) -> frozenset[int]:
        """The vpns currently mapped present.  ``revoke_all`` destroys
        this information, so a revivable quarantine must snapshot it
        first (see ``Backend.unquarantine``)."""
        return frozenset(vpn for vpn, pte in self._entries.items()
                         if pte.present)

    def restore_present(self, vpns: frozenset[int]) -> int:
        """Re-set the present bit on every still-mapped vpn of a
        ``present_vpns`` snapshot (quarantine revival).  Returns the
        PTEs updated; bumps the generation so stale TLB entries die."""
        updated = 0
        for vpn in vpns:
            pte = self._entries.get(vpn)
            if pte is not None and not pte.present:
                self._entries[vpn] = replace(pte, present=True)
                updated += 1
        if updated:
            self.gen += 1
            self._shot()
        return updated

    def clone(self, name: str = "") -> "PageTable":
        """Copy this table; used to derive per-environment tables."""
        table = PageTable(name)
        table._entries = dict(self._entries)
        return table

    def mapped_vpns(self) -> list[int]:
        return sorted(self._entries)

    def translate_addr(self, vaddr: int) -> tuple[PTE | None, int]:
        """Return (pte, physical address) for ``vaddr``; pte may be None."""
        vpn, off = divmod(vaddr, PAGE_SIZE)
        pte = self._entries.get(vpn)
        if pte is None:
            return None, 0
        return pte, pte.pfn * PAGE_SIZE + off
