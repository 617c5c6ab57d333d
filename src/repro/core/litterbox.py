"""LitterBox: the language-independent enclosure enforcement framework.

Exposes the six-call API of §4.2 — ``Init``, ``Prolog``, ``Epilog``,
``FilterSyscall``, ``Transfer``, ``Execute`` — on top of a pluggable
hardware backend (Intel MPK or Intel VT-x, plus an unenforced baseline).

LitterBox's own state is split like the paper's: the *user* package is
reachable from every environment (its call gates are the ``LBCALL``
instructions, validated against the ``.verif`` section), while the
*super* state — environment descriptions, the verification list —
lives behind supervisor-only pages and in host-level (Python) state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.backends import Backend
from repro.core.clustering import Clustering, cluster_packages
from repro.core.enclosure import (
    Environment,
    compute_view,
    make_trusted_environment,
)
from repro.errors import (
    CallSiteFault,
    ConfigError,
    EscalationFault,
    Fault,
    QuarantinedFault,
)
from repro.hw.clock import SimClock
from repro.hw.cpu import CPU, StackSegment
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.pages import PAGE_SIZE, Perm, Section, check_disjoint
from repro.image.elf import ElfImage
from repro.isa.opcodes import Hook
from repro.os.kernel import Kernel
from repro.os.syscalls import SYS_MMAP

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Goroutine

STACK_SIZE = 16 * PAGE_SIZE
_ARENA_PERMS = Perm.RW


@dataclass
class ArenaRecord:
    """Ownership record for one transferred heap section."""

    section: Section
    owner: str


class LitterBox:
    """The enforcement framework instance for one loaded program."""

    def __init__(self, backend: Backend, kernel: Kernel, mmu: MMU,
                 clock: SimClock):
        self.backend = backend
        self.kernel = kernel
        self.mmu = mmu
        self.clock = clock
        self.perf = mmu.perf
        #: Transition-cache master switch (machine-wired).  The memo
        #: itself records *approved* switch decisions, which depend only
        #: on static post-Init state (the ``.verif`` list, environment
        #: views, syscall sets) — so one program-wide dict serves every
        #: goroutine, including the fresh handler goroutine each HTTP
        #: request spawns.  The per-goroutine half of a transition (the
        #: split-stack binding) is memoized separately in
        #: ``Goroutine.stacks``.  Prolog entries are keyed
        #: ``(encl_id, from_env_id, call_site) -> target env``; Epilog
        #: entries ``call_site -> True`` (disjoint key shapes).
        self.transition_cache_enabled = True
        self._trans_cache: dict = {}
        self.image: ElfImage | None = None
        self.trusted_env = make_trusted_environment()
        self.envs: dict[int, Environment] = {
            self.trusted_env.id: self.trusted_env}
        self.clustering: Clustering = Clustering()
        self.verif: dict[int, int] = {}
        self.arenas: list[ArenaRecord] = []
        #: Trusted translation context for runtime-privileged accesses
        #: (stack frame setup, GC-style metadata); set by the machine.
        self.trusted_ctx: TranslationContext | None = None
        #: Reusable stacks of exited goroutines, per environment (Go's
        #: runtime recycles goroutine stacks from a pool).
        self._stack_pools: dict[int, list[StackSegment]] = {}
        self.obs = None  # observer spine (repro.trace.Observers)
        #: Optional deterministic fault injector (repro.inject), wired
        #: by the machine; ``None`` keeps Prolog injection-free.
        self.injector = None
        #: Optional callback invalidating the interpreter's compiled
        #: JIT traces, wired by the machine; called wherever the other
        #: fast-path memos are revoked (quarantine trips).
        self.jit_flush = None
        #: Containment policy state (set by the machine from its config).
        self.fault_policy = "abort"
        self.quarantine_threshold = 1
        #: Quarantine registry: env id -> root-cause string.  Consulted
        #: on Prolog and Execute; empty (falsy) in the common case so
        #: the checks cost one truthiness test.
        self.quarantined: dict[int, str] = {}
        #: Contained-fault counts per environment (quarantine trip wire).
        self.fault_counts: dict[int, int] = {}
        self.initialized = False

    # ------------------------------------------------------------------ Init

    def init(self, image: ElfImage) -> None:
        """Validate the program description and create all environments.

        "LitterBox validates the configuration passed to Init by ensuring
        that sections are aligned and non-overlapping and that the memory
        views and authorized system calls can be satisfied" (§5.3).
        """
        if self.initialized:
            raise ConfigError("LitterBox.Init called twice for this program")
        all_sections = [s for pkg in image.graph for s in pkg.sections]
        check_disjoint(all_sections)
        self.image = image
        self.verif = dict(image.verif)

        for spec in image.enclosures:
            view = compute_view(image.graph, spec)
            env = Environment(
                id=spec.id,
                name=spec.name,
                view=view,
                syscalls=spec.policy.syscall_numbers,
                spec=spec,
            )
            if spec.id in self.envs:
                raise ConfigError(f"duplicate enclosure id {spec.id}")
            self.envs[spec.id] = env

        self.clustering = cluster_packages(
            image.graph.names(), list(self.envs.values()))
        self.backend.init(self)
        self.initialized = True

    def env(self, env_id: int) -> Environment:
        try:
            return self.envs[env_id]
        except KeyError:
            raise ConfigError(f"unknown environment id {env_id}") from None

    # -------------------------------------------------------------- switches

    def invalidate_transitions(self) -> None:
        """Drop every memoized transition (quarantine and
        contained-fault unwind call this)."""
        self._trans_cache.clear()

    def _verify_call_site(self, call_site: int, hook: Hook) -> None:
        """Check the LBCALL site against the `.verif` list (in super)."""
        registered = self.verif.get(call_site)
        if registered != int(hook):
            raise CallSiteFault(
                f"unverified LitterBox {hook.name} call-site", addr=call_site)

    def prolog(self, cpu: CPU, goroutine: "Goroutine", encl_id: int,
               call_site: int) -> None:
        """Enter an enclosure's execution environment (§4.2 Prolog)."""
        obs = self.obs
        if obs is not None:
            obs.prolog_begin(call_site)
        try:
            current = goroutine.env
            target = None
            cache = self._trans_cache if self.transition_cache_enabled \
                else None
            if cache is not None:
                target = cache.get((encl_id, current.id, call_site))
            if target is not None:
                # This exact transition (site, from-env, to-env) was
                # approved before and no invalidation happened since:
                # skip the call-site verification and the subset check.
                # Quarantine is re-checked below on every entry, and a
                # denied transition is never cached.
                self.perf.trans_hits += 1
            else:
                self._verify_call_site(call_site, Hook.PROLOG)
                target = self.env(encl_id)
                if not target.is_subset_of(current):
                    raise EscalationFault(
                        f"switch from {current.name!r} to less restrictive "
                        f"environment {target.name!r}").attribute(current)
                if cache is not None:
                    self.perf.trans_misses += 1
                    cache[(encl_id, current.id, call_site)] = target
            if self.quarantined and encl_id in self.quarantined:
                raise QuarantinedFault(
                    f"enclosure {target.name!r} is quarantined "
                    f"({self.quarantined[encl_id]})",
                    env_id=target.id, env_name=target.name)
            if self.injector is not None:
                self.injector.on_prolog(target)
            if obs is not None:
                obs.prolog(goroutine, current, target)
            goroutine.env_stack.append(
                (current, cpu.fp, cpu.sp, cpu.stack))
            stack = self._stack_for(goroutine, target)
            cpu.stack = stack
            cpu.fp = stack.base
            cpu.sp = stack.base + 16
            self._init_frame(stack.base)
            goroutine.env = target
            self.clock.tick("switches")
            self.backend.switch_to(cpu, target)
            if obs is not None:
                obs.prolog_entered(goroutine, target)
        finally:
            if obs is not None:
                obs.prolog_end()

    def epilog(self, cpu: CPU, goroutine: "Goroutine",
               call_site: int) -> None:
        """Return to the caller's environment (§4.2 Epilog)."""
        obs = self.obs
        if obs is not None:
            obs.epilog_begin(goroutine, call_site)
        try:
            cache = self._trans_cache if self.transition_cache_enabled \
                else None
            if cache is not None and call_site in cache:
                self.perf.trans_hits += 1
            else:
                self._verify_call_site(call_site, Hook.EPILOG)
                if cache is not None:
                    self.perf.trans_misses += 1
                    cache[call_site] = True
            if not goroutine.env_stack:
                raise Fault("exec", "Epilog without a matching Prolog")
            previous, fp, sp, stack = goroutine.env_stack.pop()
            left = goroutine.env
            goroutine.env = previous
            cpu.fp, cpu.sp, cpu.stack = fp, sp, stack
            self.clock.tick("switches")
            self.backend.switch_to(cpu, previous)
            if obs is not None:
                obs.epilog(goroutine, left, previous)
        finally:
            if obs is not None:
                obs.epilog_end(goroutine)

    def execute(self, cpu: CPU, goroutine: "Goroutine") -> None:
        """Scheduler hook: resume a goroutine in its own environment
        (§4.2 Execute).  Runtime-privileged; not an LBCALL site."""
        if self.quarantined and goroutine.env.id in self.quarantined:
            # A goroutine parked inside an enclosure that was since
            # quarantined must not resume in it.
            raise QuarantinedFault(
                f"resume into quarantined enclosure "
                f"{goroutine.env.name!r} "
                f"({self.quarantined[goroutine.env.id]})",
                env_id=goroutine.env.id, env_name=goroutine.env.name)
        self.backend.switch_to(cpu, goroutine.env)

    # ------------------------------------------------------------ containment

    def unwind_on_fault(self, cpu: CPU, goroutine: "Goroutine") -> int:
        """Epilog-on-fault: unwind a faulted goroutine to its outermost
        Prolog frame, restoring the base environment's stack, frame
        pointer, and hardware restrictions (PKRU / page table) exactly
        as a stack of Epilogs would.  Returns the frames unwound."""
        # A fault mid-switch may have left memoized transition state
        # that no longer reflects reality; drop all of it.
        self.invalidate_transitions()
        depth = len(goroutine.env_stack)
        if depth == 0:
            return 0
        base_env, fp, sp, stack = goroutine.env_stack[0]
        goroutine.env_stack.clear()
        goroutine.env = base_env
        cpu.fp, cpu.sp, cpu.stack = fp, sp, stack
        self.clock.tick("switches")
        self.backend.switch_to(cpu, base_env)
        if self.obs is not None:
            self.obs.unwind(base_env)
        return depth

    def note_contained_fault(self, fault: Fault) -> None:
        """Count a contained fault against its environment and trip the
        quarantine once the configured threshold is reached."""
        env_id = fault.env_id
        if env_id is None or env_id == self.trusted_env.id:
            return
        env = self.envs.get(env_id)
        if env is None or env_id in self.quarantined:
            return
        count = self.fault_counts.get(env_id, 0) + 1
        self.fault_counts[env_id] = count
        if self.fault_policy != "quarantine" or \
                count < self.quarantine_threshold:
            return
        self.quarantined[env_id] = f"{count} contained fault(s), " \
                                   f"last: fault[{fault.kind}]"
        self.backend.quarantine(env)
        # Revocation must also revoke every fast path: memoized
        # transitions and seccomp verdicts could otherwise replay
        # decisions made before the quarantine (the TLB is already
        # handled: MPK re-checks keys per access, VTX/LWC revoke_all
        # bumps the table generation).
        self.invalidate_transitions()
        self.kernel.flush_verdicts()
        # Compiled JIT traces are revoked with them: a trace compiled
        # before the quarantine must never be re-entered under the new
        # policy (the cache generation bump makes that structural).
        if self.jit_flush is not None:
            self.jit_flush()
        if self.obs is not None:
            self.obs.quarantine(env, fault, count)

    def revive(self, env_id: int) -> bool:
        """Supervised revival of a quarantined environment (the tenant
        lifecycle manager's restart path).  Undoes the hardware
        revocation and clears the trip-wire count; returns ``False`` if
        the environment was not quarantined.

        The same fast-path revocations as the quarantine itself apply:
        memoized transitions, seccomp verdicts, and compiled JIT traces
        may all encode "env X is quarantined" decisions and must not
        replay them after the revival.
        """
        if env_id not in self.quarantined:
            return False
        env = self.envs.get(env_id)
        if env is None:
            return False
        del self.quarantined[env_id]
        self.fault_counts[env_id] = 0
        self.backend.unquarantine(env)
        self.invalidate_transitions()
        self.kernel.flush_verdicts()
        if self.jit_flush is not None:
            self.jit_flush()
        if self.obs is not None:
            self.obs.revive(env)
        return True

    # -------------------------------------------------------------- transfer

    def transfer(self, base: int, size: int, to_pkg: str) -> None:
        """Dynamically repartition heap memory between arenas (§4.2)."""
        obs = self.obs
        if obs is not None:
            obs.transfer_begin(to_pkg, base, size)
        try:
            if self.image is not None and to_pkg not in self.image.graph:
                raise ConfigError(f"transfer to unknown package {to_pkg!r}")
            section = Section(f"{to_pkg}.arena+{base:#x}", base, size,
                              perms=_ARENA_PERMS)
            self.clock.tick("transfers")
            self.backend.transfer(section, to_pkg)
            self.arenas.append(ArenaRecord(section, to_pkg))
            if obs is not None:
                obs.transfer(to_pkg, size)
        finally:
            if obs is not None:
                obs.transfer_end()

    # ----------------------------------------------------------------- stacks

    def _stack_for(self, goroutine: "Goroutine",
                   env: Environment) -> StackSegment:
        """Per-(goroutine, environment) split stacks: frames preceding the
        enclosure call stay in the caller's segment, which is not part of
        the enclosure's view."""
        stack = goroutine.stacks.get(env.id)
        if stack is None:
            pool = self._stack_pools.get(env.id)
            if pool:
                # Reuse a recycled stack: already tagged/mapped for this
                # environment, so no mmap and no re-tagging is needed.
                stack = pool.pop()
            else:
                base = self.kernel.syscall(
                    SYS_MMAP, (0, STACK_SIZE, 3, 0), None, pkru=0)
                if base < 0:
                    raise ConfigError("stack mmap failed")
                stack = StackSegment(base, STACK_SIZE)
                section = Section(f"stack.env{env.id}+{base:#x}", base,
                                  STACK_SIZE, _ARENA_PERMS)
                self.backend.prepare_stack(env, section)
            goroutine.stacks[env.id] = stack
        return stack

    def release_stacks(self, goroutine: "Goroutine") -> None:
        """Return an exited goroutine's stacks to the per-env pools."""
        for env_id, stack in goroutine.stacks.items():
            self._stack_pools.setdefault(env_id, []).append(stack)
        goroutine.stacks.clear()

    def allocate_initial_stack(self, goroutine: "Goroutine") -> StackSegment:
        """Create the trusted-environment stack of a new goroutine."""
        stack = self._stack_for(goroutine, goroutine.env)
        self._init_frame(stack.base)
        return stack

    _ZERO_FRAME = bytes(16)

    def _init_frame(self, base: int) -> None:
        if self.trusted_ctx is None:
            raise ConfigError("LitterBox has no trusted context wired")
        # One 16-byte store (stacks are page-aligned, so the root frame's
        # saved-fp/saved-pc pair never spans pages): a single translation
        # instead of two.
        self.mmu.write(self.trusted_ctx, base, self._ZERO_FRAME, charge=False)

    # ------------------------------------------------------------ accounting

    def arena_of(self, pkg: str) -> list[Section]:
        return [rec.section for rec in self.arenas if rec.owner == pkg]
