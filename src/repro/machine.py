"""The assembled machine: hardware + OS + LitterBox + runtime + program.

A :class:`Machine` loads one linked :class:`~repro.image.elf.ElfImage`
and runs it under one of the paper's three configurations:

* ``baseline`` — vanilla closures, no enforcement;
* ``mpk``      — LitterBox over Intel MPK (``LBMPK``);
* ``vtx``      — LitterBox over Intel VT-x / KVM (``LBVTX``);
* ``lwc``      — LitterBox over light-weight contexts, the §8
  hardware-agnostic alternative backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backends import BaselineBackend
from repro.core.enclosure import LITTERBOX_SUPER
from repro.core.lb_lwc import LWCBackend
from repro.core.lb_mpk import MPKBackend
from repro.core.lb_vtx import VTXBackend
from repro.core.litterbox import LitterBox
from repro.errors import ConfigError, Fault, require
from repro.hw.clock import COSTS, SimClock
from repro.hw.cpu import CPU
from repro.hw.mmu import MMU, TranslationContext
from repro.hw.pages import PAGE_SIZE
from repro.hw.pagetable import PageTable
from repro.hw.physmem import PhysicalMemory
from repro.image.elf import ElfImage
from repro.inject import FaultInjector
from repro.isa.interp import Interpreter
from repro.metrics import EnforcementMetrics, MetricsRegistry
from repro.perf import PerfStats
from repro.profiler import Profiler
from repro.isa.opcodes import Hook
from repro.os.kernel import Kernel
from repro.os.kvm import KVMDevice
from repro.os.seccomp import ArgRule
from repro.runtime.allocator import Allocator
from repro.runtime.channels import ChannelTable
from repro.runtime.runtime import Runtime, read_string
from repro.runtime.scheduler import RunResult, Scheduler
from repro.trace import Observers, Tracer


@dataclass
class MachineConfig:
    backend: str = "baseline"          # a name in BACKENDS
    #: Simulated CPU cores.  ``1`` is the historical single-core
    #: machine, bit-identical with every prior release; ``N > 1``
    #: builds N CPUs (each with a private TLB and PKRU) under one
    #: SimClock with a deterministic per-core virtual-time interleave,
    #: and turns on honest cross-core costs: every page-table or PKRU
    #: revocation charges TLB-shootdown IPIs against the remote cores.
    cores: int = 1
    virtualize_keys: bool = False      # libmpk-style ablation (LBMPK)
    arg_rules: list[ArgRule] | None = None  # §6.5 sysfilter extension
    trace: bool = False                # enforcement-event tracer
    #: What a fault inside an enclosure does: "abort" (paper §2.2),
    #: "kill-goroutine" (only the offending goroutine dies), or
    #: "quarantine" (kill + trip the enclosure's quarantine breaker).
    fault_policy: str = "abort"
    #: Fault-injection spec (see :mod:`repro.inject`); None disables.
    inject: str | None = None
    inject_seed: int = 0
    #: Contained faults an enclosure absorbs before quarantine trips
    #: (only meaningful under fault_policy="quarantine").
    quarantine_threshold: int = 1
    #: Supervised restarts per killed goroutine (0 = never respawn).
    restart_limit: int = 0
    #: Per-enclosure resource quotas (see :mod:`repro.quota`): a spec
    #: string like ``"*:steps=450000,spans=16"`` or a pre-parsed target
    #: map.  ``None`` (the default) leaves every metering hook a single
    #: ``is None`` test, keeping sim-ns bit-identical.
    quotas: str | dict | None = None
    # Wall-clock fast-path kill-switches (PR 4).  All three are
    # invisible to the cost model; they exist so the bit-identity test
    # suite can diff each fast path against its slow path.
    #: Load-time superinstruction peephole in the interpreter.
    fuse_superinstructions: bool = True
    #: LitterBox per-(goroutine, env) Prolog transition memo.
    transition_cache: bool = True
    #: Kernel (pkru, nr) -> seccomp verdict memo.
    verdict_cache: bool = True
    # Trace-JIT (PR 6): compile hot straight-line regions to generated
    # Python (see repro/isa/jit.py).  Wall-clock only, like the fast
    # paths above: every simulated value is bit-identical with the JIT
    # on or off, and jit=False restores pure interpretation exactly.
    jit: bool = True
    #: Interpreted entries of a region before it is compiled.
    jit_threshold: int = 8
    # Observers beside ``trace``: all subscribe to the machine's observer
    # spine and charge no simulated cost, so sim-ns is bit-identical
    # with any of them on or off.
    #: Prometheus-style metrics registry over every enforcement point.
    metrics: bool = False
    #: Deterministic sim-time sampling profiler.
    profile: bool = False
    #: Sampling period of the profiler, in simulated nanoseconds.
    profile_period_ns: float = 1000.0
    #: Request-scoped distributed tracing (repro.spans).
    spans: bool = False
    #: Seed for deterministic trace-id derivation (the load generator
    #: overrides this with its own seed per level).
    span_seed: int = 0
    #: Tail-sampling keep fraction for *healthy* traces; anomalous
    #: traces (faulted/shed/refused/reset/SLO-exceeded) always survive.
    span_sample: float = 1.0
    #: SLO latency threshold (sim ns) above which a trace is anomalous.
    span_slo_ns: float = 1_000_000.0
    #: Flight-recorder ring depth: last-N events kept per core.
    span_ring: int = 32

    def __post_init__(self) -> None:
        """Reject out-of-range settings at the boundary with a named
        :class:`ConfigError`, not a traceback deep inside a run."""
        for name, value, choices in (
                ("backend", self.backend, BACKENDS),
                ("fault_policy", self.fault_policy, FAULT_POLICIES)):
            if value not in choices:
                raise ConfigError(f"unknown {name} {value!r} "
                                  f"(choose from {', '.join(choices)})")
        require(
            ("cores", self.cores, self.cores >= 1, ">= 1"),
            ("profile_period_ns", self.profile_period_ns,
             self.profile_period_ns > 0, "> 0"),
            ("span_sample", self.span_sample,
             0 <= self.span_sample <= 1, "within [0, 1]"),
            ("span_slo_ns", self.span_slo_ns, self.span_slo_ns > 0, "> 0"),
            ("span_ring", self.span_ring, self.span_ring >= 1, ">= 1"))


FAULT_POLICIES = ("abort", "kill-goroutine", "quarantine")

#: Backend name -> constructor ``fn(config, kernel)``: the one place a
#: backend is named.  ``MachineConfig`` and the CLI choose from it.
BACKENDS = {
    "baseline": lambda config, kernel: BaselineBackend(),
    "mpk": lambda config, kernel: MPKBackend(
        virtualize_keys=config.virtualize_keys, arg_rules=config.arg_rules),
    "vtx": lambda config, kernel: VTXBackend(
        KVMDevice(kernel, kernel.clock), arg_rules=config.arg_rules),
    "lwc": lambda config, kernel: LWCBackend(),
}


class Machine:
    """One simulated host running one program."""

    def __init__(self, image: ElfImage,
                 config: MachineConfig | str = "baseline"):
        if isinstance(config, str):
            config = MachineConfig(backend=config)
        self.config = config
        self.image = image
        self.clock = SimClock()
        #: Wall-clock observability counters (TLB, fetch, opcodes);
        #: shared by the MMU and interpreter, independent of SimClock.
        self.perf = PerfStats()
        #: The observers, each ``None`` unless its config flag is set.
        #: They subscribe to one spine, ``self.obs`` (wired below).
        self.tracer = (Tracer(self.clock, backend=config.backend,
                              cores=config.cores)
                       if config.trace else None)
        self.metrics = None
        self.metrics_registry = None
        if config.metrics:
            self.metrics_registry = MetricsRegistry(
                const_labels={"backend": config.backend})
            self.metrics = EnforcementMetrics(self.metrics_registry)
            self.metrics_registry.gauge(
                "sim_time_ns",
                "Simulated nanoseconds elapsed on this machine's clock."
            ).set_function(lambda: self.clock.now_ns)
            self.metrics_registry.add_collector(
                lambda: self.metrics.sync_jit(self.perf))
        self.profiler = (Profiler(self.clock, config.profile_period_ns,
                                  backend=config.backend)
                         if config.profile else None)
        self.physmem = PhysicalMemory()
        self.mmu = MMU(self.physmem, self.clock, perf=self.perf)
        self.kernel = Kernel(self.physmem, self.mmu, self.clock)
        self.host_table = PageTable("host")
        self.kernel.host_table = self.host_table
        self.interp = Interpreter(self.mmu, self.clock,
                                  fusion=config.fuse_superinstructions,
                                  jit=config.jit,
                                  jit_threshold=config.jit_threshold)
        self.interp.profiler = self.profiler
        self.cpu = CPU(mmu=self.mmu, clock=self.clock)
        self.fault: Fault | None = None

        self._load_image()
        if self.profiler is not None:
            self.profiler.load_image(image)
            # The executing core's pc (core 0's on a one-core machine).
            self.profiler.pc_provider = (
                lambda: self.scheduler.current_core.cpu.pc)

        backend = BACKENDS[config.backend](config, self.kernel)
        self.backend = backend
        self.litterbox = LitterBox(backend, self.kernel, self.mmu, self.clock)
        self.litterbox.jit_flush = self.interp.flush_jit
        self.litterbox.trusted_ctx = TranslationContext(
            page_table=self.host_table, pkru=None)

        self.cpu.ctx = TranslationContext(page_table=self.host_table,
                                          pkru=backend.boot_pkru)
        self.litterbox.init(image)
        backend.boot(self.cpu.ctx)

        # Further cores (SMP): each gets its own translation context —
        # a private software TLB and PKRU cell — starting from core 0's
        # boot state.  Core 0's CPU object and context are exactly the
        # historical single-core ones.
        self.cpus = [self.cpu]
        for _ in range(1, config.cores):
            cpu = CPU(mmu=self.mmu, clock=self.clock)
            cpu.ctx = TranslationContext(
                page_table=self.cpu.ctx.page_table,
                pkru=self.cpu.ctx.pkru,
                ept=self.cpu.ctx.ept)
            self.cpus.append(cpu)

        # Runtime services.
        self.pkg_names = sorted(image.graph.names())
        self.allocator = Allocator(self.litterbox)
        self.scheduler = Scheduler(self.cpu, self.interp, self.litterbox,
                                   cpus=self.cpus)
        self.channels = ChannelTable(self.scheduler.wake)
        self.spans = None
        if config.spans:
            from repro.spans import SpanRecorder
            self.spans = SpanRecorder(self.clock, seed=config.span_seed,
                                      sample=config.span_sample,
                                      slo_ns=config.span_slo_ns,
                                      cores=config.cores,
                                      ring=config.span_ring)
            self.spans.scheduler = self.scheduler
            self.spans.net = self.kernel.net
        self.runtime = Runtime(self.mmu, self.allocator, self.scheduler,
                               self.channels, self.pkg_names)
        if self.metrics_registry is not None:
            # The in-sim /metrics route must not run collectors: the
            # JIT counters are wall-clock-only, and the response body's
            # length is charged simulated time — including them would
            # break jit on/off bit-identity.
            self.runtime.metrics_renderer = (
                lambda: self.metrics_registry.render_text(collect=False))
        self.kernel.net.waker = self.scheduler.wake

        # Fast-path kill-switches (wall-clock only; defaults stay on).
        self.litterbox.transition_cache_enabled = config.transition_cache
        if not config.verdict_cache:
            self.kernel.verdict_cache = None

        # Fault containment + injection wiring.
        self.litterbox.fault_policy = config.fault_policy
        self.litterbox.quarantine_threshold = config.quarantine_threshold
        self.scheduler.fault_policy = config.fault_policy
        self.scheduler.restart_limit = config.restart_limit
        self.scheduler.reclaim = self.kernel.reclaim_goroutine
        self.kernel.current_gid = lambda: (
            self.scheduler.current.id
            if self.scheduler.current is not None else 0)
        # Per-enclosure resource quotas (multi-tenant platform).
        self.quota = None
        if config.quotas:
            from repro.quota import QuotaTable
            quota = QuotaTable(config.quotas)
            self.quota = quota
            self.scheduler.quota = quota
            self.allocator.quota = quota
            self.kernel.quota = quota
            self.kernel.quota_env = lambda: (
                self.scheduler.current.env
                if self.scheduler.current is not None else None)

        # The observer spine; ``None`` while every observer is off.
        subscribers = [observer for observer in (
            self.tracer, self.metrics, self.profiler, self.spans)
            if observer is not None]
        self.obs = Observers(subscribers) if subscribers else None
        for part in (self, self.mmu, self.kernel, self.kernel.net,
                     self.litterbox, self.scheduler, self.channels,
                     self.allocator, self.quota, *backend.observed_parts()):
            if part is not None:
                part.obs = self.obs

        self.injector = None
        if config.inject:
            injector = FaultInjector(config.inject, seed=config.inject_seed)
            injector.env_provider = lambda: (
                self.scheduler.current.env.name
                if self.scheduler.current is not None else "trusted")
            self.injector = injector
            self.mmu.inject = injector
            self.kernel.inject = injector
            self.litterbox.injector = injector

        for cpu in self.cpus:
            cpu.syscall_handler = lambda cpu, nr, args: \
                self.backend.syscall(cpu, nr, args)
            cpu.rtcall_handler = self.runtime.dispatch
            cpu.lbcall_handler = self._lbcall

        if config.cores > 1:
            self._wire_smp()

    # ------------------------------------------------------------------ SMP

    def _wire_smp(self) -> None:
        """Enable the honest cross-core cost model (``cores > 1`` only).

        Wired *after* boot so image loading and environment construction
        stay free of IPIs, exactly as on one core: a core that has never
        executed holds no stale TLB entries worth shooting down.  From
        here on, any mutation of a page table that a remote core has
        installed (as its root or its EPT) interrupts that core —
        ``mm_cpumask`` targeting, so transfers to an enclosure only IPI
        cores actually running with that table.  The machine's *current*
        core is the initiator and is never IPI'd; mutations arriving
        from outside any slice (tenant eviction between drives) attribute
        to the last core scheduled, a documented modeling simplification.
        """
        self._shootdown_ns = 0.0
        tables: dict[int, PageTable] = {id(self.host_table): self.host_table}
        for env in self.litterbox.envs.values():
            if env.table is not None:
                tables[id(env.table)] = env.table
        for cpu in self.cpus:
            if cpu.ctx.page_table is not None:
                tables[id(cpu.ctx.page_table)] = cpu.ctx.page_table
            if cpu.ctx.ept is not None:
                tables[id(cpu.ctx.ept)] = cpu.ctx.ept
        for table in tables.values():
            table.shootdown = self._table_shootdown
        # MPK quarantine revokes by rewriting a PKRU value — register
        # state, not page-table state — so it needs an explicit flush
        # of every remote core.
        self.backend.remote_flush = self._remote_flush
        if self.metrics_registry is not None:
            registry = self.metrics_registry
            registry.gauge(
                "tlb_shootdowns_total",
                "Cross-core TLB shootdown rounds issued (SMP only)."
            ).set_function(lambda: float(self.clock.count("tlb_shootdowns")))
            registry.gauge(
                "tlb_shootdown_ipis_total",
                "Remote cores interrupted across all shootdown rounds."
            ).set_function(lambda: float(self.clock.count("ipis")))
            registry.gauge(
                "tlb_shootdown_ns_total",
                "Simulated ns the initiating cores spent on shootdowns."
            ).set_function(lambda: self._shootdown_ns)
            core_time = registry.gauge(
                "core_time_ns", "Per-core virtual time frontier.",
                labelnames=("core",))

            def _collect_core_time() -> None:
                for core in self.scheduler.cores:
                    core_time.set(core.vtime, core=str(core.id))

            registry.add_collector(_collect_core_time)

    def _table_shootdown(self, table: PageTable) -> None:
        """A mutated translation: IPI every remote core using ``table``."""
        remotes = [core for core in self.scheduler.cores
                   if core is not self.scheduler.current_core
                   and (core.ctx.page_table is table or core.ctx.ept is table)]
        if remotes:
            self._charge_shootdown(remotes, f"shootdown:{table.name}")

    def _remote_flush(self) -> None:
        """A revoked PKRU value: every remote core must resync."""
        remotes = [core for core in self.scheduler.cores
                   if core is not self.scheduler.current_core]
        if remotes:
            self._charge_shootdown(remotes, "shootdown:pkru")

    def _charge_shootdown(self, remotes: list, name: str) -> None:
        """Charge one IPI burst: the initiator pays the send plus the
        wait for the last acknowledgement; each remote core's virtual
        time absorbs its handler at the delivery instant."""
        clock = self.clock
        t0 = clock.now_ns
        cost = len(remotes) * (COSTS.IPI + COSTS.TLB_SHOOTDOWN)
        if self.obs is not None:
            self.obs.shootdown(name, cost, len(remotes))
        clock.tick("tlb_shootdowns", cost)
        clock.counters["ipis"] = (clock.counters.get("ipis", 0)
                                  + len(remotes))
        for core in remotes:
            core.vtime = max(core.vtime, t0) + COSTS.TLB_SHOOTDOWN
        self._shootdown_ns += cost

    # ------------------------------------------------------------------ setup

    def _load_image(self) -> None:
        """Map every linked section and copy its initial contents."""
        for load in self.image.sections:
            section = load.section
            pfns = []
            for _ in range(section.num_pages):
                pfns.append(self.physmem.alloc_frame())
            user = load.owner != LITTERBOX_SUPER
            self.host_table.map_range(section.base, section.size, pfns,
                                      section.perms, user=user)
            self.physmem.write(pfns[0] * PAGE_SIZE, b"")  # touch
            # Write contents page by page (frames may be discontiguous).
            for index, pfn in enumerate(pfns):
                chunk = load.data[index * PAGE_SIZE:(index + 1) * PAGE_SIZE]
                self.physmem.write(pfn * PAGE_SIZE, chunk)
        for addr, instrs in self.image.code_registry.items():
            self.interp.register_code(addr, instrs)

    # ------------------------------------------------------------------ LBCALL

    def _lbcall(self, cpu: CPU, hook: int, args: tuple[int, ...]) -> int:
        goroutine = self.scheduler.current
        if goroutine is None:
            raise Fault("exec", "LBCALL outside a goroutine")
        if hook == Hook.PROLOG:
            self.litterbox.prolog(cpu, goroutine, args[0], call_site=cpu.pc)
            return 0
        if hook == Hook.EPILOG:
            self.litterbox.epilog(cpu, goroutine, call_site=cpu.pc)
            return 0
        raise Fault("exec", f"LBCALL with unexpected hook {hook}")

    # ------------------------------------------------------------------ drive

    def run(self, entry_symbol: str | None = None,
            max_steps: int = 200_000_000) -> RunResult:
        """Run the program's main goroutine to completion.

        ``machine.perf`` is reset at entry so ``--stats`` and the
        benchmarks report the counters of *this* run only — back-to-back
        ``run()`` calls in one process no longer accumulate.
        (:meth:`resume` continues the current run and keeps counting.)
        """
        self.perf.begin_run()
        entry = (self.image.symbols[entry_symbol]
                 if entry_symbol else self.image.entry)
        self.scheduler.spawn(entry, env=self.litterbox.trusted_env)
        return self._finish(self.scheduler.run(max_total_steps=max_steps))

    def resume(self, max_steps: int = 200_000_000) -> RunResult:
        """Continue driving goroutines (servers) after injecting events."""
        return self._finish(self.scheduler.run(
            max_total_steps=max_steps, stop_when_main_exits=False))

    def _finish(self, result: RunResult) -> RunResult:
        if self.obs is not None:
            self.obs.finish()
        if result.status == "faulted":
            self.fault = result.fault
            self.backend.aborted_fault()
            if self.obs is not None:
                self.obs.violation(
                    "abort", fault=str(result.fault),
                    fault_kind=getattr(result.fault, "kind", ""))
        elif result.status == "killed":
            # Contained: the main goroutine died but the machine did not
            # abort; the backend already charged the containment cost.
            self.fault = result.fault
        result.goroutines = self.scheduler.exit_summary()
        return result

    # ------------------------------------------------------------------ tools

    def symbol(self, name: str) -> int:
        return self.image.symbols[name]

    def read_global(self, symbol: str) -> int:
        return self.mmu.read_word(self.litterbox.trusted_ctx,
                                  self.symbol(symbol), charge=False)

    def write_global(self, symbol: str, value: int) -> None:
        self.mmu.write_word(self.litterbox.trusted_ctx,
                            self.symbol(symbol), value, charge=False)

    def read_cstr(self, addr: int) -> bytes:
        return read_string(self.mmu, self.litterbox.trusted_ctx, addr)

    @property
    def stdout(self) -> bytes:
        return bytes(self.kernel.stdout)

    def fault_trace(self) -> str:
        """LitterBox's root-cause trace for an aborted program."""
        if self.fault is None:
            return ""
        trace = f"litterbox: program aborted: {self.fault}"
        if self.fault.env_name or self.fault.pkg:
            trace += f" [{self.fault.origin()}]"
        return trace

    def containment_report(self) -> dict:
        """Everything the run's fault containment did, in one dict."""
        lb = self.litterbox
        report = {
            "fault_policy": self.config.fault_policy,
            "contained": [
                {"kind": f.kind, "detail": f.detail, "origin": f.origin(),
                 "core": getattr(f, "core", 0)}
                for f in self.scheduler.contained
            ],
            "quarantined": {
                lb.envs[eid].name if eid in lb.envs else str(eid): why
                for eid, why in lb.quarantined.items()
            },
            "goroutines": self.scheduler.exit_summary(),
        }
        if self.injector is not None:
            report["injector"] = self.injector.report()
        if self.quota is not None:
            report["quota"] = self.quota.snapshot()
        if self.spans is not None and self.spans.fault_dumps:
            # The per-core flight recorder's black-box snapshots, one
            # per contained fault.  Keyed in only when non-empty so a
            # clean run's report is byte-identical to a spans-off run.
            report["flight_recorder"] = self.spans.flight_recorder()
        return report
