"""The benchmark's three workloads, driven through public entry points.

Each workload has the same shape:

* ``setup(seed)`` imports ``repro``, compiles and links the guest
  images and boots the first machines — everything up to the first
  arrival.  ``repro`` is imported here, not at module level, so the
  import is part of the timed set-up.
* ``episode(state)`` runs the measured work once on freshly booted
  machines.  Only the serving (or filtering) part is timed; booting the
  next episode's machines is not.  Episodes of one run use the same
  inputs, so their simulated values must agree bit for bit.
* ``checks(state, episode)`` runs the correctness checks that need
  extra simulation: a short JIT-off replay that must reproduce the
  JIT-on simulated values exactly, and the reference run behind
  ``sim_overhead_x``.  It returns the failures and the extra metrics.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from quantiles import highest_supported, quantile


@dataclass
class Episode:
    """One measured run of a workload's work."""

    #: Host seconds of the timed (serving / filtering) part.
    wall_s: float
    #: Operations the episode attempted: requests, or images.
    ops: int
    #: Operations that failed (see each workload for what counts).
    failed: int
    #: Simulated results; identical for every episode of one seed.
    sim: dict
    #: Layer counters accumulated over the timed part.
    counters: dict
    #: Check failures found while running the episode.
    failures: list = field(default_factory=list)


# -- counters -----------------------------------------------------------------

def _counters(machine) -> dict:
    """Public counters of one machine (``machine.perf``, the clock's
    named counters, the scheduler's steal count, the injector report)."""
    perf = machine.perf
    clock = machine.clock.counters
    report = machine.containment_report()
    return {
        "instructions": perf.instructions,
        "fused": perf.fused_instructions,
        "jit_insns": perf.jit_insns,
        "jit_entries": perf.jit_trace_executions,
        "jit_deopts": sum(perf.jit_deopts.values()),
        "tlb_hits": perf.tlb_hits,
        "tlb_misses": perf.tlb_misses,
        "tlb_flushes": perf.tlb_flushes,
        "trans_hits": perf.trans_hits,
        "trans_misses": perf.trans_misses,
        "verdict_hits": perf.verdict_hits,
        "verdict_misses": perf.verdict_misses,
        "shootdowns": clock.get("tlb_shootdowns", 0),
        "ipis": clock.get("ipis", 0),
        "switches": clock.get("switches", 0),
        "transfers": clock.get("transfers", 0),
        "syscalls": clock.get("syscalls", 0),
        "vm_exits": clock.get("vm_exits", 0),
        "steals": machine.scheduler.steals,
        "fired": report.get("injector", {}).get("total_fired", 0),
    }


def _diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _add(total: dict, part: dict) -> dict:
    return {key: total.get(key, 0) + part[key] for key in part}


def _fingerprint(machine) -> tuple:
    """Every simulated value of a machine that must not depend on the
    JIT or on host speed: simulated time, named counters, and the
    per-opcode instruction counts."""
    return (machine.clock.now_ns, sorted(machine.clock.counters.items()),
            tuple(machine.perf.op_counts))


def _latency_metrics(latencies_ns: list[float]) -> dict:
    lats = sorted(latencies_ns)
    return {
        "sim_mean_us": _mean(lats) / 1e3,
        "sim_p50_us": quantile(lats, "0.5") / 1e3,
        "sim_p99_us": quantile(lats, "0.99") / 1e3,
        "n": len(lats),
        "highest": highest_supported(len(lats)),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


# -- serve --------------------------------------------------------------------

class Serve:
    """Open-loop Poisson arrivals against the keep-alive async HTTP
    server on a 4-core mpk machine, well below the knee.

    The first ``WARMUP`` arrivals of the seed's schedule warm the server
    up (connections, goroutine stacks, heap spans) as part of set-up;
    latencies are measured over the ``REQUESTS`` arrivals after them.
    Without the warm-up, the exact p99 is set by the first ~20 requests
    of the run; at 120 krps the tail is set by queueing bursts.  Either
    way it moves by a quarter or more from seed to seed."""

    name = "serve"
    unit = "request"
    BACKEND = "mpk"
    CORES = 4
    POOL = 8
    RATE_RPS = 60_000.0
    WARMUP = 100
    REQUESTS = 1500
    REPLAY = 200

    def describe(self) -> str:
        return (f"open loop, Poisson {self.RATE_RPS:.0f} rps, "
                f"{self.WARMUP} warm-up + {self.REQUESTS} requests, async "
                f"HTTP server on {self.CORES}-core {self.BACKEND}, "
                f"pool {self.POOL}")

    def _serve(self, machine, arrivals):
        """``loadgen.run_level``'s serving half, on a booted machine."""
        from repro.workloads import asynchttp, loadgen
        ports = [asynchttp.PORT + i for i in range(self.CORES)]
        gen = loadgen.OpenLoopLoadGen(machine, arrivals,
                                      max(self.POOL, self.CORES),
                                      ports=ports)
        return gen.run()

    def _boot(self, state: dict, backend: str = BACKEND, jit: bool = True):
        """``loadgen.run_level``'s boot half, then the warm-up traffic."""
        from repro.machine import MachineConfig
        from repro.workloads import asynchttp
        config = MachineConfig(backend=backend, metrics=True,
                               cores=self.CORES, jit=jit)
        machine = asynchttp.run_async_server(backend, config=config,
                                             workers=self.CORES)
        self._serve(machine, state["warmup"])
        return machine

    def setup(self, seed: int) -> dict:
        from repro.workloads import loadgen
        arrivals = loadgen.poisson_arrivals(
            self.RATE_RPS, self.WARMUP + self.REQUESTS, seed)
        last_warm = arrivals[self.WARMUP - 1]
        state = {"warmup": arrivals[:self.WARMUP],
                 "arrivals": [t - last_warm
                              for t in arrivals[self.WARMUP:]]}
        state["booted"] = self._boot(state)
        return state

    def episode(self, state: dict) -> Episode:
        machine = state.pop("booted", None) or self._boot(state)
        before = _counters(machine)
        start = time.perf_counter()
        result = self._serve(machine, state["arrivals"])
        wall = time.perf_counter() - start
        failures = []
        outcomes = result.ok + result.shed + result.refused + result.reset
        if outcomes != result.requests:
            failures.append(f"serve: ok+shed+refused+reset = {outcomes}, "
                            f"requests = {result.requests}")
        sim = {
            "latencies_ns": result.latencies_ns,
            "outcomes": (result.ok, result.shed, result.refused,
                         result.reset),
            "duration_ns": result.duration_ns,
            "goodput_rps": result.goodput_rps,
            "machine": _fingerprint(machine),
        }
        return Episode(wall, result.requests, result.requests - result.ok,
                       sim, _diff(_counters(machine), before), failures)

    def _replay(self, state: dict, backend: str = BACKEND, jit=True):
        machine = self._boot(state, backend, jit)
        result = self._serve(machine, state["arrivals"][:self.REPLAY])
        return result.latencies_ns, _fingerprint(machine)

    def checks(self, state: dict, episode: Episode) -> tuple[list, dict]:
        failures = []
        on = self._replay(state)
        if on != self._replay(state, jit=False):
            failures.append(f"serve: JIT-off replay of warm-up and the "
                            f"first {self.REPLAY} requests diverges")
        base, _ = self._replay(state, "baseline")
        return failures, {"sim_overhead_x": _mean(on[0]) / _mean(base)}

    def sim_metrics(self, episode: Episode, extra: dict) -> dict:
        sim = episode.sim
        out = _latency_metrics(sim["latencies_ns"])
        out.update(
            sim_goodput_rps=sim["goodput_rps"],
            sim_ms=sim["duration_ns"] / 1e6,
            sim_overhead_x=extra["sim_overhead_x"],
            overhead_note=(f"mean latency of the first {self.REPLAY} "
                           f"requests after warm-up, {self.BACKEND} over "
                           f"the baseline backend"),
        )
        return out


# -- tenants ------------------------------------------------------------------

class Tenants:
    """The containment study at a reduced roster: a no-injection
    all-healthy leg, then the mixed-roster leg with injected faults and
    quotas, on identical Poisson arrivals, 1-core vtx.

    At 8 krps the exact healthy p99 is set by the dozen requests that
    queue behind the hog and fault windows, and moves by 40% from seed
    to seed; at 2 krps it is the service tail and moves by 1%."""

    name = "tenants"
    unit = "request"
    BACKEND = "vtx"
    TENANTS = 30
    RATE_RPS = 2_000.0
    REQUESTS = 1500
    POOL = 8
    REVIVE_LIMIT = 1
    # ``run_tenants_study``'s roster mix.
    FAULTY, CPUHOG, MEMHOG = 0.10, 0.02, 0.03
    REPLAY = 150

    def describe(self) -> str:
        return (f"open loop, Poisson {self.RATE_RPS:.0f} rps, "
                f"{self.REQUESTS} requests x 2 legs, {self.TENANTS} "
                f"tenants on 1-core {self.BACKEND}")

    def _boot(self, image, profiles: dict, inject: str | None,
              jit: bool = True):
        """``tenants.run_tenants_study``'s per-leg boot, from public
        parts: the quarantine policy, quotas, revival supervision."""
        from repro.machine import Machine, MachineConfig
        from repro.workloads import tenants
        from repro.workloads.httpserver import ERROR_RESPONSE
        config = MachineConfig(
            backend=self.BACKEND, metrics=True, fault_policy="quarantine",
            quarantine_threshold=1, quotas=tenants.DEFAULT_QUOTAS,
            inject=inject, jit=jit)
        machine = Machine(image, config)
        machine.kernel.reclaim_notice = ERROR_RESPONSE
        if machine.run().status == "faulted":
            raise AssertionError(f"tenant server faulted: {machine.fault}")
        manager = tenants.TenantManager(machine, profiles,
                                        revive_limit=self.REVIVE_LIMIT)
        manager.launch_all()
        return machine, manager

    def _boot_legs(self, state: dict) -> list:
        return [self._boot(state["images"][leg], state["profiles"][leg],
                           state["inject"][leg])
                for leg in ("baseline", "study")]

    def setup(self, seed: int) -> dict:
        from repro.workloads import loadgen, tenants
        profiles = tenants.assign_profiles(self.TENANTS, self.FAULTY,
                                           self.CPUHOG, self.MEMHOG)
        names = sorted(profiles)
        legs = {"baseline": {name: "healthy" for name in names},
                "study": profiles}
        state = {
            "names": names,
            "healthy": [n for n in names if profiles[n] == "healthy"],
            "arrivals": loadgen.poisson_arrivals(self.RATE_RPS,
                                                 self.REQUESTS, seed),
            "profiles": legs,
            "inject": {"baseline": None,
                       "study": tenants.inject_spec_for(profiles) or None},
            "images": {leg: tenants.build_tenant_image(roster)
                       for leg, roster in legs.items()},
        }
        state["booted"] = self._boot_legs(state)
        return state

    def _drive(self, machine, manager, arrivals, names):
        from repro.workloads import tenants
        gen = tenants.TenantLoadGen(machine, arrivals, self.POOL, names,
                                    manager=manager)
        return gen, gen.run()

    def episode(self, state: dict) -> Episode:
        legs = state.pop("booted", None) or self._boot_legs(state)
        wall = 0.0
        counters: dict = {}
        failures = []
        sim = {}
        failed = 0
        for leg, (machine, manager) in zip(("baseline", "study"), legs):
            before = _counters(machine)
            start = time.perf_counter()
            gen, result = self._drive(machine, manager, state["arrivals"],
                                      state["names"])
            wall += time.perf_counter() - start
            counters = _add(counters, _diff(_counters(machine), before))
            outcomes = result.ok + result.shed + result.refused + result.reset
            if outcomes != result.requests:
                failures.append(f"tenants/{leg}: ok+shed+refused+reset = "
                                f"{outcomes}, requests = {result.requests}")
            roster = state["profiles"][leg]
            healthy = [n for n in state["names"] if roster[n] == "healthy"]
            # Contained requests to misbehaving tenants are the expected
            # outcome; only a healthy tenant's non-200 is a failure.
            failed += sum(gen.per_tenant[n][k] for n in healthy
                          for k in ("failed", "shed", "refused", "reset"))
            sim[leg] = {
                "latencies_ns": sorted(
                    lat for n in state["healthy"]
                    for lat in gen.per_tenant[n]["latencies"]),
                "per_tenant": {n: (r["ok"], r["failed"], r["shed"],
                                   r["refused"], r["reset"], r["latencies"])
                               for n, r in gen.per_tenant.items()},
                "states": manager.states(),
                "duration_ns": result.duration_ns,
                "machine": _fingerprint(machine),
            }
        counters["evicted"] = sum(
            s == "evicted" for s in sim["study"]["states"].values())
        failures += [f"tenants: study gate {gate} failed"
                     for gate, ok in self.gates(state, sim).items() if not ok]
        return Episode(wall, 2 * self.REQUESTS, failed, sim, counters,
                       failures)

    def gates(self, state: dict, sim: dict) -> dict:
        """The study's three gates, as ``run_tenants_study`` states them,
        with the p99s taken exactly."""
        profiles = state["profiles"]["study"]
        study = sim["study"]
        states = study["states"]
        base_p99 = quantile(sim["baseline"]["latencies_ns"], "0.99")
        study_p99 = quantile(study["latencies_ns"], "0.99")
        return {
            "all_misbehaving_contained": all(
                states[n] in ("quarantined", "evicted")
                for n in state["names"] if profiles[n] != "healthy"),
            "no_healthy_tenant_killed": all(
                states[n] == "live" and study["per_tenant"][n][1] == 0
                for n in state["healthy"]),
            "healthy_p99_within_2x": study_p99 <= 2.0 * base_p99,
        }

    def checks(self, state: dict, episode: Episode) -> tuple[list, dict]:
        prefix = state["arrivals"][:self.REPLAY]
        runs = []
        for jit in (True, False):
            machine, manager = self._boot(
                state["images"]["study"], state["profiles"]["study"],
                state["inject"]["study"], jit=jit)
            gen, _ = self._drive(machine, manager, prefix, state["names"])
            runs.append((gen.per_tenant, manager.states(),
                         _fingerprint(machine)))
        failures = []
        if runs[0] != runs[1]:
            failures.append(f"tenants: JIT-off replay of the study leg's "
                            f"first {self.REPLAY} requests diverges")
        return failures, {}

    def sim_metrics(self, episode: Episode, extra: dict) -> dict:
        study = episode.sim["study"]
        base = episode.sim["baseline"]
        out = _latency_metrics(study["latencies_ns"])
        out.update(
            sim_goodput_rps=(len(study["latencies_ns"])
                             / (study["duration_ns"] * 1e-9)),
            sim_ms=study["duration_ns"] / 1e6,
            sim_overhead_x=(_mean(study["latencies_ns"])
                            / _mean(base["latencies_ns"])),
            overhead_note=("mean healthy-tenant latency, study leg over "
                           "the all-healthy baseline leg"),
        )
        return out


# -- compute ------------------------------------------------------------------

class Compute:
    """The Table 2 bild filter as a closed batch job on 1-core mpk, at
    about 192x192 pixels (the seed picks the aspect ratio)."""

    name = "compute"
    unit = "image"
    BACKEND = "mpk"
    ITERATIONS = 2
    PIXELS = 192 * 192
    REPLAY_SIDE = 16
    #: Paper Table 2, bild row: LBMPK over baseline.
    PAPER_MPK_X = 1.12

    def geometry(self, seed: int) -> tuple[int, int]:
        width = 184 + seed % 17
        return width, self.PIXELS // width

    def describe(self) -> str:
        return (f"closed batch, bild Invert x{self.ITERATIONS} on "
                f"~192x192 pixels, 1-core {self.BACKEND}")

    def _machine(self, state: dict, backend: str = BACKEND):
        from repro.machine import Machine, MachineConfig
        return Machine(state["image"], MachineConfig(backend=backend))

    def setup(self, seed: int) -> dict:
        from repro.workloads import bild
        width, height = self.geometry(seed)
        state = {"width": width, "height": height,
                 "image": bild.build_bild_image(width, height,
                                                self.ITERATIONS)}
        state["booted"] = self._machine(state)
        return state

    def _run(self, machine, state: dict) -> list:
        """Run the app; check it exits cleanly and that its checksum of
        the inverted images is the closed-form value for the input
        ``pix[i] = i % 256``."""
        result = machine.run()
        pixels = state["width"] * state["height"]
        expected = self.ITERATIONS * sum(255 - i % 256
                                         for i in range(pixels))
        if result.status != "exited" or machine.fault is not None:
            return [f"compute: guest did not exit cleanly "
                    f"({result.status}: {machine.fault})"]
        if machine.read_global("main.result") != expected:
            return ["compute: inverted-image checksum is wrong"]
        return []

    def episode(self, state: dict) -> Episode:
        machine = state.pop("booted", None) or self._machine(state)
        start = time.perf_counter()
        failures = self._run(machine, state)
        wall = time.perf_counter() - start
        sim = {"sim_ns": machine.clock.now_ns,
               "machine": _fingerprint(machine)}
        return Episode(wall, self.ITERATIONS, len(failures), sim,
                       _counters(machine), failures)

    def checks(self, state: dict, episode: Episode) -> tuple[list, dict]:
        from repro.machine import MachineConfig
        from repro.workloads import bild
        side = self.REPLAY_SIDE
        fingerprints = []
        failures = []
        for jit in (True, False):
            machine = bild.run_bild(
                self.BACKEND, side, side, 1,
                config=MachineConfig(backend=self.BACKEND, jit=jit))
            fingerprints.append((_fingerprint(machine),
                                 machine.read_global("main.result")))
        if fingerprints[0] != fingerprints[1]:
            failures.append(f"compute: JIT-off replay of a {side}x{side} "
                            f"image diverges")
        base = self._machine(state, "baseline")
        failures += self._run(base, state)
        return failures, {"base_ns": base.clock.now_ns}

    def sim_metrics(self, episode: Episode, extra: dict) -> dict:
        sim_ns = episode.sim["sim_ns"]
        per_image_us = sim_ns / 1e3 / self.ITERATIONS
        overhead = sim_ns / extra["base_ns"]
        return {
            # A closed batch has no latency distribution: all three
            # report the mean simulated time per image.
            "sim_mean_us": per_image_us,
            "sim_p50_us": per_image_us,
            "sim_p99_us": per_image_us,
            "n": self.ITERATIONS,
            "highest": None,
            "sim_goodput_rps": self.ITERATIONS / (sim_ns * 1e-9),
            "sim_ms": sim_ns / 1e6,
            "sim_overhead_x": overhead,
            "overhead_note": (f"makespan, {self.BACKEND} over baseline; "
                              f"paper Table 2 bild {self.PAPER_MPK_X}x at "
                              f"the paper's input size, not this one"),
        }


WORKLOADS = {w.name: w for w in (Serve(), Tenants(), Compute())}
