"""Machine-level API tests: configuration, drive loop, introspection."""

import pytest

from repro.errors import ConfigError
from repro.machine import Machine, MachineConfig

from tests.fig1 import build_image
from tests.golite_helpers import run_golite


class TestConfiguration:
    def test_string_config_shorthand(self):
        machine = Machine(build_image(), "baseline")
        assert machine.config.backend == "baseline"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            Machine(build_image(), MachineConfig(backend="sgx"))

    @pytest.mark.parametrize("field, value", [
        ("profile_period_ns", 0.0),
        ("profile_period_ns", -5.0),
        ("profile_period_ns", float("nan")),
        ("span_sample", 2.0),
        ("span_sample", -1.0),
        ("span_sample", float("nan")),
        ("span_slo_ns", 0.0),
        ("span_slo_ns", -1.0),
        ("span_ring", 0),
        ("span_ring", -1),
    ])
    def test_observer_settings_validated_at_the_boundary(self, field,
                                                         value):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(spans=True, profile=True, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("profile_period_ns", 1e-3), ("span_sample", 0.0),
        ("span_sample", 1.0), ("span_slo_ns", 1.0), ("span_ring", 1),
    ])
    def test_observer_settings_accept_range_edges(self, field, value):
        assert getattr(MachineConfig(**{field: value}), field) == value

    def test_backend_objects(self):
        from repro.core.backends import BaselineBackend
        from repro.core.lb_mpk import MPKBackend
        from repro.core.lb_vtx import VTXBackend
        assert isinstance(Machine(build_image(), "baseline").backend,
                          BaselineBackend)
        assert isinstance(Machine(build_image(), "mpk").backend, MPKBackend)
        assert isinstance(Machine(build_image(), "vtx").backend, VTXBackend)

    def test_vtx_runs_inside_a_vm(self):
        machine = Machine(build_image(), "vtx")
        backend = machine.backend
        assert backend.vm.vmcs.launched
        assert machine.cpu.ctx.page_table is backend.trusted_table
        assert machine.cpu.ctx.ept is backend.vm.vmcs.ept

    def test_mpk_starts_with_permissive_pkru(self):
        machine = Machine(build_image(), "mpk")
        assert machine.cpu.ctx.pkru == 0


class TestDriveLoop:
    def test_exit_status(self):
        machine = Machine(build_image(), "baseline")
        result = machine.run()
        assert result.status == "exited"
        assert machine.fault is None
        assert machine.fault_trace() == ""

    def test_entry_symbol_override(self):
        machine = Machine(build_image(), "baseline")
        # Run a single library function as the entry point.
        result = machine.run(entry_symbol="libfx.DoSyscall")
        assert result.status == "exited"

    def test_sim_time_monotonic_across_runs(self):
        machine = Machine(build_image(), "baseline")
        t0 = machine.clock.now_ns
        machine.run()
        assert machine.clock.now_ns > t0

    def test_globals_roundtrip(self):
        machine = Machine(build_image(), "baseline")
        machine.write_global("main.key", 31337)
        assert machine.read_global("main.key") == 31337

    def test_resume_keeps_servers_alive(self):
        from repro.workloads.httpserver import run_http_server
        driver = run_http_server("baseline")
        assert driver.request().startswith(b"HTTP/1.1")
        # The accept loop is still parked, not dead.
        assert driver.machine.scheduler.blocked_count() >= 1
        assert driver.request().startswith(b"HTTP/1.1")

    def test_step_budget_enforced(self):
        """A runaway program (infinite loop) hits the step budget."""
        from repro.errors import Fault
        from repro.golite import build_program
        image = build_program(["package main\nfunc main() { for {} }\n"])
        machine = Machine(image, "baseline")
        machine.scheduler.TIME_SLICE = 1_000
        with pytest.raises(Fault, match="budget"):
            machine.run(max_steps=5_000)


class TestVmExitAccounting:
    def test_every_vtx_syscall_pays_an_exit(self):
        from tests.fig1 import run_fig1
        machine, result = run_fig1("vtx", body="syscall",
                                   policy="secrets:R, proc")
        assert result.status == "exited"
        assert machine.clock.count("vm_exits") >= 1

    def test_baseline_never_exits(self):
        machine = Machine(build_image(), "baseline")
        machine.run()
        assert machine.clock.count("vm_exits") == 0


class TestSimulatedTimeSanity:
    def test_mpk_init_costs_more_than_baseline(self):
        """Init tags every page with its meta-package key."""
        base = Machine(build_image(), "baseline").clock.now_ns
        mpk = Machine(build_image(), "mpk").clock.now_ns
        assert mpk > base

    def test_run_interval_excludes_init(self):
        machine = Machine(build_image(), "mpk")
        init_ns = machine.clock.now_ns
        machine.run()
        assert machine.clock.now_ns > init_ns


class TestPerfCountersPerRun:
    def test_back_to_back_runs_do_not_accumulate(self):
        """machine.perf describes the last run() only (the counters
        used to accumulate across consecutive runs in one process)."""
        machine = Machine(build_image(), "mpk")
        machine.run()
        first = machine.perf.as_dict()
        assert first["instructions"] > 0
        machine.run()
        second = machine.perf.as_dict()
        # Identical program, identical run: identical counters — not
        # double the first run's numbers.
        assert second["instructions"] == first["instructions"]
        assert second["ops"] == first["ops"]

    def test_runs_counter_survives_reset(self):
        machine = Machine(build_image(), "mpk")
        machine.run()
        machine.run()
        assert machine.perf.runs == 2
        assert machine.perf.as_dict()["runs"] == 2

    def test_resume_keeps_counting_the_current_run(self):
        machine = Machine(build_image(), "baseline")
        machine.run()
        after_run = machine.perf.instructions
        machine.resume()
        assert machine.perf.runs == 1
        assert machine.perf.instructions >= after_run
