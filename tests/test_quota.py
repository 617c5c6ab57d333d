"""Per-enclosure resource quotas: spec grammar, accounting, enforcement.

The quota table (``repro.quota``) is policy; enforcement rides the
layers that already meter each resource — scheduler slices for CPU,
allocator spans for memory, kernel fds for descriptors.  These tests
cover all three hook sites end to end plus the bit-identity contract.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, QuotaFault
from repro.machine import MachineConfig
from repro.quota import QuotaSpec, QuotaTable, parse_quota_spec
from repro.trace import Observers
from tests.golite_helpers import run_golite


class TestQuotaSpecGrammar:
    def test_parse_full_spec(self):
        table = parse_quota_spec(
            "t001_1:steps=100,spans=4;*:steps=200,fds=8")
        assert table["t001_1"] == QuotaSpec(steps=100, spans=4)
        assert table["*"] == QuotaSpec(steps=200, fds=8)

    def test_unmetered_resources_stay_none(self):
        spec = parse_quota_spec("x_1:spans=2")["x_1"]
        assert spec.spans == 2 and spec.steps is None and spec.fds is None

    @pytest.mark.parametrize("bad", [
        "t001_1",                  # no limits at all
        "t001_1:",                 # empty limits
        ":steps=5",                # empty target
        "t001_1:steps",            # option with no '='
        "t001_1:steps=abc",        # non-integer
        "t001_1:steps=0",          # limits must be >= 1
        "t001_1:steps=-3",         # negative
        "t001_1:watts=5",          # unknown resource
        "t001_1:steps=5,steps=6",  # duplicate resource
        "a:steps=1;a:spans=2",     # duplicate target
        ";;",                      # no clauses
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_quota_spec(bad)

    @pytest.mark.parametrize("bad", [
        "t001_1:steps=0", "t001_1:watts=5", "t001_1:steps=abc",
    ])
    def test_error_names_offending_clause(self, bad):
        spec = f"ok_1:steps=5;{bad}"
        with pytest.raises(ConfigError) as exc:
            parse_quota_spec(spec)
        assert repr(bad) in str(exc.value)


class _Env:
    """Stub enclosure environment for table-level tests."""

    def __init__(self, name: str, trusted: bool = False):
        self.name = name
        self.id = 7
        self.spec = None if trusted else object()


class TestQuotaTable:
    def test_steps_accumulate_and_trip(self):
        table = QuotaTable("t_1:steps=300")
        env = _Env("t_1")
        table.charge_steps(env, 200)
        with pytest.raises(QuotaFault) as exc:
            table.charge_steps(env, 200)
        assert exc.value.resource == "steps"
        assert (exc.value.used, exc.value.limit) == (400, 300)
        # The overrun sticks: further charges keep failing until reset.
        with pytest.raises(QuotaFault):
            table.charge_steps(env, 1)
        table.reset("t_1")
        table.charge_steps(env, 200)  # fresh budget

    def test_reset_does_not_release_spans(self):
        table = QuotaTable("t_1:spans=2")
        table.charge_span("encl.t_1")
        table.charge_span("encl.t_1")
        table.reset("t_1")
        with pytest.raises(QuotaFault):
            table.charge_span("encl.t_1")
        # Eviction's recycle releases them for real.
        table.release_spans("encl.t_1", 2)
        table.charge_span("encl.t_1")

    def test_span_overrun_not_counted_as_held(self):
        """A rejected grab leaves usage at the limit — the span was
        never acquired."""
        table = QuotaTable("t_1:spans=1")
        table.charge_span("encl.t_1")
        for _ in range(3):
            with pytest.raises(QuotaFault):
                table.charge_span("encl.t_1")
        assert table.spans_used["t_1"] == 1

    def test_fd_charge_and_release(self):
        table = QuotaTable("t_1:fds=2")
        env = _Env("t_1")
        assert table.charge_fd(env)
        assert table.charge_fd(env)
        with pytest.raises(QuotaFault):
            table.charge_fd(env)
        table.release_fd("t_1")
        assert table.charge_fd(env)

    def test_trusted_and_untargeted_are_never_metered(self):
        table = QuotaTable("t_1:steps=1,fds=1")
        table.charge_steps(_Env("trusted", trusted=True), 10**9)
        table.charge_steps(_Env("other_1"), 10**9)
        assert not table.charge_fd(_Env("other_1"))
        table.charge_span("libfx")  # non-enclosure package
        assert table.snapshot()["exceeded"] == []

    def test_named_target_beats_wildcard(self):
        table = QuotaTable("*:steps=10;t_1:steps=1000")
        env = _Env("t_1")
        table.charge_steps(env, 500)  # over the wildcard, under the name
        with pytest.raises(QuotaFault):
            table.charge_steps(env, 600)

    def test_exceeded_log_and_callback(self):
        table = QuotaTable("t_1:steps=1")
        seen = []
        table.obs = Observers([SimpleNamespace(
            on_quota=lambda env, res, limit, used: seen.append((env, res)))])
        with pytest.raises(QuotaFault):
            table.charge_steps(_Env("t_1"), 5)
        assert table.exceeded == [("t_1", "steps")]
        assert seen == [("t_1", "steps")]


SPIN_APP = """
package main

var out int = 0

func main() {
    f := with "none" func() int {
        n := 0
        for i := 0; i < 900000; i++ {
            n = n + 1
        }
        return n
    }
    out = f()
}
"""

MEMHOG_APP = """
package main

var out int = 0

func main() {
    f := with "none" func() int {
        keep := make([]byte, 8192)
        i := 0
        for i < 16 {
            chunk := make([]byte, 8192)
            chunk[0] = 1
            keep = chunk
            i++
        }
        return len(keep)
    }
    out = f()
}
"""

FDHOG_APP = """
package main

const sysSocket = 41

var out int = 0

func main() {
    f := with "net" func() int {
        a := syscall(sysSocket, 2, 1, 0)
        b := syscall(sysSocket, 2, 1, 0)
        c := syscall(sysSocket, 2, 1, 0)
        return a + b + c
    }
    out = f()
}
"""

QUIET_APP = """
package main

var out int = 0

func main() {
    f := with "none" func() int { return 7 }
    out = f()
}
"""


class TestQuotaEnforcement:
    """End-to-end: the three hook layers raise QuotaFault in situ."""

    def test_step_quota_kills_a_spin(self):
        machine, result = run_golite(SPIN_APP, config=MachineConfig(
            backend="mpk", quotas="main_1:steps=300000"))
        assert result.status == "faulted"
        assert isinstance(machine.fault, QuotaFault)
        assert machine.fault.resource == "steps"
        assert machine.fault.env_name == "main_1"

    def test_span_quota_stops_a_hoarder(self):
        machine, result = run_golite(MEMHOG_APP, config=MachineConfig(
            backend="mpk", quotas="main_1:spans=4"))
        assert result.status == "faulted"
        assert isinstance(machine.fault, QuotaFault)
        assert machine.fault.resource == "spans"
        assert machine.quota.spans_used["main_1"] == 4

    def test_fd_quota_stops_descriptor_hog(self):
        machine, result = run_golite(FDHOG_APP, config=MachineConfig(
            backend="mpk", quotas="main_1:fds=2"))
        assert result.status == "faulted"
        assert isinstance(machine.fault, QuotaFault)
        assert machine.fault.resource == "fds"

    def test_fd_quota_under_limit_passes(self):
        machine, result = run_golite(FDHOG_APP, config=MachineConfig(
            backend="mpk", quotas="main_1:fds=8"))
        assert result.status == "exited"
        assert machine.quota.fds_used["main_1"] == 3

    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_overrun_is_contained_under_quarantine(self, backend):
        """A QuotaFault is a fault like any other: under a containing
        policy it kills the goroutine at the trust boundary and trips
        the enclosure's breaker."""
        machine, result = run_golite(SPIN_APP, config=MachineConfig(
            backend=backend, fault_policy="quarantine",
            quarantine_threshold=1, quotas="main_1:steps=300000"))
        assert result.status == "killed"
        assert any(isinstance(f, QuotaFault)
                   for f in machine.scheduler.contained)
        quarantined = {env.name for env in machine.litterbox.envs.values()
                       if env.id in machine.litterbox.quarantined}
        assert "main_1" in quarantined

    def test_report_snapshot_reaches_containment_report(self):
        machine, result = run_golite(SPIN_APP, config=MachineConfig(
            backend="mpk", fault_policy="quarantine",
            quarantine_threshold=1, quotas="main_1:steps=300000"))
        snap = machine.containment_report()["quota"]
        assert snap["exceeded"] == [
            {"enclosure": "main_1", "resource": "steps"}]
        assert snap["steps_used"]["main_1"] > 300000

    def test_quota_exceeded_metric(self):
        machine, result = run_golite(SPIN_APP, config=MachineConfig(
            backend="mpk", fault_policy="quarantine",
            quarantine_threshold=1, metrics=True,
            quotas="main_1:steps=300000"))
        counter = machine.metrics.quota_exceeded
        assert counter.value(env="main_1", resource="steps") >= 1


class TestQuotaBitIdentity:
    """The quota hooks charge no simulated time: a machine with a spec
    that never trips is bit-identical to a machine without quotas."""

    @pytest.mark.parametrize("backend", ["mpk", "vtx", "lwc"])
    def test_untripped_quotas_do_not_perturb_sim_ns(self, backend):
        machine_off, result_off = run_golite(
            QUIET_APP, config=MachineConfig(backend=backend))
        machine_on, result_on = run_golite(
            QUIET_APP, config=MachineConfig(
                backend=backend,
                quotas="*:steps=999999999,spans=9999,fds=9999"))
        assert result_off.status == result_on.status == "exited"
        assert machine_off.clock.now_ns == machine_on.clock.now_ns
