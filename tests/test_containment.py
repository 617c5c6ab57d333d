"""Fault containment & recovery: policies, unwind, quarantine, reclaim.

The paper's §2.2 semantics ("a fault stops the execution of the closure
and aborts the program") stay the default; these tests cover the
``kill-goroutine`` and ``quarantine`` policies where a fault inside an
enclosure unwinds to the outermost Prolog frame and kills only the
offending goroutine.
"""

from __future__ import annotations

import pytest

from repro.errors import Fault, QuarantinedFault
from repro.golite import build_program
from repro.machine import Machine, MachineConfig
from repro.workloads.httpserver import ERROR_RESPONSE, run_http_server
from tests.golite_helpers import run_golite

ENFORCING = ["mpk", "vtx", "lwc"]

SECRETS = """
package secretz

var Value int = 777
"""

#: main waits on a channel; one goroutine faults inside an enclosure,
#: another does legitimate work.  Under containment main must still get
#: the legitimate answer.
VIOLATOR_APP = """
package main

import "secretz"

var out int

func bad(ch chan int) {
    f := with "secretz:U, none" func() int { return secretz.Value }
    ch <- f()
}

func good(ch chan int) {
    ch <- 42
}

func main() {
    ch := make(chan int, 2)
    go bad(ch)
    go good(ch)
    out = <-ch
}
"""

#: Direct violation from the main goroutine (no helper goroutines).
MAIN_VIOLATOR_APP = """
package main

import "secretz"

var out int

func main() {
    f := with "secretz:U, none" func() int { return secretz.Value }
    out = f()
}
"""


class TestAbortPolicy:
    """The default policy is the paper's: any enclosure fault aborts."""

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_abort_is_default(self, backend):
        machine, result = run_golite(MAIN_VIOLATOR_APP, SECRETS,
                                     backend=backend)
        assert result.status == "faulted"
        assert machine.fault is not None

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_fault_attribution(self, backend):
        """Satellite: faults name the environment they occurred in."""
        machine, result = run_golite(MAIN_VIOLATOR_APP, SECRETS,
                                     backend=backend)
        assert machine.fault.env_name == "main_1"
        assert machine.fault.env_id is not None
        assert "env 'main_1'" in machine.fault_trace()
        assert "aborted" in machine.fault_trace()

    def test_unknown_policy_rejected(self):
        from repro.golite import build_program
        image = build_program([MAIN_VIOLATOR_APP, SECRETS])
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="fault_policy"):
            Machine(image, MachineConfig(backend="mpk",
                                         fault_policy="reboot"))


class TestKillGoroutinePolicy:
    @pytest.mark.parametrize("backend", ENFORCING)
    def test_main_goroutine_killed_not_aborted(self, backend):
        machine, result = run_golite(
            MAIN_VIOLATOR_APP, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="kill-goroutine"))
        assert result.status == "killed"
        assert result.exit_code == 1
        assert machine.fault is not None
        assert machine.fault.env_name == "main_1"
        summary = result.goroutines
        assert summary[1]["state"] == "killed-by-fault"
        assert "fault" in summary[1]

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_other_goroutines_survive(self, backend):
        """The tentpole behaviour: only the offending goroutine dies."""
        machine, result = run_golite(
            VIOLATOR_APP, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="kill-goroutine"))
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 42
        contained = machine.scheduler.contained
        assert len(contained) == 1
        assert contained[0].env_name == "main_1"
        states = {g["state"] for g in result.goroutines.values()}
        assert "killed-by-fault" in states and "ran" in states

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_unwind_restores_base_environment(self, backend):
        """Epilog-on-fault: the killed goroutine's env stack is empty
        and its environment is back to the base (trusted) one."""
        machine, result = run_golite(
            VIOLATOR_APP, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="kill-goroutine"))
        assert result.status == "exited", machine.fault
        killed = [g for g in machine.scheduler.goroutines
                  if g.exit == "killed-by-fault"]
        assert len(killed) == 1
        assert killed[0].env_stack == []
        assert killed[0].env.trusted
        assert killed[0].stacks == {}  # released back to the pool


class TestQuarantinePolicy:
    @pytest.mark.parametrize("backend", ENFORCING)
    def test_fail_fast_after_threshold(self, backend):
        """Threshold 1: the first contained fault trips the breaker and
        the next Prolog into the enclosure is a denied-entry fault."""
        src = VIOLATOR_APP.replace("go bad(ch)\n",
                                   "go bad(ch)\n    go bad(ch)\n", 1)
        machine, result = run_golite(
            src, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="quarantine",
                                 quarantine_threshold=1))
        assert result.status == "exited", machine.fault
        assert machine.read_global("main.out") == 42
        contained = machine.scheduler.contained
        assert len(contained) == 2
        # Second goroutine was denied at the trust boundary.
        assert isinstance(contained[1], QuarantinedFault)
        assert contained[1].kind == "denied-entry"
        lb = machine.litterbox
        assert len(lb.quarantined) == 1
        # Denied entries are the quarantine working, not new violations.
        assert list(lb.fault_counts.values()) == [1]

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_threshold_defers_quarantine(self, backend):
        src = VIOLATOR_APP.replace("go bad(ch)\n",
                                   "go bad(ch)\n    go bad(ch)\n", 1)
        machine, result = run_golite(
            src, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="quarantine",
                                 quarantine_threshold=10))
        assert result.status == "exited", machine.fault
        contained = machine.scheduler.contained
        # Both goroutines faulted on the access itself; no denial.
        assert len(contained) == 2
        assert not any(isinstance(f, QuarantinedFault) for f in contained)
        assert machine.litterbox.quarantined == {}
        assert list(machine.litterbox.fault_counts.values()) == [2]

    @pytest.mark.parametrize("backend", ENFORCING)
    def test_quarantine_revokes_backend_state(self, backend):
        machine = Machine(
            build_program([MAIN_VIOLATOR_APP, SECRETS]),
            MachineConfig(backend=backend, fault_policy="quarantine",
                          quarantine_threshold=1, restart_limit=0))
        # Record the hardware state each environment had when revoked.
        before = {}
        revoke = machine.backend.quarantine

        def recording_quarantine(env):
            before[env.id] = (env.pkru if backend == "mpk"
                              else env.table.present_vpns())
            revoke(env)

        machine.backend.quarantine = recording_quarantine
        result = machine.run()
        assert result.status == "killed"
        lb = machine.litterbox
        assert len(lb.quarantined) == 1
        env = lb.envs[next(iter(lb.quarantined))]
        if backend == "mpk":
            from repro.hw.mpk import PKRU_DENY_ALL_BUT_0
            assert env.pkru == PKRU_DENY_ALL_BUT_0
        else:
            assert all(not env.table.lookup(v).present
                       for v in env.table.mapped_vpns())

        # Supervised revival restores exactly the pre-quarantine state.
        assert lb.revive(env.id)
        assert env.id not in lb.quarantined
        if backend == "mpk":
            assert env.pkru == before[env.id] != PKRU_DENY_ALL_BUT_0
        else:
            assert before[env.id]
            assert env.table.present_vpns() == before[env.id]


class TestSupervisedRestart:
    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_main_respawned_under_restart_limit(self, backend):
        """With a restart budget the main goroutine is respawned at its
        entry; the violation recurs, so the budget eventually runs out
        and the run ends killed with restart generations recorded."""
        machine, result = run_golite(
            MAIN_VIOLATOR_APP, SECRETS,
            config=MachineConfig(backend=backend,
                                 fault_policy="kill-goroutine",
                                 restart_limit=2))
        assert result.status == "killed"
        assert len(machine.scheduler.contained) == 3  # original + 2 retries
        restarts = [g.get("restarts", 0)
                    for g in result.goroutines.values()]
        assert max(restarts) == 2


class TestSchedulerReporting:
    def test_exit_summary_states(self):
        machine, result = run_golite(
            VIOLATOR_APP, SECRETS,
            config=MachineConfig(backend="mpk",
                                 fault_policy="kill-goroutine"))
        summary = result.goroutines
        assert summary[1]["state"] == "ran"          # main exited
        by_state = sorted(g["state"] for g in summary.values())
        assert by_state.count("killed-by-fault") == 1
        envs = {g["env"] for g in summary.values()}
        assert "trusted" in envs

    def test_step_budget_names_starved_goroutines(self):
        src = """
package main

func spin() {
    for {
    }
}

func main() {
    go spin()
    for {
    }
}
"""
        from repro.golite import build_program
        machine = Machine(build_program([src]), MachineConfig(backend="mpk"))
        with pytest.raises(Fault, match="budget") as info:
            machine.run(max_steps=500_000)
        message = str(info.value)
        assert "goroutines" in message
        assert "1" in message and "2" in message


class TestServerSurvival:
    """The headline scenario: an HTTP server absorbing enclosure
    violations injected into its request handler."""

    INJECT = "pkey@main_1:every=4;sysdeny@main_1:every=4,after=2"

    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    def test_absorbs_25_violations_with_identical_clean_responses(
            self, backend):
        clean = run_http_server(backend)
        reference = [clean.request() for _ in range(60)]
        assert all(r.startswith(b"HTTP/1.1 200") for r in reference)

        config = MachineConfig(backend=backend, fault_policy="quarantine",
                               quarantine_threshold=1000,
                               inject=self.INJECT, inject_seed=7)
        driver = run_http_server(backend, config=config)
        ok, errors = [], []
        for _ in range(60):
            response = driver.request()
            (ok if response.startswith(b"HTTP/1.1 200") else errors).append(
                response)
        report = driver.machine.containment_report()
        assert len(report["contained"]) >= 25
        assert all(r == ERROR_RESPONSE for r in errors)
        # Non-poisoned responses are byte-identical to the clean run's.
        assert ok and all(r == reference[0] for r in ok)
        # The breaker never tripped (threshold 1000) and the injector
        # hit both memory and syscall violations.
        assert report["quarantined"] == {}
        kinds = {entry["kind"] for entry in report["contained"]}
        assert "pkey" in kinds or "non-present" in kinds
        assert "syscall" in kinds

    def test_poisoned_connection_gets_500_and_fd_reclaimed(self):
        config = MachineConfig(backend="mpk", fault_policy="kill-goroutine",
                               inject="pkey@main_1:every=1,count=1")
        driver = run_http_server("mpk", config=config)
        kernel = driver.machine.kernel
        fds_before = len(kernel._fds)
        poisoned = driver.request()
        assert poisoned == ERROR_RESPONSE
        # The handler's connection fd was reclaimed, not leaked.
        assert len(kernel._fds) == fds_before
        killed = [g for g in driver.machine.scheduler.goroutines
                  if g.exit == "killed-by-fault"]
        assert len(killed) == 1
        assert all(owner != killed[0].id
                   for owner in kernel.fd_owner.values())
        # And the server still answers the next request normally.
        assert driver.request().startswith(b"HTTP/1.1 200")

    def test_poisoned_keepalive_conn_gets_notice_and_fds_reclaimed(self):
        """The async server holds keep-alive connections in its poll
        set; when a poisoned in-flight request kills the serve
        goroutine, every fd it owns (listener + kept connections) must
        be reclaimed — the waiting client gets the 500 notice, nothing
        leaks, and the supervised restart brings the server back."""
        from repro.os.net import LOCALHOST
        from repro.workloads import asynchttp

        config = MachineConfig(backend="mpk",
                               fault_policy="kill-goroutine",
                               restart_limit=1,
                               inject="pkey@main_1:after=1,count=1")
        machine = asynchttp.run_async_server("mpk", config=config)
        kernel = machine.kernel
        fds_at_boot = len(kernel._fds)
        req = b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"

        conn = kernel.net.connect(LOCALHOST, asynchttp.PORT)
        conn.client.send(req)
        machine.resume()
        first = conn.client.recv(1 << 20)
        assert first.startswith(b"HTTP/1.1 200")
        assert b"Connection: keep-alive" in first
        assert not conn.server.closed          # parked in the poll set

        # The second request on the same connection is poisoned: the
        # serve goroutine dies mid-handler and reclaim pushes the 500
        # notice into the kept connection before closing it.
        conn.client.send(req)
        machine.resume()
        assert conn.client.recv(1 << 20) == ERROR_RESPONSE
        assert conn.server.closed
        killed = [g for g in machine.scheduler.goroutines
                  if g.exit == "killed-by-fault"]
        assert len(killed) == 1
        assert all(owner != killed[0].id
                   for owner in kernel.fd_owner.values())

        # Supervised restart: the respawned server rebinds the listener
        # and serves new connections; the fd table is back to boot size
        # (no leak from the reclaimed keep-alive connection).
        fresh = kernel.net.connect(LOCALHOST, asynchttp.PORT)
        fresh.client.send(req)
        machine.resume()
        again = fresh.client.recv(1 << 20)
        assert isinstance(again, bytes) and again.startswith(b"HTTP/1.1 200")
        fresh.client.close()
        machine.resume()
        assert len(kernel._fds) == fds_at_boot

    def test_quarantine_fail_fast_turns_all_requests_to_errors(self):
        config = MachineConfig(backend="mpk", fault_policy="quarantine",
                               quarantine_threshold=1,
                               inject="pkey@main_1:every=1,count=1")
        driver = run_http_server("mpk", config=config)
        assert driver.request() == ERROR_RESPONSE      # the violation
        assert driver.machine.litterbox.quarantined
        # Every later entry into the handler enclosure is denied fast,
        # but the server itself keeps running.
        for _ in range(3):
            assert driver.request() == ERROR_RESPONSE
        contained = driver.machine.scheduler.contained
        assert sum(isinstance(f, QuarantinedFault) for f in contained) == 3


class TestDeterminism:
    """Containment plumbing must not perturb simulated time."""

    @pytest.mark.parametrize("backend", ["mpk", "vtx"])
    @pytest.mark.parametrize("policy", ["kill-goroutine", "quarantine"])
    def test_sim_ns_bit_identical_without_faults(self, backend, policy):
        baseline = run_http_server(backend)
        for _ in range(5):
            baseline.request()
        contained = run_http_server(
            backend, config=MachineConfig(backend=backend,
                                          fault_policy=policy,
                                          quarantine_threshold=100))
        for _ in range(5):
            contained.request()
        assert contained.machine.clock.now_ns == baseline.machine.clock.now_ns

    def test_same_seed_same_outcome(self):
        spec = "pkey@main_1:every=3,p=0.5"
        outcomes = []
        for _ in range(2):
            driver = run_http_server("mpk", config=MachineConfig(
                backend="mpk", fault_policy="kill-goroutine",
                inject=spec, inject_seed=1234))
            responses = [driver.request() for _ in range(12)]
            outcomes.append(
                (responses, driver.machine.clock.now_ns,
                 driver.machine.injector.total_fired))
        assert outcomes[0] == outcomes[1]


class TestContainTracing:
    def test_contained_faults_emit_contain_events(self):
        config = MachineConfig(backend="mpk", fault_policy="kill-goroutine",
                               inject="pkey@main_1:every=1,count=2",
                               trace=True)
        driver = run_http_server("mpk", config=config)
        driver.request()
        driver.request()
        tracer = driver.machine.tracer
        spans = [e for e in tracer.events if e.cat == "contain"
                 and e.ph == "X"]
        assert len(spans) == 2
        assert all(e.env == "main_1" for e in spans)
        assert all(e.args["fault"] == "pkey" for e in spans)
        assert all(e.args["unwound"] == 1 for e in spans)
        assert all(e.args["reclaimed_fds"] >= 1 for e in spans)
        summary = tracer.summary()
        assert summary["main_1"]["contain_ns"] > 0

    def test_quarantine_trip_is_an_instant_event(self):
        config = MachineConfig(backend="mpk", fault_policy="quarantine",
                               quarantine_threshold=1,
                               inject="pkey@main_1:every=1,count=1",
                               trace=True)
        driver = run_http_server("mpk", config=config)
        driver.request()
        names = [e.name for e in driver.machine.tracer.events
                 if e.cat == "contain"]
        assert "contain:quarantine" in names


#: A denied syscall inside an enclosure: ``none`` grants no system call,
#: so ``println``'s write is the fault's root cause on every backend.
DENIED_PRINT = """
package main

func main() {
    f := with "none" func() int {
        println(1)
        return 0
    }
    println(f())
}
"""


class TestFlightRecorderRootCause:
    @pytest.mark.parametrize("backend", ENFORCING)
    def test_denied_syscall_verdict_precedes_fault(self, backend):
        """Every backend's FilterSyscall verdict reaches the flight
        recorder, so the dump shipped with a contained syscall fault
        ends with its root cause: the kill verdict, then the fault."""
        machine, result = run_golite(DENIED_PRINT, config=MachineConfig(
            backend=backend, fault_policy="kill-goroutine", spans=True))
        assert result.status == "killed", result.status
        dumps = machine.containment_report()["flight_recorder"]["dumps"]
        assert len(dumps) == 1 and dumps[0]["kind"] == "syscall"
        kinds = [event["kind"] for event in dumps[0]["events"]]
        assert kinds[-2:] == ["filter:kill", "fault"], kinds
