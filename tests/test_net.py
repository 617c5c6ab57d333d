"""Edge-case coverage for the loopback network and the async HTTP path.

PR 7's bugfix sweep: errno fidelity on dead sockets, accept-queue
hygiene (drain on listener close, shed on backlog shrink), poll
readiness semantics, and the open-loop load generator's determinism.
"""

from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.golite import build_program
from repro.machine import Machine, MachineConfig
from repro.os import LOCALHOST, Network, errno
from repro.trace import Observers
from repro.workloads import asynchttp, loadgen


def make_conn(net=None, port=7000, backlog=4):
    """One listener plus one accepted connection."""
    net = net or Network()
    listener = net.bind_listen(port, backlog)
    assert not isinstance(listener, int)
    conn = net.connect(LOCALHOST, port)
    assert not isinstance(conn, int)
    assert net.accept(listener) is conn
    return net, listener, conn


class TestErrnoFidelity:
    """A dead socket must say *how* it died, not fake success or EOF."""

    def test_send_on_locally_closed_socket_is_epipe(self):
        _, _, conn = make_conn()
        conn.client.close()
        assert conn.client.send(b"late") == -errno.EPIPE

    def test_send_after_peer_reset_is_econnreset(self):
        _, _, conn = make_conn()
        conn.server.close()
        assert conn.client.send(b"late") == -errno.ECONNRESET
        # Not ECONNREFUSED: resets are distinguishable from refusals.
        assert conn.client.send(b"late") != -errno.ECONNREFUSED

    def test_local_close_beats_peer_close(self):
        # Both sides down: the *local* close wins (EPIPE, not reset).
        _, _, conn = make_conn()
        conn.server.close()
        conn.client.close()
        assert conn.client.send(b"late") == -errno.EPIPE

    def test_recv_after_self_close_errors_not_eof(self):
        _, _, conn = make_conn()
        conn.server.send(b"buffered")
        conn.client.close()
        # Even with bytes still buffered, a closed fd must error.
        assert conn.client.recv(64) == -errno.EBADF

    def test_recv_peer_close_drains_then_eof(self):
        _, _, conn = make_conn()
        conn.server.send(b"tail")
        conn.server.close()
        assert conn.client.recv(64) == b"tail"
        assert conn.client.recv(64) == b""


class TestAcceptQueue:
    def test_pending_is_a_deque(self):
        net = Network()
        listener = net.bind_listen(7001, 4)
        assert isinstance(listener.pending, deque)

    def test_backlog_overflow_refused(self):
        refused = []
        net = Network()
        net.obs = Observers([SimpleNamespace(on_refused=refused.append)])
        listener = net.bind_listen(7002, 2)
        assert not isinstance(net.connect(LOCALHOST, 7002), int)
        assert not isinstance(net.connect(LOCALHOST, 7002), int)
        assert net.connect(LOCALHOST, 7002) == -errno.ECONNREFUSED
        assert refused == [7002]
        assert len(listener.pending) == 2

    def test_client_close_before_accept(self):
        net = Network()
        listener = net.bind_listen(7003, 4)
        conn = net.connect(LOCALHOST, 7003)
        conn.client.close()
        # The connection is still deliverable to accept()...
        accepted = net.accept(listener)
        assert accepted is conn
        # ...and the server observes an immediate orderly EOF.
        assert accepted.server.recv(64) == b""
        assert accepted.server.send(b"hi") == -errno.ECONNRESET

    def test_listener_close_drains_pending(self):
        net = Network()
        net.bind_listen(7004, 4)
        conns = [net.connect(LOCALHOST, 7004) for _ in range(3)]
        net.unbind(7004)
        for conn in conns:
            # Parked clients must observe EOF, not hang forever.
            assert conn.server.closed
            assert conn.client.recv(64) == b""
        # The port is really gone: new connects are refused.
        assert net.connect(LOCALHOST, 7004) == -errno.ECONNREFUSED

    def test_eaddrinuse_then_rebind_after_close(self):
        net = Network()
        assert not isinstance(net.bind_listen(7005, 4), int)
        assert net.bind_listen(7005, 4) == -errno.EADDRINUSE
        net.unbind(7005)
        listener = net.bind_listen(7005, 4)
        assert not isinstance(listener, int)
        assert net.connect(LOCALHOST, 7005) in listener.pending

    def test_shrinking_backlog_sheds_newest(self):
        refused = []
        net = Network()
        net.obs = Observers([SimpleNamespace(on_refused=refused.append)])
        listener = net.bind_listen(7006, 8)
        conns = [net.connect(LOCALHOST, 7006) for _ in range(5)]
        listener.backlog = 2
        assert net.shed_excess(listener) == 3
        assert len(listener.pending) == 2
        # Oldest two survive; the newest three were reset.
        assert all(not c.server.closed for c in conns[:2])
        assert all(c.server.closed for c in conns[2:])
        assert refused == [7006, 7006, 7006]

    def test_backlog_gauge_tracks_depth(self):
        depths = []
        net = Network()
        net.obs = Observers([SimpleNamespace(
            on_backlog=lambda port, depth: depths.append((port, depth)))])
        listener = net.bind_listen(7007, 4)
        net.connect(LOCALHOST, 7007)
        net.connect(LOCALHOST, 7007)
        net.accept(listener)
        net.unbind(7007)
        assert depths == [(7007, 1), (7007, 2), (7007, 1), (7007, 0)]


POLL_PROBE = """
package main

var pollFirst int
var acceptAgain int
var pollSecond int
var readN int

func main() {
    lfd := syscall(41, 2, 1, 0)
    syscall(49, lfd, 9001)
    syscall(50, lfd, 4)
    fds := make([]int, 2)
    fds[0] = lfd
    pollFirst = syscall(1007, dataptr(fds), 1)
    conn := syscall(43, lfd)
    syscall(1072, lfd, 2048)
    acceptAgain = syscall(43, lfd)
    fds[1] = conn
    pollSecond = syscall(1007, dataptr(fds), 2)
    buf := make([]byte, 8)
    readN = syscall(0, conn, dataptr(buf), 8)
}
"""


class TestPollSemantics:
    """SYS_POLL parks on empty fd sets and wakes on network events."""

    def test_poll_parks_then_wakes(self):
        machine = Machine(build_program([POLL_PROBE]),
                          MachineConfig(backend="baseline"))
        # No connection yet: the goroutine parks inside the first poll.
        assert machine.run().status == "idle"

        conn = machine.kernel.net.connect(LOCALHOST, 9001)
        assert not isinstance(conn, int)
        # Wakes, polls (listener ready -> index 0), accepts, sees EAGAIN
        # on the drained nonblocking listener, parks in the second poll.
        assert machine.resume().status == "idle"
        assert machine.read_global("main.pollFirst") == 0
        assert machine.read_global("main.acceptAgain") == -errno.EAGAIN

        conn.client.send(b"ping")
        result = machine.resume()
        assert result.status == "idle" and machine.fault is None
        # Second poll reported the connected fd (slot 1), then read 4B.
        assert machine.read_global("main.pollSecond") == 1
        assert machine.read_global("main.readN") == 4

    def test_poll_rejects_empty_set(self):
        machine = asynchttp.run_async_server("baseline")
        kernel = machine.kernel
        ctx = machine.litterbox.trusted_ctx
        assert kernel._sys_poll(ctx, [0, 0, 0, 0, 0, 0]) == -errno.EINVAL


class TestAsyncServer:
    def _request(self, machine, payload):
        conn = machine.kernel.net.connect(LOCALHOST, asynchttp.PORT)
        assert not isinstance(conn, int)
        conn.client.send(payload)
        machine.resume()
        data = conn.client.recv(1 << 20)
        return conn, data if isinstance(data, bytes) else b""

    def test_keepalive_reuses_connection(self):
        machine = asynchttp.run_async_server("baseline")
        conn, first = self._request(
            machine, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
        assert first.startswith(b"HTTP/1.1 200 OK")
        assert b"Connection: keep-alive" in first
        assert not conn.client.closed and not conn.server.closed
        conn.client.send(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
        machine.resume()
        second = conn.client.recv(1 << 20)
        assert second == first
        assert machine.read_global("asynchttp.served") == 2
        assert machine.read_global("asynchttp.kept") == 2

    def test_connection_close_honored(self):
        machine = asynchttp.run_async_server("baseline")
        conn, data = self._request(
            machine,
            b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        assert b"Connection: close" in data
        assert conn.server.closed

    def test_shed_beyond_maxconns_is_wellformed_503(self):
        machine = asynchttp.run_async_server(
            "baseline", maxconns=1, backlog=8)
        req = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
        keeper = machine.kernel.net.connect(LOCALHOST, asynchttp.PORT)
        keeper.client.send(req)
        extra = machine.kernel.net.connect(LOCALHOST, asynchttp.PORT)
        extra.client.send(req)
        machine.resume()
        ok = keeper.client.recv(1 << 20)
        assert isinstance(ok, bytes) and ok.startswith(b"HTTP/1.1 200")
        shed = extra.client.recv(1 << 20)
        assert shed == asynchttp.SHED_RESPONSE
        assert extra.server.closed
        assert machine.read_global("asynchttp.shed") == 1


class TestLoadGen:
    def test_arrivals_are_deterministic_and_monotonic(self):
        a = loadgen.poisson_arrivals(10_000, 50, seed=3)
        b = loadgen.poisson_arrivals(10_000, 50, seed=3)
        assert a == b
        assert a == sorted(a)
        assert loadgen.poisson_arrivals(10_000, 50, seed=4) != a

    def test_bursty_arrivals_land_in_duty_window(self):
        cycle, duty = 20e6, 0.25
        arrivals = loadgen.bursty_arrivals(
            5_000, 80, seed=5, cycle_ns=cycle, duty=duty)
        assert arrivals == sorted(arrivals)
        assert all((t % cycle) < cycle * duty for t in arrivals)

    def test_run_level_is_deterministic(self):
        kwargs = dict(offered_rps=20_000, requests=40, seed=11, pool=4)
        first = loadgen.run_level("baseline", **kwargs)
        second = loadgen.run_level("baseline", **kwargs)
        assert first.to_dict() == second.to_dict()
        assert first.latencies_ns == second.latencies_ns
        assert first.ok + first.shed + first.refused + first.reset == 40

    def test_overload_sheds_or_queues_but_accounts_all(self):
        result = loadgen.run_level(
            "baseline", offered_rps=50_000, requests=60, seed=2,
            pool=12, maxconns=2, backlog=4)
        assert result.ok + result.shed + result.refused + result.reset == 60
        assert result.shed > 0          # admission control engaged
        assert result.ok > 0            # but the server kept serving
        assert result.p99_ns >= result.p50_ns

    def test_capacity_at_slo_picks_best_passing_level(self):
        mk = lambda rps, p99: loadgen.LoadResult(
            backend="mpk", process="poisson", offered_rps=rps,
            requests=10, ok=10, goodput_rps=rps, p99_ns=p99)
        results = [mk(5_000, 1e5), mk(10_000, 2e5), mk(20_000, 9e6)]
        assert loadgen.capacity_at_slo(results, slo_ms=1.0) == 10_000
        table = loadgen.format_table(results)
        assert table.count("\n") == len(results) + 1
        assert "| yes |" in table and "| no |" in table


def _order_statistic(samples: list[float], q: float) -> float:
    """Brute-force nearest rank: the smallest sample with at least
    ``q * n`` samples at or below it."""
    need = Fraction(str(q)) * len(samples)
    return min((x for x in samples
                if sum(v <= x for v in samples) >= need), default=0.0)


def _ranks(n: int) -> list[float]:
    """``1.0 .. n``: each sample's value is its 1-based rank."""
    return [float(i) for i in range(1, n + 1)]


class TestExactQuantiles:
    """Reported latency quantiles are exact order statistics, whoever is
    observing the machine."""

    @pytest.mark.parametrize("samples, q, expected", [
        ([], 0.99, 0.0),
        ([42.0], 0.5, 42.0),
        ([42.0], 0.999, 42.0),
        (_ranks(10), 1.0, 10.0),
        (_ranks(4), 0.5, 2.0),
        ([1.0, 1.0, 2.0, 2.0, 2.0, 9.0], 0.5, 2.0),
        (_ranks(300), 0.99, 297.0),
        (_ranks(1500), 0.999, 1499.0),
    ], ids=["empty", "n1-p50", "n1-p999", "q1", "p50-even", "ties",
            "p99-n300", "p999-n1500"])
    def test_quantile_is_the_order_statistic(self, samples, q, expected):
        value = loadgen.quantile(samples, q)
        assert value == expected == _order_statistic(samples, q)

    def test_metrics_on_and_off_report_the_same_quantiles(self):
        on = loadgen.run_level("mpk", 40_000.0, 300, 1)
        off = loadgen.run_level("mpk", 40_000.0, 300, 1,
                                config=MachineConfig(backend="mpk"))
        assert on.registry is not None and off.registry is None
        assert on.latencies_ns == off.latencies_ns
        for q, p in ((0.50, "p50_ns"), (0.99, "p99_ns"),
                     (0.999, "p999_ns")):
            exact = _order_statistic(on.latencies_ns, q)
            assert getattr(on, p) == getattr(off, p) == exact
