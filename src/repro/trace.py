"""Structured tracing of LitterBox enforcement events.

The paper's evaluation (§6, Tables 1–2) is about *where* enclosure
overhead goes — switches vs. transfers vs. syscall filtering vs. VM
exits.  This module makes that observable instead of asserted: every
enforcement point (``Prolog``/``Epilog`` switches, ``FilterSyscall``
decisions, ``Transfer`` operations, ``Execute`` scheduler hand-offs,
VM exits, MPK/page-fault violations) emits a :class:`TraceEvent`
carrying a simulated-nanosecond timestamp and enclosure/package
attribution.

Attribution model
-----------------

The tracer keeps an *environment timeline*: ``set_env`` marks the
simulated instant at which the CPU entered an execution environment,
and the gross simulated time of each environment is the sum of its
timeline intervals.  Enforcement operations are *spans*
(:meth:`Tracer.begin` / :meth:`Tracer.end`); only the **outermost**
span of a nesting accumulates into the per-environment category totals,
so e.g. the ``pkey_mprotect`` host system call inside an MPK Transfer
is visible as a nested event but never double-counted.  An
environment's *compute* time is its gross time minus its accumulated
enforcement time.

A switch interval belongs to the environment being **entered** for
Prolog (the enclosure pays its own entry) and to the environment being
**exited** for Epilog, so an enclosure's gross time runs from Prolog
start to Epilog end — exactly the window Table 1's call benchmark
measures.

Costs: the tracer subscribes to the observer spine (:class:`Observers`);
with every observer off no spine exists and each emit site is one
``obs is None`` test.  The tracer never charges simulated time, so
simulated-ns outputs are bit-identical either way.

Exports
-------

* :meth:`Tracer.summary` — per-environment sim-time breakdown
  (switch/syscall/transfer/compute shares) for benchmarks to *measure*
  the Table 1/2 shape claims;
* :meth:`Tracer.describe` — the ``--trace`` text report;
* :meth:`Tracer.chrome_trace` — Chrome trace-event JSON (one thread
  lane per environment; loadable in Perfetto / ``chrome://tracing``);
* :func:`validate_chrome_trace` — the strict schema check used by the
  tests and the CI trace smoke step.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.hw.clock import SimClock
from repro.os.syscalls import syscall_name

#: Categories an event may carry; also the category axis of the
#: per-environment breakdown (``violation`` events are zero-duration).
#: ``shootdown`` only appears on multi-core machines: cross-core
#: TLB-shootdown IPI bursts charged by page-table/PKRU revocations.
CATEGORIES = ("switch", "syscall", "transfer", "filter", "vm_exit",
              "violation", "contain", "quota", "shootdown")

#: Chrome trace-event phases the exporter emits.
_PHASES = ("X", "i", "M")


class TraceFormatError(ValueError):
    """A trace document failed the strict Chrome trace-event check."""


@dataclass
class TraceEvent:
    """One enforcement event, in simulated time.

    ``ts``/``dur`` are simulated nanoseconds (the Chrome exporter
    converts to microseconds, the unit that format requires).
    """

    name: str                 # e.g. "prolog:rcl", "sys:write", "filter:deny"
    cat: str                  # one of CATEGORIES
    ph: str                   # "X" complete span | "i" instant
    ts: float                 # sim ns at event start
    dur: float = 0.0          # sim ns, complete events only
    env: str = ""             # execution-environment attribution
    pkg: str = ""             # package attribution, where meaningful
    args: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The event family: the name up to the first ``:``."""
        return self.name.split(":", 1)[0]


class _Span(object):
    """Mutable token for an open enforcement span."""

    __slots__ = ("cat", "name", "t0", "env", "pkg", "args", "outermost")

    def __init__(self, cat: str, name: str, t0: float, env: str,
                 pkg: str, args: dict, outermost: bool):
        self.cat = cat
        self.name = name
        self.t0 = t0
        self.env = env
        self.pkg = pkg
        self.args = args
        self.outermost = outermost


class Tracer:
    """Collects enforcement events against one machine's ``SimClock``."""

    def __init__(self, clock: SimClock, initial_env: str = "trusted",
                 backend: str = "baseline", cores: int = 1):
        self.clock = clock
        self.backend = backend
        self._smp = cores > 1
        self.events: list[TraceEvent] = []
        self._open: list[_Span] = []
        self._initial_env = initial_env
        self._env = initial_env
        self._env_since = clock.now_ns
        self._gross: dict[str, float] = {}
        self._cat_ns: dict[tuple[str, str], float] = {}
        #: The core currently executing, stamped onto every event's args
        #: while set.  ``None`` on a single-core machine — events there
        #: carry no ``core`` key, keeping historical traces bit-identical.
        self.core: int | None = None

    # -- environment timeline ------------------------------------------------

    def set_env(self, name: str, at: float | None = None) -> None:
        """Mark that the CPU entered environment ``name``.

        ``at`` back-dates the boundary (Prolog attributes its own span
        to the environment being entered).
        """
        now = self.clock.now_ns if at is None else at
        elapsed = now - self._env_since
        if elapsed > 0:
            self._gross[self._env] = self._gross.get(self._env, 0.0) + elapsed
        self._env = name
        self._env_since = now

    # -- spans ---------------------------------------------------------------

    def begin(self, cat: str, name: str, env: str | None = None,
              pkg: str = "", **args) -> _Span:
        """Open an enforcement span at the current simulated instant."""
        if self.core is not None:
            args.setdefault("core", self.core)
        span = _Span(cat, name, self.clock.now_ns,
                     self._env if env is None else env,
                     pkg, args, outermost=not self._open)
        self._open.append(span)
        return span

    def end(self, span: _Span) -> TraceEvent:
        """Close ``span``, record its event, and accumulate its duration
        into the per-environment category totals iff it is outermost."""
        self._open.remove(span)
        dur = self.clock.now_ns - span.t0
        if span.outermost:
            key = (span.env, span.cat)
            self._cat_ns[key] = self._cat_ns.get(key, 0.0) + dur
        event = TraceEvent(span.name, span.cat, "X", span.t0, dur,
                           span.env, span.pkg, span.args)
        self.events.append(event)
        return event

    def note(self, **args) -> None:
        """Attach key/values to the innermost open span (if any)."""
        if self._open:
            self._open[-1].args.update(args)

    # -- point events --------------------------------------------------------

    def instant(self, cat: str, name: str, env: str | None = None,
                pkg: str = "", **args) -> TraceEvent:
        """Record a zero-duration event (filter verdicts, violations)."""
        if self.core is not None:
            args.setdefault("core", self.core)
        event = TraceEvent(name, cat, "i", self.clock.now_ns, 0.0,
                           self._env if env is None else env, pkg, args)
        self.events.append(event)
        return event

    def complete(self, cat: str, name: str, t0: float, dur: float,
                 env: str | None = None, pkg: str = "", **args) -> TraceEvent:
        """Record a span whose extent is already known (VM exits: the
        EXIT+RESUME round trip is charged as one block)."""
        if self.core is not None:
            args.setdefault("core", self.core)
        use_env = self._env if env is None else env
        if not self._open:
            key = (use_env, cat)
            self._cat_ns[key] = self._cat_ns.get(key, 0.0) + dur
        event = TraceEvent(name, cat, "X", t0, dur, use_env, pkg, args)
        self.events.append(event)
        return event

    # -- spine subscriber (see Observers) ------------------------------------
    # Nested spans always close first, so a span-shaped operation's
    # mid and ``*_end`` events act on the innermost open span.

    def _end_innermost(self) -> None:
        self.end(self._open[-1])

    def on_prolog_begin(self, call_site: int) -> None:
        self.begin("switch", "prolog", call_site=call_site,
                   backend=self.backend)

    def on_prolog(self, goroutine, current, target) -> None:
        # The enclosure pays its own entry: attribute the switch span —
        # and the timeline from its start — to the target.
        span = self._open[-1]
        span.name = f"prolog:{target.name}"
        span.env = target.name
        span.args["from"] = current.name
        self.set_env(target.name, at=span.t0)

    on_prolog_end = on_transfer_end = _end_innermost

    def on_epilog_begin(self, goroutine, call_site: int) -> None:
        # The exit switch still belongs to the enclosure being left.
        self.begin("switch", f"epilog:{goroutine.env.name}",
                   env=goroutine.env.name, call_site=call_site,
                   backend=self.backend)

    def on_epilog(self, goroutine, left, previous) -> None:
        self._open[-1].args["to"] = previous.name

    def on_epilog_end(self, goroutine) -> None:
        self.end(self._open[-1])
        self.set_env(goroutine.env.name)

    def on_execute_begin(self, goroutine, core: int) -> None:
        if self._smp:
            self.core = core
        self.begin("switch", f"execute:{goroutine.env.name}",
                   env=goroutine.env.name, goroutine=goroutine.id)

    def on_execute(self, goroutine, core: int) -> None:
        span = self._open[-1]
        self.set_env(goroutine.env.name, at=span.t0)
        self.end(span)

    def on_retag(self, env) -> None:
        self.instant("transfer", f"retag:{env.name}", env=env.name,
                     mechanism="libmpk")

    def on_transfer_begin(self, pkg: str, base: int, size: int) -> None:
        self.begin("transfer", f"transfer:{pkg}", pkg=pkg, base=base,
                   size=size, backend=self.backend)

    def on_syscall_enter(self, layer: str, nr: int, **detail) -> None:
        self.begin("syscall", f"{layer}:{syscall_name(nr)}", nr=nr,
                   **detail)

    def on_syscall_exit(self, layer: str, nr: int, ret) -> None:
        span = self._open[-1]
        if ret is not None:
            span.args["ret"] = ret
        self.end(span)

    def on_filter(self, mechanism, verdict, nr, env=None, **detail) -> None:
        if verdict == "inject":
            self.instant("filter", "filter:inject", env,
                         mechanism=mechanism, nr=nr, **detail)
            return
        name = "filter:allow" if verdict == "allow" else "filter:deny"
        self.instant("filter", name, env, mechanism=mechanism, nr=nr,
                     verdict=verdict, **detail)

    def on_vm_exit(self, reason: str, dur: float, exits: int) -> None:
        self.complete("vm_exit", f"vm_exit:{reason}", self.clock.now_ns,
                      dur, total_exits=exits)

    def on_violation(self, kind: str, **detail) -> None:
        self.instant("violation", f"violation:{kind}", **detail)

    def on_contain_begin(self, goroutine, fault) -> None:
        env = goroutine.env.name
        self.begin("contain", f"contain:{env}", env=env,
                   goroutine=goroutine.id, fault=fault.kind)

    def on_contain(self, goroutine, fault, env, unwound, reclaimed) -> None:
        span = self._open[-1]
        span.args.update(detail=fault.detail, unwound=unwound,
                         reclaimed_fds=reclaimed)
        self.end(span)

    def on_restart(self, env: str, goroutine) -> None:
        self.instant("contain", "contain:restart", env=env,
                     goroutine=goroutine.id, generation=goroutine.restarts)

    def on_quarantine(self, env, fault, count: int) -> None:
        self.instant("contain", "contain:quarantine", env=env.name,
                     fault=str(fault), fault_kind=fault.kind, faults=count)

    def on_revive(self, env) -> None:
        self.instant("contain", "contain:revive", env=env.name)

    def on_quota(self, env, resource, limit, used) -> None:
        self.instant("quota", f"quota:{resource}", env=env,
                     resource=resource, limit=limit, used=used)

    def on_shootdown(self, name: str, cost: float, ipis: int) -> None:
        self.complete("shootdown", name, self.clock.now_ns, cost, ipis=ipis)

    # -- queries -------------------------------------------------------------

    def select(self, kind: str | None = None, cat: str | None = None,
               env: str | None = None) -> list[TraceEvent]:
        """Events filtered by family (name prefix), category, and env."""
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if cat is not None and event.cat != cat:
                continue
            if env is not None and event.env != env:
                continue
            out.append(event)
        return out

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-environment sim-time breakdown.

        Returns ``{env: {"total_ns", "switch_ns", "syscall_ns",
        "transfer_ns", "contain_ns", "compute_ns", "counts": {...}}}``
        where ``syscall_ns`` folds in VM-exit time accumulated at top
        level, ``contain_ns`` is time spent unwinding/reclaiming after
        contained faults, and ``compute_ns`` is gross minus all
        enforcement categories.
        """
        now = self.clock.now_ns
        gross = dict(self._gross)
        gross[self._env] = gross.get(self._env, 0.0) + (now - self._env_since)

        counts: dict[tuple[str, str], int] = {}
        for event in self.events:
            key = (event.env, event.kind)
            counts[key] = counts.get(key, 0) + 1

        envs = set(gross)
        envs.update(env for env, _ in self._cat_ns)
        envs.update(env for env, _ in counts)

        out: dict[str, dict] = {}
        for env in sorted(envs):
            cats = {cat: self._cat_ns.get((env, cat), 0.0)
                    for cat in CATEGORIES}
            enforcement = sum(cats.values())
            total = gross.get(env, 0.0)
            env_counts = {kind: n for (e, kind), n in counts.items()
                          if e == env}
            out[env] = {
                "total_ns": total,
                "switch_ns": cats["switch"],
                "syscall_ns": cats["syscall"] + cats["vm_exit"],
                "transfer_ns": cats["transfer"],
                "contain_ns": cats["contain"],
                "compute_ns": max(0.0, total - enforcement),
                "counts": env_counts,
            }
            if cats["shootdown"]:
                # SMP only: zero on a single-core machine, where the
                # key is omitted so historical summaries are unchanged.
                out[env]["shootdown_ns"] = cats["shootdown"]
        return out

    def describe(self) -> list[str]:
        """Human-readable per-environment breakdown for ``--trace``."""

        def pct(part: float, whole: float) -> str:
            return f"{100.0 * part / whole:.1f}%" if whole else "0.0%"

        lines = [f"trace: {len(self.events)} enforcement events, "
                 f"{self.clock.now_ns / 1e6:.3f} ms simulated"]
        for env, row in self.summary().items():
            counts = row["counts"]
            total = row["total_ns"]
            denied = sum(1 for e in self.select(cat="filter", env=env)
                         if e.name == "filter:deny")
            lines.append(
                f"  {env}: total {total / 1e6:.3f} ms | "
                f"switch {pct(row['switch_ns'], total)} "
                f"(n={counts.get('prolog', 0) + counts.get('epilog', 0)}) "
                f"syscall {pct(row['syscall_ns'], total)} "
                f"(denied={denied}) "
                f"transfer {pct(row['transfer_ns'], total)} "
                f"(n={counts.get('transfer', 0)}) "
                f"vm-exits={counts.get('vm_exit', 0)} "
                f"violations={counts.get('violation', 0)} "
                f"contained={counts.get('contain', 0)} "
                f"compute {pct(row['compute_ns'], total)}")
        return lines

    # -- Chrome trace-event export -------------------------------------------

    def chrome_trace(self) -> dict:
        """Render the event list in Chrome trace-event JSON format.

        One process (the machine), one thread lane per execution
        environment, timestamps in microseconds as the format requires.
        Loadable in Perfetto / ``chrome://tracing``.
        """
        tids: dict[str, int] = {}

        def tid_of(env: str) -> int:
            if env not in tids:
                tids[env] = len(tids)
            return tids[env]

        tid_of(self._initial_env)  # lane 0 is always the starting env
        trace_events: list[dict] = []
        for event in self.events:
            record = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": event.ts / 1000.0,
                "pid": 1,
                "tid": tid_of(event.env or "?"),
                "args": dict(event.args),
            }
            if event.pkg:
                record["args"]["pkg"] = event.pkg
            if event.ph == "X":
                record["dur"] = event.dur / 1000.0
            elif event.ph == "i":
                record["s"] = "t"
            trace_events.append(record)
        metadata = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                     "args": {"name": "repro machine (simulated ns)"}}]
        for env, tid in sorted(tids.items(), key=lambda item: item[1]):
            metadata.append({"name": "thread_name", "ph": "M", "pid": 1,
                             "tid": tid, "args": {"name": f"env:{env}"}})
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "tool": "repro",
                "clock": "simulated-ns",
                "sim_total_ns": self.clock.now_ns,
            },
        }

    def write_chrome_trace(self, path: str | pathlib.Path) -> int:
        """Serialize :meth:`chrome_trace` to ``path``; returns the
        number of trace events written (metadata included)."""
        document = self.chrome_trace()
        pathlib.Path(path).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n")
        return len(document["traceEvents"])


#: The observer spine's typed event stream.  docs/INTERNALS.md
#: ("Observer spine") maps each event to its emit sites, signature and
#: subscribers; a subscriber handles one by defining ``on_<event>``.
EVENTS = (
    "prolog_begin", "prolog", "prolog_entered", "prolog_end",
    "epilog_begin", "epilog", "epilog_end",
    "execute_begin", "execute", "unwind", "retag",
    "filter", "syscall_enter", "syscall_exit",
    "transfer_begin", "transfer", "transfer_end", "vm_exit",
    "violation", "contain_begin", "contain", "restart", "quarantine",
    "revive", "quota", "shootdown", "finish",
    "spawn", "chan_send", "chan_recv", "sock_read", "endpoint_send",
    "backlog", "refused", "recycle",
)


def _fanout(handlers: tuple):
    def emit(*args, **kwargs) -> None:
        for handler in handlers:
            handler(*args, **kwargs)
    return handlers[0] if len(handlers) == 1 else emit


class Observers:
    """The observer spine: one typed event stream for every observer.

    Each enforcement and propagation point emits one event by calling the
    attribute named after it (``obs.prolog(...)``); the spine fans it out
    to every subscriber that defines ``on_<event>``, bound once here.
    The machine builds a spine only when some observer is on, so with
    all of them off every emit site is one ``obs is None`` test.  No
    handler may advance the SimClock.
    """

    def __init__(self, subscribers) -> None:
        subscribers = tuple(subscribers)
        for event in EVENTS:
            handlers = tuple(getattr(sub, "on_" + event)
                             for sub in subscribers
                             if hasattr(sub, "on_" + event))
            setattr(self, event, _fanout(handlers))


def validate_chrome_trace(source) -> int:
    """Strictly validate a Chrome trace-event document.

    ``source`` may be a dict (already parsed) or a path.  Raises
    :class:`TraceFormatError` on the first problem; returns the number
    of events on success.  Checks the JSON Object Format envelope and,
    per event, the phase-specific required fields — the invariants
    Perfetto's importer relies on.
    """
    if isinstance(source, (str, pathlib.Path)):
        try:
            document = json.loads(pathlib.Path(source).read_text())
        except json.JSONDecodeError as err:
            raise TraceFormatError(f"not JSON: {err}") from None
    else:
        document = source
    if not isinstance(document, dict):
        raise TraceFormatError("top level must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TraceFormatError("traceEvents must be a non-empty array")
    if document.get("displayTimeUnit") not in ("ms", "ns"):
        raise TraceFormatError("displayTimeUnit must be 'ms' or 'ns'")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TraceFormatError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in _PHASES:
            raise TraceFormatError(f"{where}: bad phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise TraceFormatError(f"{where}: missing {key!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise TraceFormatError(f"{where}: name must be a string")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int):
                raise TraceFormatError(f"{where}: {key} must be an int")
        if "args" in event and not isinstance(event["args"], dict):
            raise TraceFormatError(f"{where}: args must be an object")
        if ph == "M":
            continue
        if not isinstance(event.get("cat"), str):
            raise TraceFormatError(f"{where}: missing category")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TraceFormatError(f"{where}: ts must be a number >= 0")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceFormatError(f"{where}: dur must be a number >= 0")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise TraceFormatError(f"{where}: instant scope must be t/p/g")
    return len(events)
