"""Prometheus-style metrics registry for enforcement telemetry.

PR 2's tracer answers "what happened, when" at event granularity; this
module answers "how much, in aggregate" — the cheap always-on counters,
gauges and histograms an operator would scrape from a production
deployment of the paper's runtime.  Every enforcement point (Prolog /
Epilog switches, FilterSyscall verdicts, Transfer bytes, VM exits,
quarantine trips, fault containments) increments a family here, and the
HTTP workloads observe per-request latency histograms.

Design rules (mirroring the tracer's contract):

* **Null path** — :class:`EnforcementMetrics` is one subscriber of the
  observer spine (``repro.trace.Observers``); when every observer is
  off no spine exists and every emit site is a single ``obs is None``
  test.  No simulated cost is ever charged by a metric, so sim-ns stays
  bit-identical whether metrics are on or off.
* **Determinism** — exposition output is byte-identical across runs:
  families render sorted by name, children sorted by label values,
  values formatted canonically.  No wall-clock anywhere.
* **Bounded cardinality** — label values come only from closed sets
  (env names, package names, syscall categories, verdict kinds, VM exit
  reasons, workload names); never request paths, addresses, or ids.

The text exposition follows the Prometheus text format 0.0.4
(``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
histogram ``_bucket``/``_sum``/``_count`` series), and
:func:`validate_exposition` is a strict checker in the same spirit as
``trace.validate_chrome_trace``.
"""

from __future__ import annotations

import json
import re

from repro.os.syscalls import CATEGORY_OF


class MetricsFormatError(Exception):
    """The exposition text violates the Prometheus text format."""


#: Log-scale default buckets: half-decade steps from 100 sim-ns to
#: 100 sim-ms.  Wide enough for both switch costs (~hundreds of ns)
#: and macro request latencies (~tens of µs).
DEFAULT_BUCKETS = tuple(float(round(10 ** (k / 2))) for k in range(4, 17))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _fmt(value: float) -> str:
    """Canonical sample-value formatting (deterministic across runs)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


class MetricFamily:
    """Common machinery: a named family with a fixed label schema and
    one child per observed label-value tuple."""

    typename = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: tuple[str, ...] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"want {sorted(self.labelnames)}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def _series_name(self, key: tuple[str, ...],
                     const: tuple[tuple[str, str], ...],
                     suffix: str = "",
                     extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = const + tuple(zip(self.labelnames, key)) + extra
        if not pairs:
            return self.name + suffix
        body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
        return f"{self.name}{suffix}{{{body}}}"

    def samples(self, const: tuple[tuple[str, str], ...]):
        """Yield ``(series, value)`` pairs, children sorted by labels."""
        raise NotImplementedError

    def render_lines(self, const: tuple[tuple[str, str], ...],
                     exemplars: bool = False):
        """Yield formatted sample lines.  ``exemplars`` is accepted by
        every family but only histograms attach them (see the
        :class:`Histogram` override); with it off the output is
        byte-identical to the pre-exemplar format."""
        for series, value in self.samples(const):
            yield f"{series} {_fmt(value)}"


class Counter(MetricFamily):
    """Monotonically increasing count (renders as TYPE counter)."""

    typename = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._children.get(self._key(labels), 0.0)

    def total(self) -> float:
        return sum(self._children.values())

    def samples(self, const):
        for key in sorted(self._children):
            yield self._series_name(key, const), self._children[key]


class Gauge(MetricFamily):
    """A value that can go up and down; may be backed by a callable
    evaluated at render time (e.g. the sim clock)."""

    typename = "gauge"

    def __init__(self, name, help_text, labelnames=()):
        super().__init__(name, help_text, labelnames)
        self._fn = None

    def set(self, value: float, **labels: str) -> None:
        self._children[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0.0) + amount

    def set_function(self, fn) -> "Gauge":
        """Evaluate ``fn()`` at render time (labelless gauges only)."""
        if self.labelnames:
            raise ValueError(f"{self.name}: set_function needs no labels")
        self._fn = fn
        return self

    def value(self, **labels: str) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._children.get(self._key(labels), 0.0)

    def samples(self, const):
        if self._fn is not None:
            yield self._series_name((), const), float(self._fn())
            return
        for key in sorted(self._children):
            yield self._series_name(key, const), self._children[key]


class _HistChild:
    __slots__ = ("counts", "total", "count", "exemplars")

    def __init__(self, nbuckets: int) -> None:
        self.counts = [0] * nbuckets
        self.total = 0.0
        self.count = 0
        #: Lazily-allocated ``{bucket index: (trace_id, value)}`` map —
        #: the latest exemplar observed per bucket.  ``None`` until the
        #: first exemplar so exemplar-free histograms pay nothing.
        self.exemplars: dict | None = None


class Histogram(MetricFamily):
    """Cumulative-bucket histogram (renders _bucket/_sum/_count)."""

    typename = "histogram"

    def __init__(self, name, help_text, labelnames=(),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help_text, labelnames)
        buckets = tuple(float(b) for b in buckets)
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError(f"{name}: buckets must be sorted, non-empty")
        if buckets[-1] != float("inf"):
            buckets = buckets + (float("inf"),)
        self.buckets = buckets

    def observe(self, value: float, exemplar: str | None = None,
                **labels: str) -> None:
        """Record ``value``; an optional ``exemplar`` (a lowercase-hex
        trace id) is attached to the bucket the value lands in —
        last-writer-wins per bucket, so cardinality is bounded by the
        bucket count regardless of traffic volume."""
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistChild(len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                child.counts[i] += 1
                if exemplar is not None:
                    if child.exemplars is None:
                        child.exemplars = {}
                    child.exemplars[i] = (exemplar, value)
                break
        child.total += value
        child.count += 1

    def child_count(self, **labels: str) -> int:
        child = self._children.get(self._key(labels))
        return child.count if child is not None else 0

    def samples(self, const):
        for key in sorted(self._children):
            child = self._children[key]
            cumulative = 0
            for bound, n in zip(self.buckets, child.counts):
                cumulative += n
                series = self._series_name(
                    key, const, "_bucket", (("le", _fmt(bound)),))
                yield series, cumulative
            yield self._series_name(key, const, "_sum"), child.total
            yield self._series_name(key, const, "_count"), child.count

    def render_lines(self, const, exemplars: bool = False):
        """OpenMetrics-style exemplar suffix on ``_bucket`` lines:
        ``series value # {trace_id="…"} exemplar_value``.  Only emitted
        when asked for — the default exposition never changes shape."""
        if not exemplars:
            yield from super().render_lines(const)
            return
        for key in sorted(self._children):
            child = self._children[key]
            cumulative = 0
            for i, (bound, n) in enumerate(zip(self.buckets,
                                               child.counts)):
                cumulative += n
                series = self._series_name(
                    key, const, "_bucket", (("le", _fmt(bound)),))
                line = f"{series} {_fmt(cumulative)}"
                ex = (child.exemplars.get(i)
                      if child.exemplars is not None else None)
                if ex is not None:
                    line += f' # {{trace_id="{ex[0]}"}} {_fmt(ex[1])}'
                yield line
            sum_series = self._series_name(key, const, "_sum")
            yield f"{sum_series} {_fmt(child.total)}"
            count_series = self._series_name(key, const, "_count")
            yield f"{count_series} {_fmt(child.count)}"


class MetricsRegistry:
    """Holds metric families; renders text + JSON expositions.

    ``const_labels`` (e.g. ``{"backend": "mpk"}``) are stamped onto
    every series so per-backend attribution needs no plumbing at the
    hook sites.
    """

    def __init__(self, const_labels: dict[str, str] | None = None) -> None:
        self._families: dict[str, MetricFamily] = {}
        self.const_labels = tuple(sorted((const_labels or {}).items()))
        self._collectors: list = []

    def add_collector(self, fn) -> None:
        """Register ``fn`` to run before each exposition render.

        Collectors pull values from sources that update continuously
        (e.g. the interpreter's JIT counters) so the registry never
        sits on hot paths.  The in-simulation ``/metrics`` route skips
        them (``collect=False``): wall-clock-only state must not leak
        into a simulated response body, whose length is charged."""
        self._collectors.append(fn)

    def _collect(self) -> None:
        for fn in self._collectors:
            fn()

    def _register(self, family: MetricFamily) -> MetricFamily:
        if family.name in self._families:
            raise ValueError(f"duplicate metric {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(self, name, help_text, labelnames=()) -> Counter:
        return self._register(Counter(name, help_text, labelnames))

    def gauge(self, name, help_text, labelnames=()) -> Gauge:
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(self, name, help_text, labelnames=(),
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._register(
            Histogram(name, help_text, labelnames, buckets))

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    # -- exposition ----------------------------------------------------------

    def render_text(self, collect: bool = True,
                    exemplars: bool = False) -> str:
        """Prometheus text format 0.0.4, byte-deterministic.

        ``exemplars=True`` appends OpenMetrics-style exemplar suffixes
        to histogram bucket lines; the default rendering is
        byte-identical to the pre-exemplar format."""
        if collect:
            self._collect()
        out: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            out.append(f"# HELP {name} {family.help_text}")
            out.append(f"# TYPE {name} {family.typename}")
            out.extend(family.render_lines(self.const_labels, exemplars))
        return "\n".join(out) + "\n"

    def render_json(self, collect: bool = True) -> str:
        if collect:
            self._collect()
        doc: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            doc[name] = {
                "type": family.typename,
                "help": family.help_text,
                "samples": [
                    {"series": series, "value": value}
                    for series, value in family.samples(self.const_labels)
                ],
            }
        return json.dumps(doc, indent=1, sort_keys=True)


class EnforcementMetrics:
    """The standard family set fed by the machine's enforcement points.
    One instance per :class:`~repro.machine.Machine`, subscribed to its
    observer spine through the ``on_<event>`` handlers below."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.switches = registry.counter(
            "enclosure_switches_total",
            "Environment switches by LitterBox hook (Prolog/Epilog/"
            "Execute/unwind) and target env.",
            ("env", "kind"))
        self.verdicts = registry.counter(
            "syscall_verdicts_total",
            "FilterSyscall decisions by enforcing mechanism, verdict, "
            "and syscall category.",
            ("mechanism", "verdict", "category"))
        self.transfers = registry.counter(
            "enclosure_transfers_total",
            "Transfer hook invocations by receiving package.",
            ("pkg",))
        self.transfer_bytes = registry.counter(
            "enclosure_transfer_bytes_total",
            "Bytes of arena ownership moved by the Transfer hook.",
            ("pkg",))
        self.vm_exits = registry.counter(
            "vm_exits_total",
            "VT-x VM exits by exit reason.",
            ("reason",))
        self.contained = registry.counter(
            "contained_faults_total",
            "Faults contained (not aborted) by faulting env and kind.",
            ("env", "kind"))
        self.quarantined = registry.gauge(
            "quarantined_enclosures",
            "1 when the enclosure's quarantine breaker has tripped.",
            ("env",))
        self.request_latency = registry.histogram(
            "http_request_latency_ns",
            "Per-request simulated latency through the macro workloads.",
            ("workload",))
        # Multi-tenant platform (quotas + lifecycle).  Tenant-labelled
        # families are bounded by the platform's tenant count (the
        # study's ~100), which the cardinality rules treat like the
        # per-env enforcement counters above.
        self.quota_exceeded = registry.counter(
            "quota_exceeded_total",
            "Per-enclosure resource-quota overruns by enclosure and "
            "resource (steps/spans/fds).",
            ("env", "resource"))
        self.tenant_state = registry.gauge(
            "tenant_state",
            "One-hot tenant lifecycle state (draft/approved/live/"
            "quarantined/evicted).",
            ("tenant", "state"))
        self.allocator_reclaimed_bytes = registry.counter(
            "allocator_reclaimed_bytes_total",
            "Heap bytes returned to the central free list by "
            "Allocator.recycle_package, by recycled package.",
            ("pkg",))
        self.tenant_latency = registry.histogram(
            "tenant_request_latency_ns",
            "Per-tenant simulated request latency through the "
            "multi-tenant platform.",
            ("tenant",))
        self.accept_queue_depth = registry.gauge(
            "accept_queue_depth",
            "Pending connections in a listener's accept queue "
            "(backpressure signal; port cardinality is one per server).",
            ("port",))
        self.accept_queue_refused = registry.counter(
            "accept_queue_refused_total",
            "Connections refused because the accept queue was full "
            "(kernel-level load shedding), by listener port.",
            ("port",))
        # JIT observability (wall-clock only; synced from PerfStats by
        # a render-time collector, never by the interpreter hot loop).
        self.jit_traces_compiled = registry.counter(
            "jit_traces_compiled_total",
            "Trace regions compiled to Python by the interpreter JIT.")
        self.jit_trace_executions = registry.counter(
            "jit_trace_executions_total",
            "Completed executions of compiled traces.")
        self.jit_deopts = registry.counter(
            "jit_deopts_total",
            "Mid-trace deoptimizations back to the interpreter, by "
            "reason.",
            ("reason",))
        self._jit_synced: dict[str, int] = {}

    # -- spine subscriber (see repro.trace.Observers) -------------------------

    def on_prolog(self, goroutine, current, target) -> None:
        self.switches.inc(env=target.name, kind="prolog")

    def on_epilog(self, goroutine, left, previous) -> None:
        self.switches.inc(env=previous.name, kind="epilog")

    def on_execute(self, goroutine, core: int) -> None:
        self.switches.inc(env=goroutine.env.name, kind="execute")

    def on_unwind(self, env) -> None:
        self.switches.inc(env=env.name, kind="unwind")

    def on_retag(self, env) -> None:
        self.switches.inc(env=env.name, kind="retag")

    def on_filter(self, mechanism, verdict, nr, env=None, **detail) -> None:
        # An injected errno is counted as the errno it forces.
        self.verdicts.inc(
            mechanism=mechanism,
            verdict="errno" if verdict == "inject" else verdict,
            category=CATEGORY_OF.get(nr, "other"))

    def on_transfer(self, pkg: str, size: int) -> None:
        self.transfers.inc(pkg=pkg)
        self.transfer_bytes.inc(size, pkg=pkg)

    def on_vm_exit(self, reason: str, dur: float, exits: int) -> None:
        self.vm_exits.inc(reason=reason)

    def on_contain(self, goroutine, fault, env, unwound, reclaimed) -> None:
        self.contained.inc(env=env, kind=fault.kind)

    def on_quarantine(self, env, fault, count: int) -> None:
        self.quarantined.set(1, env=env.name)

    def on_revive(self, env) -> None:
        self.quarantined.set(0, env=env.name)

    def on_quota(self, env, resource, limit, used) -> None:
        self.quota_exceeded.inc(env=env, resource=resource)

    def on_backlog(self, port: int, depth: int) -> None:
        self.accept_queue_depth.set(depth, port=str(port))

    def on_refused(self, port: int) -> None:
        self.accept_queue_refused.inc(port=str(port))

    def on_recycle(self, pkg: str, nbytes: int) -> None:
        self.allocator_reclaimed_bytes.inc(nbytes, pkg=pkg)

    def sync_jit(self, perf) -> None:
        """Mirror the interpreter's JIT counters into the exposition.

        Called by the registry's collector hook at render time.
        Counters only move forward, so the delta since the previous
        sync is added — repeated scrapes stay monotonic."""
        synced = self._jit_synced

        def bump(counter, key, value, **labels):
            delta = value - synced.get(key, 0)
            if delta > 0:
                counter.inc(delta, **labels)
                synced[key] = value

        bump(self.jit_traces_compiled, "compiled", perf.jit_traces_compiled)
        bump(self.jit_trace_executions, "executions",
             perf.jit_trace_executions)
        for reason, count in perf.jit_deopts.items():
            bump(self.jit_deopts, f"deopt:{reason}", count, reason=reason)


# -- validation ---------------------------------------------------------------

_NUM_PAT = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[+-]Inf|NaN"
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    rf" ({_NUM_PAT})"
    # Optional OpenMetrics-style exemplar, valid only on histogram
    # _bucket lines (checked by the validator, not the regex).
    rf"(?: # \{{trace_id=\"([0-9a-f]+)\"\}} ({_NUM_PAT}))?$")
_LE_RE = re.compile(r'le="((?:[^"\\]|\\.)*)"')
_LE_PAIR_RE = re.compile(r'le="(?:[^"\\]|\\.)*"')


def _strip_le(labels: str) -> str:
    """Remove the ``le`` pair (and any dangling comma) so bucket lines
    key to the same histogram child as ``_sum``/``_count``."""
    return _LE_PAIR_RE.sub("", labels).replace(",,", ",").strip(",")


def _parse_num(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def validate_exposition(source) -> int:
    """Strictly validate Prometheus text exposition 0.0.4.

    ``source`` is a path or raw exposition text.  Returns the number of
    sample lines; raises :class:`MetricsFormatError` on any violation
    (unknown type, sample without HELP/TYPE, duplicate series,
    malformed line, or an inconsistent histogram: non-monotonic or
    missing ``+Inf`` buckets, ``_count`` != the ``+Inf`` bucket).
    """
    if "\n" in source or source.startswith("#"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    if text and not text.endswith("\n"):
        raise MetricsFormatError("exposition must end with a newline")

    helped: set[str] = set()
    types: dict[str, str] = {}
    seen_series: set[str] = set()
    hist: dict[str, dict] = {}  # base series (labels sans le) -> state
    samples = 0

    def base_name(metric: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = metric[:-len(suffix)] if metric.endswith(suffix) else ""
            if stripped and types.get(stripped) == "histogram":
                return stripped
        return metric

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise MetricsFormatError(f"line {lineno}: bad HELP line")
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise MetricsFormatError(f"line {lineno}: bad TYPE line")
            _, _, name, typename = parts
            if typename not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                raise MetricsFormatError(
                    f"line {lineno}: unknown type {typename!r}")
            if name in types:
                raise MetricsFormatError(
                    f"line {lineno}: duplicate TYPE for {name}")
            types[name] = typename
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise MetricsFormatError(
                f"line {lineno}: malformed sample {line!r}")
        metric, labels, value_text, ex_id, ex_value = match.groups()
        base = base_name(metric)
        if base not in types or base not in helped:
            raise MetricsFormatError(
                f"line {lineno}: sample {metric!r} without HELP/TYPE "
                f"for {base!r}")
        if ex_id is not None:
            # Exemplars are only meaningful on histogram bucket lines.
            if (types.get(base) != "histogram" or metric == base
                    or not metric.endswith("_bucket")):
                raise MetricsFormatError(
                    f"line {lineno}: exemplar on non-bucket series "
                    f"{metric!r}")
            _parse_num(ex_value)
        # Rebuild the series id from the parse rather than splitting the
        # line: an exemplar suffix would otherwise leak into the id.
        series_id = metric if labels is None else f"{metric}{{{labels}}}"
        if series_id in seen_series:
            raise MetricsFormatError(
                f"line {lineno}: duplicate series {series_id!r}")
        seen_series.add(series_id)
        samples += 1
        value = _parse_num(value_text)
        if types[base] == "histogram" and metric != base:
            le_match = _LE_RE.search(labels or "")
            key = (base, _strip_le(labels or ""))
            state = hist.setdefault(
                key, {"prev": -1.0, "last": None, "inf": None,
                      "count": None, "line": lineno})
            if metric.endswith("_bucket"):
                if le_match is None:
                    raise MetricsFormatError(
                        f"line {lineno}: _bucket without le label")
                bound = _parse_num(le_match.group(1))
                if state["last"] is not None and bound <= state["last"]:
                    raise MetricsFormatError(
                        f"line {lineno}: bucket bounds not increasing")
                if state["prev"] >= 0 and value < state["prev"]:
                    raise MetricsFormatError(
                        f"line {lineno}: bucket counts not cumulative")
                state["last"] = bound
                state["prev"] = value
                if bound == float("inf"):
                    state["inf"] = value
            elif metric.endswith("_count"):
                state["count"] = value

    for (base, _labels), state in hist.items():
        if state["inf"] is None:
            raise MetricsFormatError(
                f"histogram {base!r}: missing +Inf bucket")
        if state["count"] is not None and state["count"] != state["inf"]:
            raise MetricsFormatError(
                f"histogram {base!r}: _count {state['count']} != +Inf "
                f"bucket {state['inf']}")
    return samples
