"""Per-enclosure resource quotas for the multi-tenant platform.

One machine hosting hundreds of tenant enclosures needs more than
memory isolation: a runaway tenant must not starve everyone else of
CPU, heap, or file descriptors.  This module is the policy table; the
enforcement hooks live at the layers that already meter each resource:

* ``steps`` — simulated-CPU instructions, charged by the scheduler at
  every *completed* time slice to the environment the goroutine ended
  the slice in.  Metering is deliberately slice-granular: a tenant that
  yields within its slice is by construction not monopolizing the CPU,
  while a runaway loop burns whole 200k-instruction slices inside its
  enclosure and trips the budget after a few rotations.
* ``spans`` — heap spans concurrently assigned to the tenant's arena,
  charged by :meth:`~repro.runtime.allocator.Allocator._grab_span`
  before the span is transferred and released when the arena is
  recycled (eviction).
* ``fds`` — open file descriptors owned by the tenant, charged by the
  kernel's fd allocator and released on close / goroutine reclaim.

An overrun raises :class:`~repro.errors.QuotaFault`, which the
scheduler contains exactly like a memory or syscall fault: the
offending goroutine dies at the trust boundary and the overrun counts
toward the enclosure's quarantine breaker.

Targets name *enclosures* (environment names such as ``t007_1``), or
``*`` for every enclosure.  The trusted environment and non-enclosure
packages are never metered — quotas restrict untrusted tenants, not
the runtime that hosts them.  Span charges arrive keyed by the
enclosure pseudo-package (``encl.t007_1``); the table strips the
prefix so one target spelling covers all three resources.

Bit-identity contract: like the tracer, metrics, and injector, the
quota table charges no simulated time and every hook site is a single
``is None`` test, so machines built without ``MachineConfig(quotas=)``
are bit-identical to machines that never had the feature.

Spec grammar (mirrors :mod:`repro.inject`)::

    SPEC   := CLAUSE (';' CLAUSE)*
    CLAUSE := TARGET ':' RES '=' N (',' RES '=' N)*
    RES    := steps | spans | fds
    TARGET := an enclosure name (e.g. ``t007_1``) | '*'
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, QuotaFault

RESOURCES = ("steps", "spans", "fds")

#: Prefix of enclosure pseudo-packages (allocation attribution).
_ENCL_PREFIX = "encl."


@dataclass(frozen=True)
class QuotaSpec:
    """Resource limits for one target; ``None`` leaves a resource
    unmetered."""

    steps: int | None = None
    spans: int | None = None
    fds: int | None = None


def parse_quota_spec(spec: str) -> dict[str, QuotaSpec]:
    """Parse ``TARGET:res=N[,res=N...][;...]`` into a target map.

    Every malformed clause is rejected with a :class:`ConfigError`
    naming the offending clause text — never a raw ``ValueError``.
    """
    table: dict[str, QuotaSpec] = {}
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        target, sep, opts_text = raw.partition(":")
        target = target.strip()
        if not sep or not target or not opts_text.strip():
            raise ConfigError(
                f"quota clause {raw!r}: expected TARGET:res=N[,res=N...]")
        if target in table:
            raise ConfigError(
                f"quota clause {raw!r}: duplicate target {target!r}")
        limits: dict[str, int] = {}
        for opt in opts_text.split(","):
            key, sep, value = opt.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise ConfigError(
                    f"quota clause {raw!r}: bad option {opt!r}")
            if key not in RESOURCES:
                raise ConfigError(
                    f"quota clause {raw!r}: unknown resource {key!r} "
                    f"(choose from {', '.join(RESOURCES)})")
            if key in limits:
                raise ConfigError(
                    f"quota clause {raw!r}: duplicate resource {key!r}")
            try:
                limit = int(value)
            except ValueError:
                raise ConfigError(
                    f"quota clause {raw!r}: bad value {value!r} for "
                    f"{key!r}") from None
            if limit < 1:
                raise ConfigError(
                    f"quota clause {raw!r}: {key}={limit} must be >= 1")
            limits[key] = limit
        table[target] = QuotaSpec(**limits)
    if not table:
        raise ConfigError(f"quota spec {spec!r} has no clauses")
    return table


class QuotaTable:
    """Per-enclosure usage accounting against a parsed spec.

    The machine wires one instance onto the scheduler, allocator, and
    kernel.  All charge methods are no-ops for untargeted names, so a
    table with one tenant clause costs the rest of the machine a dict
    miss per charge site.
    """

    def __init__(self, spec: str | dict[str, QuotaSpec]):
        self.specs = (parse_quota_spec(spec) if isinstance(spec, str)
                      else dict(spec))
        self.steps_used: dict[str, int] = {}
        self.spans_used: dict[str, int] = {}
        self.fds_used: dict[str, int] = {}
        #: Overruns observed, in order: (enclosure, resource).
        self.exceeded: list[tuple[str, str]] = []
        self.obs = None  # observer spine (repro.trace.Observers)

    # -- lookup ---------------------------------------------------------------

    def _spec_for(self, name: str) -> QuotaSpec | None:
        spec = self.specs.get(name)
        return spec if spec is not None else self.specs.get("*")

    def _exceed(self, name: str, resource: str, limit: int, used: int,
                env_id: int | None = None, pkg: str = "") -> None:
        self.exceeded.append((name, resource))
        if self.obs is not None:
            self.obs.quota(name, resource, limit, used)
        raise QuotaFault(
            f"enclosure {name!r} exceeded its {resource} quota "
            f"({used} > {limit})", resource=resource, limit=limit,
            used=used, env_id=env_id, env_name=name, pkg=pkg)

    # -- steps (scheduler, slice-granular) ------------------------------------

    def charge_steps(self, env, steps: int) -> None:
        """Charge one completed slice's instructions to ``env``.

        Raises :class:`QuotaFault` once the environment's cumulative
        budget is exhausted (the counter keeps the overrun so repeated
        entries keep failing until :meth:`reset`)."""
        if env.spec is None:
            return  # the trusted environment is never metered
        spec = self._spec_for(env.name)
        if spec is None or spec.steps is None:
            return
        used = self.steps_used.get(env.name, 0) + steps
        self.steps_used[env.name] = used
        if used > spec.steps:
            self._exceed(env.name, "steps", spec.steps, used,
                         env_id=env.id)

    # -- spans (allocator) ----------------------------------------------------

    def charge_span(self, pkg: str) -> None:
        """Account one span about to be assigned to ``pkg``'s arena."""
        if not pkg.startswith(_ENCL_PREFIX):
            return  # only enclosure arenas are metered
        name = pkg[len(_ENCL_PREFIX):]
        spec = self._spec_for(name)
        if spec is None or spec.spans is None:
            return
        used = self.spans_used.get(name, 0) + 1
        if used > spec.spans:
            self._exceed(name, "spans", spec.spans, used, pkg=pkg)
        self.spans_used[name] = used

    def release_spans(self, pkg: str, count: int) -> None:
        """Return ``count`` spans recycled out of ``pkg``'s arena."""
        if not pkg.startswith(_ENCL_PREFIX):
            return
        name = pkg[len(_ENCL_PREFIX):]
        if name in self.spans_used:
            self.spans_used[name] = max(0, self.spans_used[name] - count)

    # -- fds (kernel) ---------------------------------------------------------

    def charge_fd(self, env) -> bool:
        """Account one fd about to be handed to code running in ``env``.

        Returns True when the fd was charged (the kernel then records
        the owner for the matching release)."""
        if env.spec is None:
            return False
        spec = self._spec_for(env.name)
        if spec is None or spec.fds is None:
            return False
        used = self.fds_used.get(env.name, 0) + 1
        if used > spec.fds:
            self._exceed(env.name, "fds", spec.fds, used, env_id=env.id)
        self.fds_used[env.name] = used
        return True

    def release_fd(self, name: str) -> None:
        if name in self.fds_used:
            self.fds_used[name] = max(0, self.fds_used[name] - 1)

    # -- lifecycle ------------------------------------------------------------

    def reset(self, name: str) -> None:
        """Grant a revived tenant a fresh step budget.

        Span usage is *not* reset: the tenant still holds its arena
        across a revival (only eviction recycles it, which releases
        spans through :meth:`release_spans`).  fd usage is already
        decremented by the reclaim that killed the tenant's goroutines.
        """
        self.steps_used.pop(name, None)

    def snapshot(self) -> dict:
        """Usage + overrun accounting for study reports."""
        return {
            "steps_used": dict(sorted(self.steps_used.items())),
            "spans_used": dict(sorted(self.spans_used.items())),
            "fds_used": dict(sorted(self.fds_used.items())),
            "exceeded": [{"enclosure": n, "resource": r}
                         for n, r in self.exceeded],
        }
