"""Golden artifacts: every observer export pinned by digest.

Runs the HTTP macro (mpk, vtx, lwc) and one injected 4-core ``run_level``
with the tracer, metrics registry, profiler and span recorder all on,
and pins the sha256 of five artifacts per run:

* ``Tracer.chrome_trace()``
* ``MetricsRegistry.render_text(collect=False)``
* ``Profiler.folded()``
* ``span_trace(...)``
* ``Machine.containment_report()``

Each artifact is a pure function of the program, config and seed, so a
refactor of how observers are wired must leave every digest unchanged.
A digest that moves means an observer now sees a different event
stream; re-pin it only for a deliberate, explained behaviour change.
A second test checks that every subscriber handler names a spine event.

Regenerate after such a change with::

    PYTHONPATH=src python tests/test_observer_artifacts.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.machine import MachineConfig
from repro.metrics import EnforcementMetrics
from repro.profiler import Profiler
from repro.spans import SpanRecorder, span_trace
from repro.trace import EVENTS, Tracer
from repro.workloads import asynchttp, loadgen
from repro.workloads.httpserver import run_http_server

INJECT = "pkey@main_1:every=4;sysdeny@main_1:every=4,after=2"

ALL_OBSERVERS = dict(trace=True, metrics=True, profile=True, spans=True)

ARTIFACTS = ("chrome_trace", "exposition", "folded", "span_trace",
             "containment_report")

#: fixture -> artifact -> sha256 hex digest.
GOLDEN = {
    "http-lwc": {
        "chrome_trace":
            "1d9c2e2fd779d01f2a54e534e59d75fd0df9a662ade6dcdf46424a4c28737351",
        "exposition":
            "3c26624735084780d6d6de773d0dc0e8d70ee7aba61db2b44643df69f5a96b2a",
        "folded":
            "c45e4a12c5b483f1b70461d36e79a10fad0de40babd75f28dc7fcd71cb24df10",
        "span_trace":
            "cc4ab3876968160a9f3dfa92f63c80d73dc2c8725fa0d48b1220b82ce1dbc7ad",
        "containment_report":
            "d21f494c095d0571f90ff305b83803c660ad96378d978262e47ef4f1342b06c4",
    },
    "http-mpk": {
        "chrome_trace":
            "dde8a508619669784ed2e534ef9ecf046732b9299cd2487a824faf82da6cef06",
        "exposition":
            "a9d3b61cca9e16ac57f37dd3ad8c1b98c4033259e57ab931b65348d0fc800296",
        "folded":
            "8024b9802984aaae7b7c4d8564d21a679bcc5c85d05721d5aabd54c77ac3629b",
        "span_trace":
            "cc4ab3876968160a9f3dfa92f63c80d73dc2c8725fa0d48b1220b82ce1dbc7ad",
        "containment_report":
            "cf0a17b8927d2cdc14fb4dd3c655a7144ae346edc1231d4be82c8643646b8585",
    },
    "http-vtx": {
        "chrome_trace":
            "324f34ca2057b3e68070dfeeec69a807de3e9020d6ccae2f8813a5efda564cca",
        "exposition":
            "fbe5f323f86e392a090963a37bd77a8ea2db15061eafe98825529d7967b61fcc",
        "folded":
            "05aeae08a51282155635d2c636033fbd9a9911899736ba8113103459ed5ba52e",
        "span_trace":
            "cc4ab3876968160a9f3dfa92f63c80d73dc2c8725fa0d48b1220b82ce1dbc7ad",
        "containment_report":
            "94798459e4d4b9e3316d4d90e16ced0b2af539de2861d3aade1719588dc38ed5",
    },
    "level-mpk-4core": {
        "chrome_trace":
            "8282839c224c231e7a0d84fe493be186ddc347d61d21a3200ead1b53d81b5652",
        "exposition":
            "dc01da45c7703c732f8ceecac5fc1c4c0f2e97244c50c31d9924acaa50812d7d",
        "folded":
            "802c4cabd21cda9d4ba13d0e739cd4c2eb89f588e7c08dd40515def0d0b7afe8",
        "span_trace":
            "1865ad3de2a9163c68f8d2fbfb1c88d5d19f665b95cc6fb521c011f7703963b5",
        "containment_report":
            "104b4227d15916f174cbe65ab32265796c2695a75d991c2069a3962c1ce73e37",
    },
}


def _sha(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(value.encode()).hexdigest()


def _digests(machine, label: str) -> dict[str, str]:
    return {
        "chrome_trace": _sha(machine.tracer.chrome_trace()),
        "exposition": _sha(
            machine.metrics_registry.render_text(collect=False)),
        "folded": _sha(machine.profiler.folded()),
        "span_trace": _sha(span_trace([(label, machine.spans)])),
        "containment_report": _sha(machine.containment_report()),
    }


def _http(backend: str) -> dict[str, str]:
    config = MachineConfig(backend=backend, fault_policy="quarantine",
                           quarantine_threshold=1000, inject=INJECT,
                           **ALL_OBSERVERS)
    driver = run_http_server(backend, config=config)
    for _ in range(20):
        driver.request()
    return _digests(driver.machine, "http")


def _level() -> dict[str, str]:
    config = MachineConfig(backend="mpk", cores=4,
                           fault_policy="quarantine",
                           quarantine_threshold=3,
                           inject="pkey@main_1:every=10",
                           span_seed=7, **ALL_OBSERVERS)
    # run_level's own body, kept here so the machine stays reachable.
    machine = asynchttp.run_async_server("mpk", config=config, workers=4)
    arrivals = loadgen.poisson_arrivals(40_000.0, 60, 7)
    ports = [asynchttp.PORT + i for i in range(4)]
    loadgen.OpenLoopLoadGen(machine, arrivals, 8, ports=ports).run()
    return _digests(machine, "level")


FIXTURES = {
    "http-mpk": lambda: _http("mpk"),
    "http-vtx": lambda: _http("vtx"),
    "http-lwc": lambda: _http("lwc"),
    "level-mpk-4core": _level,
}


def _sha_table(fixture: str) -> dict[str, str]:
    digests = FIXTURES[fixture]()
    assert set(digests) == set(ARTIFACTS)
    return digests


@pytest.mark.parametrize("subscriber",
                         [Tracer, EnforcementMetrics, Profiler, SpanRecorder])
def test_every_handler_names_an_event(subscriber):
    """The spine binds ``on_<event>`` by name, so a misspelled handler
    would silently never run."""
    handlers = {name[3:] for name in dir(subscriber)
                if name.startswith("on_")}
    assert handlers and handlers <= set(EVENTS), handlers - set(EVENTS)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_observer_artifacts_match_golden(fixture):
    assert _sha_table(fixture) == GOLDEN[fixture]


if __name__ == "__main__":
    print(json.dumps({name: _sha_table(name) for name in sorted(FIXTURES)},
                     indent=4))
