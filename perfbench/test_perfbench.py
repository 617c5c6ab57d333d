"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
from quantiles import highest_supported, quantile, rank

sys.path.insert(0, str(run.SRC))


# -- exact quantiles ----------------------------------------------------------

def _order_statistic(values: list[float], q: float) -> float:
    """Brute force: the smallest sample with at least q*n samples <= it."""
    n = len(values)
    for candidate in sorted(values):
        if sum(v <= candidate for v in values) >= q * n - 1e-9:
            return candidate
    raise AssertionError("unreachable")


@pytest.mark.parametrize("seed", range(20))
def test_quantile_is_exact_order_statistic(seed):
    rng = random.Random(seed)
    values = [rng.choice((rng.random(), rng.randint(0, 5)))
              for _ in range(rng.randint(1, 300))]
    ordered = sorted(values)
    for q in ("0.5", "0.9", "0.99", "0.999", "1"):
        assert quantile(ordered, q) == _order_statistic(values, float(q))


def test_rank_has_no_float_artefacts():
    assert rank(1500, "0.99") == 1485
    assert rank(1500, "0.999") == 1499
    assert rank(1000, 0.99) == 990
    with pytest.raises(ValueError):
        rank(0, "0.5")


def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert highest_supported(1500) == "99"
    assert highest_supported(1250) == "99"
    assert highest_supported(999) == "90"
    assert highest_supported(10_000) == "99.9"
    assert highest_supported(2) is None


# -- layer map ----------------------------------------------------------------

def test_every_repro_module_has_a_layer():
    modules = layers.repro_modules(run.SRC)
    assert "repro.isa.jit" in modules and "repro.machine" in modules
    unmapped = [m for m in modules if layers.layer_of_module(m) is None]
    assert not unmapped, f"modules without a layer: {unmapped}"
    assert {layers.layer_of_module(m) for m in modules} <= set(layers.LAYERS)


def test_unmapped_module_is_refused():
    assert layers.layer_of_module("repro.newmodule") is None
    assert layers.layer_of_module("repro.newpkg.mod") is None
    layer_map = layers.LayerMap(run.SRC, run.HERE)
    fake = str(run.SRC / "repro" / "newmodule.py")
    with pytest.raises(KeyError):
        layer_map.layer_of_file(fake)


def test_split_charges_foreign_code_to_its_callers():
    src = run.SRC / "repro"
    jit = ("<jit:0x40>", 1, "_trace")
    interp = (str(src / "isa" / "interp.py"), 10, "run_slice")
    mmu = (str(src / "hw" / "mmu.py"), 5, "read_word")
    helper = ("/usr/lib/python3/random.py", 1, "random")
    nested = ("/usr/lib/python3/bisect.py", 1, "helper")
    stats = {
        interp: (1, 1, 2.0, 10.0, {}),
        jit: (30, 30, 3.0, 5.0, {interp: (30, 30, 3.0, 5.0)}),
        mmu: (7, 7, 1.0, 1.0, {jit: (5, 5, 0.5, 0.5),
                               interp: (2, 2, 0.5, 0.5)}),
        helper: (4, 4, 1.0, 2.0, {mmu: (1, 1, 0.25, 0.5),
                                  interp: (3, 3, 0.75, 1.5)}),
        nested: (4, 4, 1.0, 1.0, {helper: (4, 4, 1.0, 1.0)}),
    }
    self_s, calls = layers.split(stats, layers.LayerMap(run.SRC, run.HERE))
    assert self_s["isa.interp"] == pytest.approx(2.0 + 0.75 + 0.75)
    assert self_s["hw"] == pytest.approx(1.0 + 0.25 + 0.25)
    assert self_s["isa.jit"] == pytest.approx(3.0)
    assert sum(self_s.values()) == pytest.approx(8.0)
    assert calls["isa.jit"] == 30 and calls["hw"] == 7
    assert calls["isa.interp"] == 0


# -- BENCHMARK.json agrees with what the benchmark prints ---------------------

def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    from scenarios import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the harness reproduces the public entry points ---------------------------

def test_serve_harness_matches_run_level():
    from repro.workloads import loadgen
    from scenarios import Serve
    serve = Serve()
    arrivals = loadgen.poisson_arrivals(serve.RATE_RPS, 120, 3)
    ours = serve._serve(serve._boot({"warmup": []}), arrivals)
    ref = loadgen.run_level(serve.BACKEND, serve.RATE_RPS, 120, 3,
                            pool=serve.POOL, cores=serve.CORES)
    assert ours.latencies_ns == ref.latencies_ns
    assert (ours.ok, ours.duration_ns) == (ref.ok, ref.duration_ns)


def test_tenants_harness_matches_run_tenants_study(monkeypatch):
    from repro.workloads import tenants
    from scenarios import Tenants
    monkeypatch.setattr(Tenants, "TENANTS", 10)
    monkeypatch.setattr(Tenants, "REQUESTS", 200)
    ours = Tenants()
    state = ours.setup(5)
    episode = ours.episode(state)
    ref = tenants.run_tenants_study(
        ours.BACKEND, tenants=10, requests=200, offered_rps=ours.RATE_RPS,
        seed=5, faulty_frac=ours.FAULTY, cpuhog_frac=ours.CPUHOG,
        memhog_frac=ours.MEMHOG)
    study = episode.sim["study"]
    assert len(study["latencies_ns"]) == ref["study"]["requests"]
    assert {n: s for n, s in study["states"].items() if s != "live"} \
        == ref["tenant_states"]
    assert ours.gates(state, episode.sim) == ref["gates"]
    assert episode.failures == []
