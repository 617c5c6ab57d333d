"""End-to-end benchmark of the reproduction: ``serve``, ``tenants``, ``compute``.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it times cold set-up
several times (this process plus fresh subprocesses) and repeats the
workload's episode until ``--seconds`` have passed, reporting medians.
``--trace 1`` is the separate traced run: one episode under a profiler
hook, split into per-layer self time and boundary call counts, plus the
layer counters.  Both modes run the correctness checks; a failed check
prints ``"correct": false`` and exits 1.  The last line of standard
output is the JSON result; the lines before it are the same metrics for
people.  ``BENCHMARK.json`` at the repository root names every metric.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time

import layers
from scenarios import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold set-ups per untraced run: this process plus fresh subprocesses.
SETUP_SAMPLES = 5
#: A subprocess probe that takes longer than this is a hung benchmark.
PROBE_TIMEOUT_S = 150

#: End-to-end metric -> unit, in report order (BENCHMARK.json order).
END_TO_END = {
    "setup_s": "s",
    "wall_ms_per_req": "ms",
    "sim_minsn_per_s": "Minsn/s",
    "peak_rss_mb": "MB",
    "sim_mean_us": "us",
    "sim_p99_us": "us",
    "sim_goodput_rps": "1/s",
    "success_rate": "ratio",
    "sim_ms": "ms",
    "sim_overhead_x": "x",
}

#: Layer counters: metric -> (unit, function of counters and ops).
COUNTER_METRICS = {
    "isa.jit.entries_per_op": ("count", lambda c, n: c["jit_entries"] / n),
    "isa.jit.insn_share": ("ratio", lambda c, n: _share(c["jit_insns"],
                                                        c["instructions"])),
    "isa.jit.deopts_per_op": ("count", lambda c, n: c["jit_deopts"] / n),
    "isa.interp.insns_per_op": (
        "count", lambda c, n: (c["instructions"] - c["jit_insns"]) / n),
    "isa.interp.fused_share": ("ratio", lambda c, n: _share(
        c["fused"], c["instructions"])),
    "hw.tlb_hit_rate": ("ratio", lambda c, n: _share(
        c["tlb_hits"], c["tlb_hits"] + c["tlb_misses"])),
    "hw.tlb_misses_per_op": ("count", lambda c, n: c["tlb_misses"] / n),
    "hw.tlb_flushes": ("count", lambda c, n: c["tlb_flushes"]),
    "hw.shootdowns": ("count", lambda c, n: c["shootdowns"]),
    "hw.ipis": ("count", lambda c, n: c["ipis"]),
    "core.switches_per_op": ("count", lambda c, n: c["switches"] / n),
    "core.transition_cache_hit_rate": ("ratio", lambda c, n: _share(
        c["trans_hits"], c["trans_hits"] + c["trans_misses"])),
    "core.transfers": ("count", lambda c, n: c["transfers"]),
    "os.syscalls_per_op": ("count", lambda c, n: c["syscalls"] / n),
    "os.verdict_cache_hit_rate": ("ratio", lambda c, n: _share(
        c["verdict_hits"], c["verdict_hits"] + c["verdict_misses"])),
    "os.vm_exits_per_op": ("count", lambda c, n: c["vm_exits"] / n),
    "runtime.steals": ("count", lambda c, n: c["steals"]),
    "inject.fired": ("count", lambda c, n: c["fired"]),
    "workloads.tenants.evicted": ("count", lambda c, n: c.get("evicted", 0)),
}

#: Layers whose traced self time and boundary calls are reported per op.
PER_OP_LAYERS = ("isa.jit", "isa.interp", "hw", "core", "os", "runtime",
                 "quota", "inject", "workloads", "observers", "machine")
#: Set-up layers, reported as total traced self time.
SETUP_LAYERS = ("golite", "image")
#: The traced split must account for the traced wall time to this share.
MAX_UNATTRIBUTED = 0.05


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_units() -> dict:
    """Every ``--trace 1`` metric and its unit, in report order."""
    units = {"trace.overhead_x": "x", "trace.unattributed_share": "ratio",
             "isa.jit.compile_ms": "ms"}
    for layer in PER_OP_LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.calls_per_op"] = "count"
    units.update((name, unit) for name, (unit, _) in COUNTER_METRICS.items())
    units.update((f"{layer}.self_ms", "ms") for layer in SETUP_LAYERS)
    return units


def _probe(workload: str, seed: int, kind: str) -> dict:
    """Run this script in a fresh interpreter for one cold measurement."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed), "--probe", kind],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_setup(workload, seed: int):
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def _identity_failures(workload, episodes) -> list:
    if any(ep.sim != episodes[0].sim for ep in episodes[1:]):
        return [f"{workload.name}: episodes of one seed disagree on "
                f"simulated values"]
    return []


def measure(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Untraced run: end-to-end metrics."""
    state, setup_s = _timed_setup(workload, seed)
    setups = [setup_s] + [_probe(workload.name, seed, "setup")["setup_s"]
                          for _ in range(SETUP_SAMPLES - 1)]
    episodes = []
    start = time.perf_counter()
    while not episodes or time.perf_counter() - start < seconds:
        # Garbage left by the previous episode's machines would
        # otherwise be collected, at random points, inside the next one.
        gc.collect()
        episodes.append(workload.episode(state))
    first = episodes[0]
    failures = [f for ep in episodes for f in ep.failures]
    failures += _identity_failures(workload, episodes)
    check_failures, extra = workload.checks(state, first)
    failures += check_failures
    sim = workload.sim_metrics(first, extra)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ms_per_req": statistics.median(
            ep.wall_s * 1e3 / ep.ops for ep in episodes),
        "sim_minsn_per_s": statistics.median(
            ep.counters["instructions"] / ep.wall_s / 1e6 for ep in episodes),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_mean_us": sim["sim_mean_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "sim_goodput_rps": sim["sim_goodput_rps"],
        "success_rate": 1.0 - first.failed / first.ops,
        "sim_ms": sim["sim_ms"],
        "sim_overhead_x": sim["sim_overhead_x"],
    }
    info = {"episodes": episodes, "setups": setups, "sim": sim}
    return metrics, failures, info


def trace(workload, seed: int) -> tuple[dict, list, dict]:
    """Traced run: per-layer self time, boundary calls and counters."""
    layer_map = layers.LayerMap(SRC, HERE)
    reference = _probe(workload.name, seed, "episode")["wall_s"]
    setup_prof = cProfile.Profile(builtins=False)
    setup_prof.enable()
    state = workload.setup(seed)
    setup_prof.disable()
    prof = cProfile.Profile(builtins=False)
    start = time.perf_counter()
    prof.enable()
    episode = workload.episode(state)
    prof.disable()
    traced_s = time.perf_counter() - start
    failures = list(episode.failures)
    check_failures, _ = workload.checks(state, episode)
    failures += check_failures

    stats = pstats.Stats(prof).stats
    setup_stats = pstats.Stats(setup_prof).stats
    self_s, calls = layers.split(stats, layer_map)
    setup_self_s, _ = layers.split(setup_stats, layer_map)
    attributed = sum(s for name, s in self_s.items() if name != layers.OTHER)
    unattributed = 1.0 - attributed / traced_s
    if abs(unattributed) > MAX_UNATTRIBUTED:
        failures.append(f"trace: layer self times cover "
                        f"{attributed:.3f} s of {traced_s:.3f} s traced")
    ops = episode.ops
    metrics = {
        "trace.overhead_x": episode.wall_s / reference,
        "trace.unattributed_share": unattributed,
        # Set-up included: serve's warm-up traffic compiles most traces.
        "isa.jit.compile_ms": 1e3 * sum(
            layers.cumulative_s(st, "jit.py", "compile_region")
            for st in (setup_stats, stats)),
    }
    for layer in PER_OP_LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = self_s[layer] * 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
    for name, (_, fn) in COUNTER_METRICS.items():
        metrics[name] = fn(episode.counters, ops)
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.self_ms"] = setup_self_s[layer] * 1e3
    info = {"episodes": [episode], "self_s": self_s, "traced_s": traced_s,
            "reference_s": reference}
    return metrics, failures, info


def report(workload, seed: int, mode: str, metrics: dict, units: dict,
           failures: list, info: dict) -> None:
    """The human-readable lines printed before the JSON result."""
    episodes = info["episodes"]
    print(f"perfbench {workload.name} seed={seed} ({mode}): "
          f"{workload.describe()}")
    print(f"  {len(episodes)} episode(s) of {episodes[0].ops} "
          f"{workload.unit}s")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if "sim" in info:
        sim = info["sim"]
        first = episodes[0]
        print(f"  {'sim_p50_us':<34} {sim['sim_p50_us']:>14.6g} us")
        print(f"  {'error_rate':<34} {first.failed / first.ops:>14.6g} "
              f"ratio (failed / attempted)")
        tail = (f"p{sim['highest']}" if sim["highest"]
                else "none (too few samples)")
        print(f"  latency samples n={sim['n']}; highest percentile with "
              f">=10 samples beyond it: {tail}")
        print(f"  sim_overhead_x: {sim['overhead_note']}")
        setups = ", ".join(f"{s:.3f}" for s in info["setups"])
        print(f"  setup samples (s): {setups}")
        walls = ", ".join(f"{ep.wall_s:.3f}" for ep in episodes)
        print(f"  episode walls (s): {walls}")
    else:
        print(f"  episode wall {episodes[0].wall_s:.3f} s traced, "
              f"{info['reference_s']:.3f} s untraced; self time by layer "
              f"over the {info['traced_s']:.3f} s profiled:")
        total = info["traced_s"]
        for layer, secs in sorted(info["self_s"].items(),
                                  key=lambda item: -item[1]):
            if secs:
                print(f"    {layer:<12} {secs:9.3f} s "
                      f"{100 * secs / total:5.1f}%")
    print("  checks: " + ("pass" if not failures else "FAIL"))
    for failure in failures:
        print(f"    {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one cold measurement in a fresh interpreter.
    parser.add_argument("--probe", choices=("setup", "episode"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.probe == "setup":
        _, setup_s = _timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.probe == "episode":
        episode = workload.episode(workload.setup(args.seed))
        print(json.dumps({"wall_s": episode.wall_s}))
        return 0

    if args.trace:
        metrics, failures, info = trace(workload, args.seed)
        units, mode = per_layer_units(), "traced"
    else:
        metrics, failures, info = measure(workload, args.seed, args.seconds)
        units, mode = END_TO_END, "untraced"
    report(workload, args.seed, mode, metrics, units, failures, info)
    episodes = info["episodes"]
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(ep.ops for ep in episodes),
        "failed": sum(ep.failed for ep in episodes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
