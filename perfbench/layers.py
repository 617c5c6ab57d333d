"""Module -> layer map and the traced run's per-layer host-time split.

Layers are named after ``src/repro`` modules.  Every module maps to
exactly one layer (``test_perfbench`` fails on a module this map does
not name), so no layer's time can silently land in "other".

The traced run profiles with ``cProfile`` created with
``builtins=False``: C builtins are not timed separately, so their time
stays in the self time of the Python function that called them — the
calling layer.  Pure-Python helpers outside ``repro`` (``random``,
``dataclasses``, ...) are charged to their callers' layers through the
profiler's per-caller breakdown.  Call counts are taken at the same
boundaries: a call counts toward a layer when the caller sits in a
different layer.
"""

from __future__ import annotations

import os
import pathlib

#: Subpackages: every module below the prefix belongs to the layer.
PACKAGE_LAYERS = {
    "repro.isa": "isa.interp",
    "repro.hw": "hw",
    "repro.core": "core",
    "repro.os": "os",
    "repro.runtime": "runtime",
    "repro.workloads": "workloads",
    "repro.attacks": "workloads",
    "repro.golite": "golite",
    "repro.pylite": "pylite",
    "repro.image": "image",
}

#: Single modules, checked before the package prefixes.
MODULE_LAYERS = {
    "repro": "machine",
    "repro.machine": "machine",
    "repro.errors": "machine",
    "repro.cli": "cli",
    "repro.__main__": "cli",
    "repro.isa.jit": "isa.jit",
    "repro.quota": "quota",
    "repro.inject": "inject",
    "repro.metrics": "observers",
    "repro.trace": "observers",
    "repro.profiler": "observers",
    "repro.spans": "observers",
    "repro.perf": "observers",
}

#: Layers in report order (the map's values, plus nothing else).
LAYERS = ("isa.jit", "isa.interp", "hw", "core", "os", "runtime", "quota",
          "inject", "workloads", "observers", "machine", "golite", "image",
          "pylite", "cli")

#: Code the JIT generates is compiled under ``<jit:0x...>`` filenames.
JIT_FILENAME_PREFIX = "<jit:"

#: Time that could not be traced to any layer (no resolvable caller).
OTHER = "other"


def layer_of_module(module: str) -> str | None:
    """The layer of a dotted ``repro`` module name, ``None`` if unmapped."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    for prefix, layer in PACKAGE_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def repro_modules(src: pathlib.Path) -> list[str]:
    """Dotted names of every module under ``src/repro``."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out.append(".".join(parts))
    return out


class LayerMap:
    """Resolves profiler filenames to layers.

    Files of the benchmark itself count as ``workloads`` (they drive the workloads);
    anything else outside ``src`` resolves to ``None`` and is charged to
    its caller."""

    def __init__(self, src: pathlib.Path, bench: pathlib.Path):
        self.src = str(src.resolve()) + os.sep
        self.bench = str(bench.resolve()) + os.sep
        self._cache: dict[str, str | None] = {}

    def layer_of_file(self, filename: str) -> str | None:
        layer = self._cache.get(filename, "")
        if layer != "":
            return layer
        if filename.startswith(JIT_FILENAME_PREFIX):
            layer = "isa.jit"
        else:
            path = os.path.realpath(filename)
            if path.startswith(self.src):
                module = path[len(self.src):-len(".py")].replace(os.sep, ".")
                if module.endswith(".__init__"):
                    module = module[:-len(".__init__")]
                layer = layer_of_module(module)
                if layer is None:
                    raise KeyError(f"module {module} has no layer")
            elif path.startswith(self.bench):
                layer = "workloads"
            else:
                layer = None
        self._cache[filename] = layer
        return layer


def split(stats: dict, layers: LayerMap) -> tuple[dict, dict]:
    """Per-layer self seconds and boundary call counts from a
    ``pstats.Stats(...).stats`` dict.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers[caller] = (cc, nc, tt, ct)`` is the
    callee's time and calls attributable to that caller."""
    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[OTHER] = 0.0
    calls = {layer: 0 for layer in LAYERS}

    def own(func) -> str | None:
        return layers.layer_of_file(func[0])

    shares: dict = {}

    def resolve(func, visiting: frozenset) -> dict[str, float]:
        """Fractions of a foreign function's time owed to each layer,
        following its callers until they reach mapped code."""
        if func in shares:
            return shares[func]
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        total = sum(c[2] for c in callers.values())
        if func in visiting or total <= 0:
            return {OTHER: 1.0}
        out: dict[str, float] = {}
        for caller, (_, _, tt, _) in callers.items():
            layer = own(caller)
            parts = ({layer: 1.0} if layer is not None
                     else resolve(caller, visiting | {func}))
            for name, frac in parts.items():
                out[name] = out.get(name, 0.0) + frac * tt / total
        shares[func] = out
        return out

    for func, (_, _, tt, _, callers) in stats.items():
        layer = own(func)
        if layer is None:
            for name, frac in resolve(func, frozenset()).items():
                self_s[name] += frac * tt
            continue
        self_s[layer] += tt
        for caller, (_, nc, _, _) in callers.items():
            if own(caller) != layer:
                calls[layer] += nc
    return self_s, calls


def cumulative_s(stats: dict, filename_suffix: str, name: str) -> float:
    """Inclusive seconds of one function, e.g. the JIT's trace compiler."""
    return sum(ct for (path, _, fn), (_, _, _, ct, _) in stats.items()
               if fn == name and path.endswith(filename_suffix))
