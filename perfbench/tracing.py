"""Span tracing of the dualrail modules, installed from outside the package.

A ``Tracer`` replaces every traced function with a wrapper in *every*
``dualrail`` module namespace that binds it (``from .fock import
occupation_of`` copies the name into ``gates``, ``channels``, ``correction``
and ``cli``), and patches the validating dataclass hooks and
``KrausChannel.apply`` on their classes.  While the tracer is active each call
records a span (name, start, end, parent span, operation id) in flat in-memory
arrays; ``self_times`` derives each span's self time (its duration minus the
durations of its direct children), and ``layer_metrics`` aggregates spans and
counters into the per-layer metrics.  Inactive wrappers call straight
through, so correctness checks can run between traced operations unrecorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("fock", "gates", "channels", "correction", "machine", "cli")

# Private helpers traced on top of the public functions, for their counts.
_EXTRA_FUNCTIONS = {"channels": ("_damping_kraus",)}
# Methods traced on their classes: (module, class, method).
_METHODS = (
    ("fock", "DensityOperator", "__post_init__"),
    ("fock", "PureState", "__post_init__"),
    ("fock", "LinearOperator", "__post_init__"),
    ("channels", "KrausChannel", "__post_init__"),
    ("channels", "KrausChannel", "apply"),
)

ROOT = "perfbench.op"
MC_MAP = "channels.dephased_fredkin_mc.map"

GROUPS = {
    "fock.basis": ("fock.occupation_of", "fock.index_of"),
    "fock.validate": ("fock.DensityOperator.__post_init__",),
    "fock.reduce": ("fock.apply_unitary", "fock.partial_trace", "fock.diagonal_distribution"),
    "channels.build": (
        "channels.KrausChannel.__post_init__", "channels._damping_kraus",
        "channels.unitary_channel", "channels.compose", "channels.amplitude_damping_channel",
        "channels.lossy_fredkin_channel", "channels.balanced_lossy_fredkin_channel",
        "channels.dephased_fredkin_channel", "channels.fredkin_channel",
    ),
    "channels.apply": ("channels.KrausChannel.apply", "channels.dephased_fredkin_apply"),
    "channels.mc": ("channels.dephased_fredkin_mc", MC_MAP),
}

# Per-layer metrics, in report order: name -> unit.
METRICS = {
    "fock.self_s": "s",
    "fock.basis.calls": "count",
    "fock.basis.self_s": "s",
    "fock.validate.calls": "count",
    "fock.validate.self_s": "s",
    "fock.reduce.self_s": "s",
    "gates.calls": "count",
    "gates.self_s": "s",
    "gates.bs_cache.hit_share": "share",
    "channels.self_s": "s",
    "channels.build.calls": "count",
    "channels.build.kraus_ops": "count",
    "channels.build.self_share": "share",
    "channels.damping.calls": "count",
    "channels.apply.calls": "count",
    "channels.apply.kraus_products": "count",
    "channels.apply.self_share": "share",
    "channels.mc.samples": "count",
    "channels.mc.gram_flops": "flop",
    "channels.mc.self_share": "share",
    "correction.calls": "count",
    "correction.self_s": "s",
    "machine.run.calls": "count",
    "machine.self_s": "s",
    "cli.self_share": "share",
    "cli.output_bytes": "B",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """Records spans around the dualrail functions while active."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.active = False
        self.op_id = -1
        self._stack = [-1]
        self._originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span per call; ``after`` sees (args, result)."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Record one benchmark operation under a root span."""
        self.op_id = op_id
        self.active = True
        sid = self._open(self._name_id(ROOT))
        try:
            yield
        finally:
            self._close(sid)
            self.active = False

    # -- installation ------------------------------------------------------

    def _after(self, name: str):
        c = self.counters
        if name == "channels.KrausChannel.__post_init__":
            def after(args, kwargs, result):
                c["channels.build.kraus_ops"] += len(args[0].kraus_ops)
                return result
        elif name == "channels.KrausChannel.apply":
            def after(args, kwargs, result):
                c["channels.apply.kraus_products"] += len(args[0].kraus_ops)
                return result
        elif name == "channels.dephased_fredkin_mc":
            signature = inspect.signature(self._originals[name])

            def after(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                samples = bound.arguments["n_samples"]
                dim = bound.arguments["space"].dim
                c["channels.mc.samples"] += samples
                # complex Gram matmul: samples * dim^2 multiply-adds of 8 real flops
                c["channels.mc.gram_flops"] += 8 * samples * dim * dim
                return self.wrap(MC_MAP, result)
        else:
            after = None
        return after

    def install(self):
        """Wrap the traced functions in every dualrail namespace."""
        mods = {layer: importlib.import_module(f"dualrail.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("dualrail"), *mods.values()]
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in _EXTRA_FUNCTIONS.get(layer, ())
                if (public and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    name = f"{layer}.{attr}"
                    self._originals[name] = obj
                    wrappers[id(obj)] = self.wrap(name, obj, self._after(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self._originals[name] = fn
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, self._after(name)))

    def uninstall(self):
        for target, attr, obj in reversed(self._restore):
            setattr(target, attr, obj)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def layer_metrics(self, n_ops: int, bs_cache_hits: int, bs_cache_misses: int,
                      output_bytes: int, overhead: float) -> dict[str, float]:
        """Per-operation layer metrics from the recorded spans and counters."""
        a = self.arrays()
        n_names = len(self.names)
        calls = dict(zip(self.names, np.bincount(a["name"], minlength=n_names)))
        self_s = dict(zip(self.names, np.bincount(a["name"], weights=self.self_times(),
                                                  minlength=n_names)))
        is_root = a["name"] == self._name_ids[ROOT]
        op_wall = float(np.sum(a["end"][is_root] - a["start"][is_root]))

        def layer(src, name):
            return sum(v for n, v in src.items() if n.split(".", 1)[0] == name)

        def group(src, name):
            return sum(src.get(n, 0) for n in GROUPS[name])

        c = self.counters
        per_op = {
            "fock.self_s": layer(self_s, "fock"),
            "fock.basis.calls": group(calls, "fock.basis"),
            "fock.basis.self_s": group(self_s, "fock.basis"),
            "fock.validate.calls": group(calls, "fock.validate"),
            "fock.validate.self_s": group(self_s, "fock.validate"),
            "fock.reduce.self_s": group(self_s, "fock.reduce"),
            "gates.calls": layer(calls, "gates"),
            "gates.self_s": layer(self_s, "gates"),
            "channels.self_s": layer(self_s, "channels"),
            "channels.build.calls": calls.get("channels.KrausChannel.__post_init__", 0),
            "channels.build.kraus_ops": c["channels.build.kraus_ops"],
            "channels.damping.calls": calls.get("channels._damping_kraus", 0),
            "channels.apply.calls": group(calls, "channels.apply"),
            "channels.apply.kraus_products": c["channels.apply.kraus_products"],
            "channels.mc.samples": c["channels.mc.samples"],
            "channels.mc.gram_flops": c["channels.mc.gram_flops"],
            "correction.calls": layer(calls, "correction"),
            "correction.self_s": layer(self_s, "correction"),
            "machine.run.calls": calls.get("machine.run", 0),
            "machine.self_s": layer(self_s, "machine"),
            "cli.output_bytes": output_bytes,
            "trace.spans": len(a["name"]),
        }
        values = {k: v / n_ops for k, v in per_op.items()}
        lookups = bs_cache_hits + bs_cache_misses
        values["gates.bs_cache.hit_share"] = bs_cache_hits / lookups if lookups else 0.0
        for name in ("channels.build", "channels.apply", "channels.mc"):
            values[f"{name}.self_share"] = group(self_s, name) / op_wall
        values["cli.self_share"] = layer(self_s, "cli") / op_wall
        values["trace.overhead"] = overhead
        return {k: float(values[k]) for k in METRICS}

    def save(self, path, meta: dict):
        """Write the spans (flat arrays plus the name table) as a compressed npz."""
        np.savez_compressed(path, names=np.array(self.names), meta=json.dumps(meta),
                            self_s=self.self_times(), **self.arrays())
