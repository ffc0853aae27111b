"""Layer tracing from outside the package.

`Tracer.install()` wraps the public functions of every `hompurify` module,
plus the two constructors that run the unitarity and Gram-matrix checks and
scipy's `least_squares` as `histogram_fit` calls it. A wrapper replaces the
function under every name a module looks it up by, so `protocol`'s
by-name import of `multipermanent_batch` is traced as well. `uninstall()`
puts the originals back.

Each call records a span: name, start, end, parent span and the command it
belongs to. Spans nest on one stack: the CLI runs its single default worker
thread while the calling thread waits, so one thread runs package code at
any time. A span's self time is its length minus the time of its child
spans. A layer's busy time counts only its outermost spans, so nested calls
inside one layer are not counted twice.

A function that a later version of the package deletes is simply not
wrapped; its counts read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

MODULES = ("fock", "permanents", "circuits", "distinguishability", "dephasing",
           "protocol", "histogram_fit", "cli")

# Busy-time groups beyond the function's own module.
GROUPS = {
    "distinguishability.constant_overlap_S": ("distinguishability.gram",),
    "distinguishability.polarization_S": ("distinguishability.gram",),
    "distinguishability.dephasing_overlap": ("distinguishability.gram",),
    "distinguishability.DistinguishabilityMatrix": ("distinguishability.gram",),
    "distinguishability.sample_dephased_overlaps": ("distinguishability.sampler",),
    "histogram_fit.fit": ("histogram_fit.fit",),
    "histogram_fit.least_squares": ("histogram_fit.least_squares",),
}
CPU_KEYS = ("permanents",)
MAX_SPANS = 20_000  # spans kept for the trace file; totals count every span


class Tracer:
    def __init__(self):
        self.stack = []           # open spans: [id, name, layer, keys, start, child_s, cpu0]
        self.spans = []           # closed spans: (id, name, start, end, parent, command)
        self.keep_spans = True    # off after the first traced round; totals go on
        self.next_id = 0
        self.command = None
        self.calls = Counter()    # per function
        self.fn_self = defaultdict(float)
        self.errors = Counter()   # (function, exception type)
        self.self_s = defaultdict(float)   # per layer
        self.busy = defaultdict(float)     # per busy key, outermost spans only
        self.outer_calls = Counter()
        self.cpu = defaultdict(float)
        self.depth = Counter()
        self.counts = Counter()   # work counters recorded by hooks
        self.sampler_peak = 0
        self._patches = []

    # ------------------------------------------------------------ spans
    def _enter(self, name, layer, keys):
        cpu0 = None
        for key in keys:
            if self.depth[key] == 0:
                self.outer_calls[key] += 1
                if key in CPU_KEYS:
                    cpu0 = time.process_time()
            self.depth[key] += 1
        self.stack.append([self.next_id, name, layer, keys, time.perf_counter(), 0.0, cpu0])
        self.next_id += 1

    def _exit(self, error):
        end = time.perf_counter()
        span_id, name, layer, keys, start, child_s, cpu0 = self.stack.pop()
        length = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[5] += length
        self.calls[name] += 1
        self.fn_self[name] += length - child_s
        self.self_s[layer] += length - child_s
        if error is not None:
            self.errors[name, error] += 1
        for key in keys:
            self.depth[key] -= 1
            if self.depth[key] == 0:
                self.busy[key] += length
                if cpu0 is not None and key in CPU_KEYS:
                    self.cpu[key] += time.process_time() - cpu0
        if self.keep_spans and len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else None, self.command))

    def _wrap(self, name, layer, fn):
        keys = (layer,) + GROUPS.get(name, ())
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name, layer, keys)
            error = "exception"
            try:
                result = hook(fn, args, kwargs) if hook else fn(*args, **kwargs)
                error = None
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._exit(error)

        return traced

    # ------------------------------------------------------------ work counters
    def _hook_fock_patterns_for_clicks(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        self.counts["fock.outputs"] += len(result)
        return result

    def _hook_permanents_multipermanent_batch(self, fn, args, kwargs):
        shape = getattr(args[0] if args else kwargs["bs"], "shape", None)
        if shape is not None and len(shape) == 3:
            self.counts[f"permanents.matrices.n{shape[1]}"] += shape[0]
        return fn(*args, **kwargs)

    def _hook_distinguishability_sample_dephased_overlaps(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.sampler_peak = max(self.sampler_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # ------------------------------------------------------------ patching
    def _targets(self):
        for mod_name in MODULES:
            mod = importlib.import_module(f"hompurify.{mod_name}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield mod_name, f"{mod_name}.{attr}", obj
        package = importlib.import_module("hompurify")
        if hasattr(package, "TransferMatrix"):
            yield "circuits", "circuits.TransferMatrix", package.TransferMatrix
        if hasattr(package, "DistinguishabilityMatrix"):
            yield ("distinguishability", "distinguishability.DistinguishabilityMatrix",
                   package.DistinguishabilityMatrix)
        if hasattr(package.histogram_fit, "least_squares"):
            yield "scipy", "histogram_fit.least_squares", package.histogram_fit.least_squares

    def install(self):
        modules = [importlib.import_module("hompurify")]
        modules += [importlib.import_module(f"hompurify.{m}") for m in MODULES]
        for layer, name, obj in list(self._targets()):
            if inspect.isclass(obj):
                # the constructor holds the check; wrap it on the class itself
                original = obj.__init__
                self._patches.append((obj, "__init__", original))
                obj.__init__ = self._wrap(name, layer, original)
                continue
            traced = self._wrap(name, layer, obj)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, traced)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------ report
    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round, as (value, unit) pairs."""
        def per(value):
            return value / rounds

        out = {
            "cli.self_s": (per(self.self_s["cli"]), "s"),
            "protocol.self_s": (per(self.self_s["protocol"]), "s"),
            "protocol.signature_probability.calls":
                (per(self.calls["protocol.signature_probability"]), "count"),
            "fock.patterns_for_clicks.calls": (per(self.calls["fock.patterns_for_clicks"]), "count"),
            "fock.outputs": (per(self.counts["fock.outputs"]), "count"),
            "fock.submatrix.calls": (per(self.calls["fock.submatrix"]), "count"),
            "fock.busy_s": (per(self.busy["fock"]), "s"),
            "permanents.calls": (per(self.outer_calls["permanents"]), "count"),
        }
        for n in range(2, 9):
            key = f"permanents.matrices.n{n}"
            out[key] = (per(self.counts[key]), "count")
        out.update({
            "permanents.busy_s": (per(self.busy["permanents"]), "s"),
            "permanents.cpu_s": (per(self.cpu["permanents"]), "s"),
            "circuits.transfer_matrices": (per(self.calls["circuits.TransferMatrix"]), "count"),
            "circuits.busy_s": (per(self.busy["circuits"]), "s"),
            "distinguishability.gram_matrices":
                (per(self.calls["distinguishability.DistinguishabilityMatrix"]), "count"),
            "distinguishability.gram_busy_s": (per(self.busy["distinguishability.gram"]), "s"),
            "distinguishability.sampler_busy_s":
                (per(self.busy["distinguishability.sampler"]), "s"),
            "distinguishability.sampler_peak_mb": (self.sampler_peak / 2**20, "MB"),
            "dephasing.busy_s": (per(self.busy["dephasing"]), "s"),
            "histogram_fit.fit.calls": (per(self.calls["histogram_fit.fit"]), "count"),
            "histogram_fit.fit.busy_s": (per(self.busy["histogram_fit.fit"]), "s"),
            "histogram_fit.fit.failures":
                (per(self.errors["histogram_fit.fit", "FitError"]), "count"),
            "histogram_fit.least_squares.calls":
                (per(self.calls["histogram_fit.least_squares"]), "count"),
            "histogram_fit.least_squares.busy_s":
                (per(self.busy["histogram_fit.least_squares"]), "s"),
            "histogram_fit.model_evals": (per(self.calls["histogram_fit.raw_count_model"]
                                              + self.calls["histogram_fit.pure_count_model"]),
                                          "count"),
        })
        return out

    def functions(self, rounds: int) -> dict:
        return {name: {"calls": self.calls[name] / rounds, "self_s": self.fn_self[name] / rounds}
                for name in sorted(self.calls)}
