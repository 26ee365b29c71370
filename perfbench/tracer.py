"""Per-layer spans for the cqsw benchmark, recorded from outside the library.

``Tracer.install`` wraps the public functions of each cqsw module at every
``cqsw.<module>.<name>`` reference that points to them (modules import each
other's functions by name, so each importing module gets the wrapper too),
plus two methods whose calls are counted (``HUpEvaluator.value`` and
``Code.__post_init__``). ``restore`` puts every original back. While
installed, each call records a span (function, start, end, parent) in flat
arrays; self time and call counts are accumulated as spans close. The layer
of a function is the cqsw module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("states", "operators", "divergences", "conditional", "exponents",
          "variational", "hypotest", "coding", "cli")
SPECTRAL = ("spectral_power", "spectral_log2", "spectral_exp2", "support_projector",
            "inv_sqrt_on_support", "positive_part", "positive_projector",
            "nonneg_projector", "intersection_projector")
METHODS = (("exponents", "HUpEvaluator", "value"), ("coding", "Code", "__post_init__"))


class Tracer:
    def __init__(self):
        self.names = []          # function id -> "layer.qualname"
        self.layers = []         # function id -> layer
        self._patches = []       # (owner, attribute, original, wrapper)
        self.reset()

    # ---- recording ---------------------------------------------------------

    def reset(self):
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []         # [span index, child time, child count]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.outer_s = [0.0] * n  # inclusive time of calls not nested in themselves
        self._active = [0] * n
        self._layer_depth = Counter()
        self.counts = Counter()

    def _enter(self, f):
        idx = len(self.fid)
        self.fid.append(f)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._active[f] += 1
        self._layer_depth[self.layers[f]] += 1
        self._stack.append([idx, 0.0, 0])
        self.start.append(time.perf_counter())
        return idx

    def _exit(self):
        t = time.perf_counter()
        idx, child_s, child_n = self._stack.pop()
        self.end[idx] = t
        f = self.fid[idx]
        dur = t - self.start[idx]
        self.calls[f] += 1
        self.self_s[f] += dur - child_s
        self._active[f] -= 1
        if not self._active[f]:
            self.outer_s[f] += dur
        self._layer_depth[self.layers[f]] -= 1
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            top[2] += 1
        return child_n

    # ---- wrappers ----------------------------------------------------------

    def _register(self, layer, qualname):
        self.names.append(f"{layer}.{qualname}")
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, layer):
        f = self._register(layer, fn.__qualname__)
        before = getattr(self, f"_before_{fn.__name__}", None)
        after = getattr(self, f"_after_{fn.__name__}", None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._enter(f)
            try:
                result = fn(*args, **kwargs)
            finally:
                child_n = tracer._exit()
            if after is not None:
                after(args, kwargs, result, child_n)
            return result
        return wrapper

    def _before_eig_hermitian(self, args, kwargs):
        a = args[0] if args else kwargs["a"]
        d = np.shape(getattr(a, "matrix", a))[0]
        self.counts["eig_d2" if d == 2 else "eig_d3up" if d > 2 else "eig_d1"] += 1
        if self._layer_depth["hypotest"]:
            self.counts["hypotest_eig"] += 1
        return args, kwargs

    def _after_jacobi_cyclic(self, args, kwargs, result, child_n):
        self.counts["jacobi_sweeps"] += int(result[2])

    def _before_h_up(self, args, kwargs):
        variant = args[2] if len(args) > 2 else kwargs.get("variant", "petz")
        self.counts[f"h_up.{variant}"] += 1
        return args, kwargs

    def _after_h_up(self, args, kwargs, result, child_n):
        self.counts["optimizer_iters"] += int(result.iterations)

    def _before_golden_max(self, args, kwargs):
        fn = args[0]
        counts = self.counts

        def counted(x):
            counts["golden_evals"] += 1
            return fn(x)
        return (counted,) + tuple(args[1:]), kwargs

    def _after_value(self, args, kwargs, result, child_n):
        # a cached HUpEvaluator value returns without calling into cqsw
        if not child_n:
            self.counts["hup_hits"] += 1

    def _after_power_state(self, args, kwargs, result, child_n):
        if result is not args[0]:
            self.counts["nfold_blocks"] += result.size_x

    def _patch_list(self):
        """(owner, attribute, original, wrapper) for every reference to a
        wrapped function or method, built once per tracer."""
        mods = {layer: sys.modules[f"cqsw.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrappers[obj] = self._wrap(obj, layer)
        jacobi = getattr(mods["operators"], "jacobi_cyclic", None)
        if jacobi is not None:
            wrappers[jacobi] = self._wrap(jacobi, "kernels")
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cqsw" or mod_name.startswith("cqsw.")):
                continue
            for name, obj in vars(mod).items():
                if callable(obj) and obj in wrappers:
                    patches.append((mod, name, obj, wrappers[obj]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            patches.append((cls, meth, orig, self._wrap(orig, layer)))
        return patches

    def install(self):
        """Put the wrappers in place and start a fresh record."""
        if not self._patches:
            self._patches = self._patch_list()
        self.reset()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def restore(self):
        for owner, name, orig, _ in self._patches:
            setattr(owner, name, orig)

    # ---- results -----------------------------------------------------------

    def _sum(self, values, pick):
        return sum(v for f, v in enumerate(values) if pick(self.names[f], self.layers[f]))

    def _of(self, values, qualname):
        return self._sum(values, lambda name, layer: name == qualname)

    def metrics(self):
        """Per-layer counts (exact) and times (seconds) of the recorded spans."""
        c, s, o = self.calls, self.self_s, self.outer_s
        layer_self = {layer: self._sum(s, lambda n, lay, L=layer: lay == L)
                      for layer in LAYERS + ("kernels",)}
        layer_calls = {layer: self._sum(c, lambda n, lay, L=layer: lay == L)
                       for layer in LAYERS}
        spectral = [f"operators.{name}" for name in SPECTRAL]
        hup_calls = self._of(c, "exponents.HUpEvaluator.value")
        out = {
            "states.power_state_calls": self._of(c, "states.power_state"),
            "states.power_state_s": self._of(o, "states.power_state"),
            "states.nfold_blocks": self.counts["nfold_blocks"],
            "operators.eig_calls": self._of(c, "operators.eig_hermitian"),
            "operators.eig_calls_d2": self.counts["eig_d2"],
            "operators.eig_calls_d3up": self.counts["eig_d3up"],
            "operators.eig_s": self._of(o, "operators.eig_hermitian"),
            "operators.check_hermitian_calls": self._of(c, "operators.check_hermitian"),
            "operators.check_hermitian_s": self._of(o, "operators.check_hermitian"),
            "operators.spectral_calls": self._sum(c, lambda n, lay: n in spectral),
            "operators.spectral_self_s": self._sum(s, lambda n, lay: n in spectral),
            "kernels.jacobi_calls": self._sum(c, lambda n, lay: lay == "kernels"),
            "kernels.jacobi_sweeps": self.counts["jacobi_sweeps"],
            "kernels.jacobi_s": self._sum(o, lambda n, lay: lay == "kernels"),
            "divergences.calls": layer_calls["divergences"],
            "divergences.self_s": layer_self["divergences"],
            "conditional.h_up_calls.petz": self.counts["h_up.petz"],
            "conditional.h_up_calls.sandwiched": self.counts["h_up.sandwiched"],
            "conditional.h_up_calls.flat": self.counts["h_up.flat"],
            "conditional.h_up_s": self._of(o, "conditional.h_up"),
            "conditional.cq_renyi_calls": self._of(c, "conditional.cq_renyi"),
            "conditional.cq_renyi_s": self._of(o, "conditional.cq_renyi"),
            "conditional.optimizer_iters": self.counts["optimizer_iters"],
            "exponents.golden_calls": self._of(c, "exponents.golden_max"),
            "exponents.golden_evals": self.counts["golden_evals"],
            "exponents.hup_evaluator_calls": hup_calls,
            "exponents.hup_cache_hit_ratio": self.counts["hup_hits"] / hup_calls if hup_calls else 0.0,
            "exponents.self_s": layer_self["exponents"],
            "variational.minimize_calls": self._of(c, "variational.variational_minimize"),
            "variational.self_s": layer_self["variational"],
            "hypotest.calls": layer_calls["hypotest"],
            "hypotest.eig_calls": self.counts["hypotest_eig"],
            "hypotest.self_s": layer_self["hypotest"],
            "coding.decoder_builds": self._of(c, "coding.Code.__post_init__"),
            "coding.discrimination_calls": self._of(c, "coding.min_error_discrimination"),
            "coding.self_s": layer_self["coding"],
            "cli.calls": self._of(c, "cli.main"),
            "cli.self_s": layer_self["cli"],
        }
        return out

    def save(self, path):
        """Write the spans of the last round: names, function ids, parent span
        index (-1 at the top) and start/end times in seconds."""
        np.savez(path, names=np.array(self.names), fid=np.frombuffer(self.fid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
