"""Layer spans recorded from outside the program.

`Tracer.install` replaces every binding of a layer's public functions in
the loaded `linlog` modules with a wrapper that records one span per call
into the layer.  Bindings are found by identity, so both `from m import f`
names and module attributes read at call time (as `run_grad` does) are
covered.

While a layer is active, the bindings inside its own modules point back at
the original functions.  A recursive function therefore recurses without
an extra stack frame per level, and only the outermost call into a layer
opens a span.  A call that re-enters the same layer through another
layer's binding opens a nested span, so self times stay exact.

Spans live in flat arrays (no per-span objects for the collector to scan)
and are written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

# layer -> module; a package covers its submodules.  autodiff is one module
# holding three stages, split by the entry points other modules call; its
# other functions stay with their callers.
LAYER_MODULES = {
    "frontend": "linlog.frontend", "translate": "linlog.translate",
    "autodiff": "linlog.autodiff", "linear_a": "linlog.linear_a",
    "lll.typecheck": "linlog.lll.typecheck",
    "lll.workload": "linlog.lll.workload", "lll.reduce": "linlog.lll.reduce",
    "lll.machine": "linlog.lll.machine", "oracle": "linlog.oracle",
    "gen": "linlog.gen", "checks": "linlog.checks",
}
AUTODIFF_STAGES = {"forward": "autodiff.F", "unzip": "autodiff.U",
                   "transpose": "autodiff.T", "transpose_f": "autodiff.T"}
LAYERS = ["frontend", "translate", "autodiff.F", "autodiff.U", "autodiff.T",
          "linear_a", "lll.typecheck", "lll.workload", "lll.reduce",
          "lll.machine", "oracle", "gen", "checks"]
BOOKKEEPING = "trace"  # the tracer's own counting, kept out of layer self time
COUNTERS = ["autodiff.F.out_nodes", "autodiff.U.out_nodes",
            "autodiff.T.out_nodes", "lll.machine.flops",
            "lll.reduce.numeric_steps"]


class _Group:
    """Bindings inside one layer's modules, swapped back to the originals
    while the layer is active."""

    def __init__(self):
        self.depth = 0
        self.own: list[tuple[dict, str, object, object]] = []

    def enter(self):
        if self.depth == 0:
            for ns, name, orig, _ in self.own:
                ns[name] = orig
        self.depth += 1

    def exit(self):
        self.depth -= 1
        if self.depth == 0:
            for ns, name, _, wrapper in self.own:
                ns[name] = wrapper


def _module_group(modname: str) -> str | None:
    for layer, mod in LAYER_MODULES.items():
        if modname == mod or modname.startswith(mod + "."):
            return layer
    return None


class Tracer:
    def __init__(self):
        self.names = LAYERS + [BOOKKEEPING]
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.top = -1
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._bindings: list[tuple[dict, str, object, object]] = []
        self._node_kids: dict[type, tuple[str, ...]] = {}

    # -------------------------------------------------------------- setup

    def install(self):
        """Wrap every layer entry point; `uninstall` restores the module
        dictionaries exactly."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "linlog" or n.startswith("linlog.")}
        terms = mods["linlog.lll.terms"]
        self._node_kids = {terms.Abs: ("body",), terms.BangVal: ("inner",),
                           terms.App: ("fn", "arg"),
                           terms.TensorPair: ("left", "right"),
                           terms.WithPair: ("left", "right")}
        flops_type = mods["linlog.lll.machine"].Flops
        groups: dict[str, _Group] = {}
        wrapped: dict[int, tuple[object, object, str]] = {}
        for modname, mod in sorted(mods.items()):
            gname = _module_group(modname)
            if gname is None:
                continue
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                if gname == "autodiff":
                    layer = AUTODIFF_STAGES.get(name)
                    if layer is None:
                        continue
                else:
                    layer = gname
                group = groups.setdefault(gname, _Group())
                w = self._wrapper(self.names.index(layer), group, fn,
                                  self._hooks(layer, name, flops_type))
                wrapped[id(fn)] = (fn, w, gname)
        for modname, mod in mods.items():
            ns = vars(mod)
            own = _module_group(modname)
            for name, value in list(ns.items()):
                hit = wrapped.get(id(value))
                if hit is None:
                    continue
                fn, w, gname = hit
                ns[name] = w
                self._bindings.append((ns, name, fn, w))
                if own == gname:
                    groups[gname].own.append((ns, name, fn, w))

    def uninstall(self):
        for ns, name, orig, _ in self._bindings:
            ns[name] = orig
        self._bindings.clear()

    # ------------------------------------------------------------- spans

    def _open(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrapper(self, layer_id, group, orig, hooks):
        tracer = self
        before, after = hooks

        def wrapper(*args, **kwargs):
            if tracer.top == layer_id:
                return orig(*args, **kwargs)
            idx = tracer._open(layer_id)
            prev, tracer.top = tracer.top, layer_id
            group.enter()
            state = before(args) if before else None
            try:
                tracer.start[idx] = perf_counter()
                result = orig(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                group.exit()
                tracer.top = prev
                tracer.stack.pop()
            if after:
                k = tracer._open(len(tracer.names) - 1)
                tracer.start[k] = perf_counter()
                after(args, result, state)
                tracer.end[k] = perf_counter()
                tracer.stack.pop()
            return result

        return wrapper

    def _hooks(self, layer: str, name: str, flops_type):
        """(before, after) hooks that add a call's work to the counters."""
        counts = self.counts
        if layer.startswith("autodiff."):
            key = layer + ".out_nodes"

            def after(args, result, _):
                term = result[0] if name == "forward" else result
                counts[key] += self.term_nodes(term)
            return None, after
        if layer == "lll.machine":
            def flops_arg(args):
                return next((a for a in args if type(a) is flops_type), None)

            def before(args):
                fl = flops_arg(args)
                return 0 if fl is None else fl.count

            def after(args, result, start):
                fl = flops_arg(args)
                if fl is not None:
                    counts["lll.machine.flops"] += fl.count - start
                elif name == "run":
                    counts["lll.machine.flops"] += result[1]
            return before, after
        if layer == "lll.reduce":
            def after(args, result, _):
                steps = getattr(result, "numeric_steps", None)
                if steps is not None:
                    counts["lll.reduce.numeric_steps"] += steps
            return None, after
        return None, None

    def term_nodes(self, m) -> int:
        """Term size as `lll.terms.term_size` counts it, without recursion."""
        kids = self._node_kids
        n = 0
        todo = [m]
        while todo:
            t = todo.pop()
            n += 1
            for attr in kids.get(type(t), ()):
                todo.append(getattr(t, attr))
        return n

    # ----------------------------------------------------------- results

    def layer_totals(self):
        """Per layer: (self seconds, outermost calls)."""
        n = len(self.names)
        self_s = [0.0] * n
        calls = [0] * n
        start, end, layer, parent = self.start, self.end, self.layer, self.parent
        for i in range(len(layer)):
            d = end[i] - start[i]
            self_s[layer[i]] += d
            calls[layer[i]] += 1
            p = parent[i]
            if p >= 0:
                self_s[layer[p]] -= d
        return {self.names[i]: (self_s[i], calls[i]) for i in range(n)}

    def write(self, path: str):
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(self.layer)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.layer[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\n")
