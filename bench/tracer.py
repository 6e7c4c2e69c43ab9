"""Per-layer tracing of the genbinom package, from outside it.

The layers are the package modules.  While a traced region is open, the
tracer replaces public functions and methods of those modules with timing
wrappers, everywhere a module of the package has bound them, and puts the
originals back when the region closes.  Nothing in the package changes on
disk, and nothing is wrapped outside the traced region.

Each wrapped call pushes a frame.  A call whose caller belongs to another
layer (or that is the request itself) opens a span: name, start, end, the
span that caused it and the request id.  Spans are kept in memory and
written out at the end.  A layer's self time is the time of its spans minus
the time of their child spans.  Work counters that repeat exactly from run
to run (multiplication term pairs, partitions yielded, Fraction
constructions, memo hits) are counted at the same boundaries.

A hook whose module or attribute no longer exists is listed as absent
instead of failing the run, so refactors of the package (merged or renamed
modules) do not break the benchmark.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction
from importlib import import_module
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

MAX_SPANS = 1_000_000  # about 56 MB of columns; later spans are counted only


def _pairs(attr: str) -> Callable:
    """Work counter for a binary polynomial product: the product of the
    operands' stored term (or coefficient) counts."""

    def size(a, kw) -> int:
        if len(a) < 2:
            return 0
        x, y = getattr(a[0], attr, None), getattr(a[1], attr, None)
        return len(x) * len(y) if x is not None and y is not None else 0

    return size


def _arg(index: int, name: str, target_fn: Callable) -> Callable:
    """Key function returning one argument of the call, with the callee's
    own default when the caller leaves it out."""
    try:
        default = inspect.signature(target_fn).parameters[name].default
    except (KeyError, TypeError, ValueError):
        default = None

    def key(a, kw):
        if len(a) > index:
            return a[index]
        return kw.get(name, default)

    return key


class Hook:
    """One metric name fed by one or more wrapped targets."""

    __slots__ = ("name", "layer", "kind", "size", "key_arg", "key_prefix", "group",
                 "calls", "seconds", "work", "depth")

    def __init__(self, name: str, kind: str = "span", size: Optional[Callable] = None,
                 key_arg=None, key_prefix: str = "", group: str = ""):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.kind = kind  # "span", "gen" (generator function) or "count"
        self.size = size
        self.key_arg = key_arg  # (index, parameter name) of the sub-metric key
        self.key_prefix = key_prefix
        self.group = group  # nested calls within one group are timed once
        self.calls = 0
        self.seconds = 0.0
        self.work = 0
        self.depth = 0


# (metric name, targets, options).  A target is "module:attribute path".
# Some hooks feed no reported metric of their own (the *_ops, "other" and
# sweep hooks); they keep their layer's self time from being charged to the
# caller.
HOOKS = [
    ("cli.main", ["genbinom.cli:main"], {}),
    ("coefficients.c_table", ["genbinom.coefficients:c_table"],
     dict(key_arg=(1, "method"), key_prefix="coefficients.route", group="route")),
    ("coefficients.c_coeff", ["genbinom.coefficients:c_coeff"],
     dict(key_arg=(2, "method"), key_prefix="coefficients.route", group="route")),
    ("coefficients.linearization_d", ["genbinom.coefficients:linearization_d"], {}),
    ("coefficients.seating_counts", ["genbinom.coefficients:seating_counts"], {}),
    ("coefficients.other", ["genbinom.coefficients:t_coeff",
                            "genbinom.coefficients:hypergeom_terminating"], {}),
    ("series.mpoly_mul", ["genbinom.series:MPoly.__mul__"], dict(size=_pairs("terms"))),
    ("series.mpoly_ops", [f"genbinom.series:MPoly.{m}" for m in
                          ("__add__", "__sub__", "__neg__", "scale", "__pow__", "__eq__", "coeff")], {}),
    ("series.geom_inverse_product", ["genbinom.series:geom_inverse_product"], {}),
    ("series.homogeneous_h", ["genbinom.series:homogeneous_h"], {}),
    ("polybasis.upoly_mul", ["genbinom.polybasis:UPoly.__mul__"], dict(size=_pairs("coeffs"))),
    ("polybasis.upoly_ops", [f"genbinom.polybasis:UPoly.{m}" for m in
                             ("__add__", "__sub__", "__neg__", "scale", "__pow__", "__call__", "__eq__")]
     + ["genbinom.polybasis:delta_at_zero", "genbinom.polybasis:from_falling_basis"], {}),
    ("polybasis.to_falling_basis", ["genbinom.polybasis:to_falling_basis"], {}),
    ("polybasis.basis_ctor", [f"genbinom.polybasis:{f}" for f in
                              ("falling_poly", "rising_poly", "shifted_binom_poly", "binom_poly")], {}),
    ("partitions.partitions_of", ["genbinom.partitions:partitions_of"], dict(kind="gen")),
    ("partitions.ferrers_choose", ["genbinom.partitions:ferrers_choose"], {}),
    ("exactnum.calls", [f"genbinom.exactnum:{f}" for f in
                        ("binomial", "factorial", "rising", "falling", "multinomial",
                         "int_str", "rat_str")], dict(kind="count")),
    ("identities.verify", ["genbinom.identities:verify"],
     dict(key_arg=(0, "identity"), key_prefix="identities", group="verify")),
    ("identities.sweep", ["genbinom.identities:sweep"], dict(kind="gen")),
    ("oracles", [f"genbinom.oracles:{f}" for f in
                 ("oracle_transversal_partitions", "oracle_covering_choices",
                  "oracle_seatings", "oracle_injection_cycle_poly")], {}),
]

LAYERS = ("cli", "coefficients", "series", "polybasis", "partitions", "exactnum",
          "identities", "oracles")


def _resolve(target: str):
    """(owner object, attribute name, current value), or None if absent."""
    module_name, path = target.split(":")
    try:
        owner = import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _bindings(value) -> List:
    """(module, name) of every binding of ``value`` in the package's modules,
    so that functions imported by name into other modules are wrapped too."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "genbinom" or mod_name.startswith("genbinom.")):
            continue
        for name, bound in list(vars(mod).items()):
            if bound is value:
                out.append((mod, name))
    return out


class SpanLog:
    """Finished spans in compact columns, at most MAX_SPANS of them."""

    COLUMNS = (("id", "q"), ("parent", "q"), ("request", "q"), ("name", "H"),
               ("start", "d"), ("end", "d"), ("busy", "d"))

    def __init__(self):
        self.cols = {name: array(code) for name, code in self.COLUMNS}
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.cols["id"])

    def add(self, sid: int, parent: int, request: int, name: str, t0: float, t1: float,
            busy: float) -> None:
        if len(self) >= MAX_SPANS:
            self.dropped += 1
            return
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        for col, value in zip(self.cols.values(), (sid, parent, request, index, t0, t1, busy)):
            col.append(value)

    def write(self, path) -> None:
        """One JSON array per line: span id, parent span id (-1 for none),
        request id, name, start, end and busy time, in microseconds from the
        first span.  Busy time is end - start except for generators, whose
        span covers the time spent inside ``next`` only."""
        c = self.cols
        base = c["start"][0] if len(self) else 0.0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([
                    c["id"][i], c["parent"][i], c["request"][i], self.names[c["name"][i]],
                    round((c["start"][i] - base) * 1e6, 1), round((c["end"][i] - base) * 1e6, 1),
                    round(c["busy"][i] * 1e6, 1)]) + "\n")


class Tracer:
    """Spans, per-hook totals and work counters of one traced region."""

    def __init__(self):
        self.hooks = {name: Hook(name, **opts) for name, _, opts in HOOKS}
        self.request_hook = Hook("bench.request")
        self.absent: List[str] = []
        self.keyed: Dict[str, float] = defaultdict(float)  # "<prefix>.<key>.ms" -> seconds
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.group_depth: Dict[str, int] = defaultdict(int)
        # frame: [hook, owner (the span frame of its layer, None if it is a span),
        #         child span seconds, span id, whether _exit logs the span]
        self.stack: List[list] = []
        self.spans = SpanLog()
        self.span_count = 0
        self.request_id = -1
        self._undo: List[Callable] = []
        self._memo_start: Dict[str, tuple] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target that exists; list the others as absent."""
        for name, targets, _ in HOOKS:
            hook = self.hooks[name]
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, value = found
                wrapper = self._wrap(hook, value)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                else:
                    for mod, bound_name in _bindings(value):
                        self._set(mod, bound_name, wrapper)
        self._count_fractions()
        self._memo_start = _memo_info()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old) if had else delattr(owner, attr))

    def _count_fractions(self) -> None:
        counts = self.counts
        new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *a, **kw):
            counts["exactnum.fraction_new"] += 1
            return new(cls, *a, **kw)

        self._set(Fraction, "__new__", staticmethod(counting_new))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        if hook.kind == "count":
            counts = self.counts

            def counted(*a, **kw):
                counts[hook.name] += 1
                return fn(*a, **kw)

            return counted
        if hook.kind == "gen":
            return self._wrap_gen(hook, fn)
        key = _arg(*hook.key_arg, fn) if hook.key_arg else None
        group = hook.group
        group_depth = self.group_depth

        def timed(*a, **kw):
            hook.calls += 1
            if hook.size is not None:
                hook.work += hook.size(a, kw)
            outer = key is not None and group_depth[group] == 0
            group_depth[group] += 1
            frame = self._enter(hook)
            t0 = perf()
            try:
                return fn(*a, **kw)
            finally:
                dt = self._exit(frame, hook, t0, perf())
                group_depth[group] -= 1
                if outer:
                    self.keyed[f"{hook.key_prefix}.{key(a, kw)}.ms"] += dt

        return timed

    def _wrap_gen(self, hook: Hook, fn: Callable) -> Callable:
        """Generator functions: time only what runs inside ``next``; between
        items the consumer runs, outside the span.  All ``next`` calls of one
        generator share one span, logged when the generator is done."""

        def timed_gen(*a, **kw):
            hook.calls += 1
            it = fn(*a, **kw)
            sid = owner = request = None
            first = last = busy = 0.0
            try:
                while True:
                    frame = self._enter(hook, sid)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        last = perf()
                        busy += self._exit(frame, hook, t0, last)
                        if sid is None and frame[1] is None:
                            sid, first, request = frame[3], t0, self.request_id
                            owner = self._owner()
                    hook.work += 1
                    yield item
            finally:
                if sid is not None:
                    self.spans.add(sid, owner[3] if owner else -1, request, hook.name,
                                   first, last, busy)

        return timed_gen

    # -- frames and spans ---------------------------------------------------

    def _enter(self, hook: Hook, sid: Optional[int] = None) -> list:
        """Push a frame; ``sid`` reuses the span of an earlier frame."""
        stack = self.stack
        hook.depth += 1
        parent = stack[-1] if stack else None
        if parent is not None and parent[0].layer == hook.layer:
            frame = [hook, parent if parent[1] is None else parent[1], 0.0, 0, False]
        elif sid is not None:
            frame = [hook, None, 0.0, sid, False]
        else:
            self.span_count += 1
            frame = [hook, None, 0.0, self.span_count, hook.kind != "gen"]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, hook: Hook, t0: float, t1: float) -> float:
        stack = self.stack
        stack.pop()
        hook.depth -= 1
        dt = t1 - t0
        if hook.depth == 0:
            hook.seconds += dt
        if frame[1] is None:  # a span: the call crossed into this layer
            self.layer_self[hook.layer] += dt - frame[2]
            owner = self._owner()
            if owner is not None:
                owner[2] += dt
            if frame[4]:
                self.spans.add(frame[3], owner[3] if owner else -1, self.request_id,
                               hook.name, t0, t1, dt)
        return dt

    def _owner(self) -> Optional[list]:
        """The span frame that the innermost open frame belongs to."""
        if not self.stack:
            return None
        top = self.stack[-1]
        return top if top[1] is None else top[1]

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._request_frame = self._enter(self.request_hook)
        self._request_t0 = perf()

    def end_request(self) -> None:
        self._exit(self._request_frame, self.request_hook, self._request_t0, perf())

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer figure of the region, by metric name."""
        h = self.hooks
        out: Dict[str, float] = {}
        for hook in h.values():
            if hook.kind != "count":
                out[f"{hook.name}.calls"] = hook.calls
                out[f"{hook.name}.ms"] = hook.seconds * 1000
        out.update((name, seconds * 1000) for name, seconds in self.keyed.items())
        out.update({
            "series.mpoly_mul.term_pairs": h["series.mpoly_mul"].work,
            "polybasis.upoly_mul.coeff_pairs": h["polybasis.upoly_mul"].work,
            "partitions.yielded": h["partitions.partitions_of"].work,
            "exactnum.calls": self.counts["exactnum.calls"],
            "exactnum.fraction_new": self.counts["exactnum.fraction_new"],
            "cli.calls": h["cli.main"].calls,
            "cli.out_bytes": self.counts["cli.out_bytes"],
            "trace.spans": self.span_count,
        })
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_ms"] = self.layer_self[layer] * 1000
        start, end = self._memo_start, _memo_info()
        hits = sum(v[0] - start.get(k, (0, 0, 0))[0] for k, v in end.items())
        misses = sum(v[1] - start.get(k, (0, 0, 0))[1] for k, v in end.items())
        out["coefficients.memo.hits"] = hits
        out["coefficients.memo.misses"] = misses
        out["coefficients.memo.entries"] = sum(v[2] for v in end.values())
        out["coefficients.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out



def _memo_info() -> Dict[str, tuple]:
    """(hits, misses, size) of every lru_cache memo in the coefficients layer."""
    try:
        module = import_module("genbinom.coefficients")
    except ImportError:
        return {}
    out = {}
    for name, value in vars(module).items():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            out[name] = (ci.hits, ci.misses, ci.currsize)
    return out
