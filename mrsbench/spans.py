"""Spans around the calls into each layer of dihedral_magic.

The tracer replaces a layer's public entry points, in every module
namespace the library calls them through, with wrappers that record a
span: name, start, end, parent span and op id.  Spans live in compact
in-memory arrays and are written out once, at exit.  A span nested in a
span of the same layer is not recorded (lsms calls lmrs_even, for
instance), so a layer's busy time never counts the same interval twice.

Layers and their span names:
  dihedral.word_product     dihedral.word_product
  construct                 lmrs_2_2, lmrs_even, lsms, ms
  designs.serialize         serialize
  designs.deserialize       deserialize
  designs.validate_cover    validate_cover
  verify.linear/.orderable  verify_linear, verify_orderable,
                            verify_semi_magic_square, verify_magic_square
  reach                     _backend.achievable_indices
  search.linear/.orderable  search.exhaustive_search
  search.kernel.<mode>      _backend.run_search
  feasibility               feasibility.classify
  cli                       cli.run
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int, size: int = 0) -> None:
        self.end[idx] = _clock()
        self._stack.pop()
        self.size[idx] = size

    def inside(self, name: str) -> bool:
        return bool(self._stack) and \
            self.names[self.name[self._stack[-1]]] == name

    def span(self, fn, name_of, size_of=None, on_result=None):
        """Wrap fn; name_of(args, kwargs) names the span, size_of(args,
        result) gives its size attribute, on_result(result) counts events."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            if tracer.inside(name):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer.close(idx, size_of(args, result) if size_of else 0)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing the wrappers -------------------------------------------

    def _patch(self, modules, attr, wrapper):
        for mod in modules:
            self._patched.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer entry points of the imported dihedral_magic."""
        from dihedral_magic import (_backend, cli, construct, designs,
                                    dihedral, feasibility, search, verify)

        def fixed(name):
            return lambda args, kwargs: name

        def cells(_args, s):
            return s.m * s.n * s.k

        def verify_mode(args, kwargs):
            return "verify." + kwargs.get(
                "mode", args[1] if len(args) > 1 else "linear")

        def search_done(out):
            self.counts["search.budget_exceeded"] += \
                out.result == "budget_exceeded"
            self.counts["search.solutions"] += (
                out.solutions_count if out.solutions_count is not None
                else out.result == "found")

        def classified(verdict):
            self.counts["feasibility.unknown"] += \
                verdict.status.value == "Unknown"

        self._patch([dihedral], "word_product",
                    self.span(dihedral.word_product,
                              fixed("dihedral.word_product")))
        for fn in ("lmrs_2_2", "lmrs_even", "lsms", "ms"):
            self._patch([construct], fn,
                        self.span(getattr(construct, fn), fixed("construct"),
                                  cells))
        self._patch([designs], "serialize",
                    self.span(designs.serialize, fixed("designs.serialize")))
        self._patch([designs], "deserialize",
                    self.span(designs.deserialize,
                              fixed("designs.deserialize"), cells))
        self._patch([designs, verify], "validate_cover",
                    self.span(designs.validate_cover,
                              fixed("designs.validate_cover")))
        self._patch([verify], "verify_linear",
                    self.span(verify.verify_linear, fixed("verify.linear")))
        self._patch([verify], "verify_orderable",
                    self.span(verify.verify_orderable,
                              fixed("verify.orderable")))
        for fn in ("verify_semi_magic_square", "verify_magic_square"):
            self._patch([verify], fn,
                        self.span(getattr(verify, fn), verify_mode))
        self._patch([_backend], "achievable_indices",
                    self.span(_backend.achievable_indices, fixed("reach"),
                              lambda args, _r: len(args[0])))
        self._patch([search], "exhaustive_search",
                    self.span(search.exhaustive_search,
                              lambda args, kwargs: "search." + args[0].mode,
                              on_result=search_done))
        self._patch([_backend], "run_search",
                    self.span(_backend.run_search,
                              lambda args, kwargs: "search.kernel." + (
                                  "linear" if args[4] else "orderable"),
                              lambda _args, r: r[1]))
        self._patch([feasibility], "classify",
                    self.span(feasibility.classify, fixed("feasibility"),
                              on_result=classified))
        self._patch([cli], "run", self.span(cli.run, fixed("cli")))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # --- reading the spans --------------------------------------------------

    def layer_totals(self, first: int, last: int) -> dict:
        """{span name: {"calls", "busy_s", "self_s", "size"}} over the spans
        with index in [first, last), plus reach split by line length."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            names = [self.names[self.name[i]]]
            if names[0] == "reach":
                names.append("reach.len_le8" if self.size[i] <= 8
                             else "reach.len_gt8")
            for name in names:
                row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0, "size": 0})
                row["calls"] += 1
                row["busy_s"] += dur
                row["self_s"] += dur - child[i - first]
                row["size"] += self.size[i]
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON array per span:
        [name, start_s, end_s, parent, op, size], times from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.start),
                                     counts=dict(self.counts))) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f'["{names[self.name[i]]}",'
                         f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                         f"{self.parent[i]},{self.op[i]},{self.size[i]}]\n")


def per_layer_metrics(passes: list[dict], overhead: float) -> dict:
    """Per-layer metrics of the traced passes over one fixed op list.

    Counts come from the first pass (every pass repeats them exactly);
    times are medians over the passes.  `passes` holds, per pass,
    {"layers": layer_totals(...), "counts": Counter}.
    """
    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def row(p, name):
        return p["layers"].get(name, {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0, "size": 0})

    def field(name, key):
        return lambda p: row(p, name)[key]

    def both(key, *names):
        return lambda p: sum(row(p, n)[key] for n in names)

    def rate(size_of, time_of):
        def fn(p):
            t = time_of(p)
            return size_of(p) / t if t > 0 else 0.0
        return fn

    first = passes[0]
    s, count, one = "s", "count", "1/s"
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("dihedral.word_product.calls",
        field("dihedral.word_product", "calls")(first), count)
    put("dihedral.word_product.busy_s",
        med(field("dihedral.word_product", "busy_s")), s)
    put("construct.calls", field("construct", "calls")(first), count)
    put("construct.busy_s", med(field("construct", "busy_s")), s)
    put("construct.cells_per_s",
        med(rate(field("construct", "size"), field("construct", "busy_s"))),
        one)
    put("designs.serialize.busy_s", med(field("designs.serialize", "busy_s")),
        s)
    put("designs.deserialize.busy_s",
        med(field("designs.deserialize", "busy_s")), s)
    put("designs.deserialize.cells_per_s",
        med(rate(field("designs.deserialize", "size"),
                 field("designs.deserialize", "busy_s"))), one)
    put("designs.validate_cover.calls",
        field("designs.validate_cover", "calls")(first), count)
    put("designs.validate_cover.busy_s",
        med(field("designs.validate_cover", "busy_s")), s)
    for mode in ("linear", "orderable"):
        name = f"verify.{mode}"
        put(f"{name}.calls", field(name, "calls")(first), count)
        put(f"{name}.busy_s", med(field(name, "busy_s")), s)
        put(f"{name}.self_s", med(field(name, "self_s")), s)
    put("reach.calls", field("reach", "calls")(first), count)
    put("reach.cells", field("reach", "size")(first), count)
    put("reach.busy_s", med(field("reach", "busy_s")), s)
    put("reach.busy_s.len_le8", med(field("reach.len_le8", "busy_s")), s)
    put("reach.busy_s.len_gt8", med(field("reach.len_gt8", "busy_s")), s)
    put("reach.capacity_refusals",
        sum(v for k, v in first["counts"].items()
            if k.startswith("verify.") and k.endswith(".CapacityError")),
        count)
    put("search.calls",
        both("calls", "search.linear", "search.orderable")(first), count)
    put("search.busy_s", med(both("busy_s", "search.linear",
                                  "search.orderable")), s)
    kernels = ("search.kernel.linear", "search.kernel.orderable")
    put("search.kernel_s", med(both("busy_s", *kernels)), s)
    put("search.nodes", both("size", *kernels)(first), count)
    for kernel in kernels:
        put("search.nodes_per_s." + kernel.rsplit(".", 1)[1],
            med(rate(field(kernel, "size"), field(kernel, "busy_s"))), one)
    put("search.solutions", first["counts"]["search.solutions"], count)
    put("search.budget_exceeded", first["counts"]["search.budget_exceeded"],
        count)
    put("feasibility.calls", field("feasibility", "calls")(first), count)
    put("feasibility.busy_s", med(field("feasibility", "busy_s")), s)
    put("feasibility.unknown", first["counts"]["feasibility.unknown"], count)
    put("cli.calls", field("cli", "calls")(first), count)
    put("cli.self_s", med(field("cli", "self_s")), s)
    put("cli.output_bytes", first["counts"]["cli.output_bytes"], "bytes")
    put("trace.overhead_frac", overhead, "ratio")
    return m
