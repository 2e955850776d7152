"""Per-layer tracing of circdepth from outside the package.

The tracer wraps named functions by rebinding every ``circdepth`` module
attribute that holds the original function object, so a helper imported by
name elsewhere (``build_graph`` in ``cli``, ``components_of_mask`` in
``homology``) is caught wherever it is called from.  A name the package no
longer has is recorded as absent instead of failing the run.

Timed wrappers keep a span stack: a span's self time is its duration minus
the time covered by its child spans.  Counting wrappers only count, because
they sit on the hottest paths (one call per vertex subset or per candidate
interval).  Spans stay in memory; the caller writes them out when the run
ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Metric names reported by a traced run, in output order.  Layer metrics that
# do not occur in a workload read 0; the runner fills in trace.overhead_s.
PER_LAYER_METRICS = (
    "graphs.build_graph.calls",
    "graphs.build_graph.self_s",
    "graphs.build_graph.edges",
    "graphs.find_isomorphism.calls",
    "graphs.find_isomorphism.self_s",
    "graphs.connected_components.self_s",
    "formulas.formula_for_spec.calls",
    "formulas.formula_for_spec.self_s",
    "homology.hochster_betti_table.calls",
    "homology.hochster_betti_table.self_s",
    "homology.subsets",
    "homology.subsets_visited",
    "homology.subset_visit_ratio",
    "homology.faces.calls",
    "homology.faces.count",
    "homology.faces.self_s",
    "homology.memo_hit_ratio",
    "homology.boundary.calls",
    "homology.boundary.nnz",
    "homology.boundary.self_s",
    "homology.rank_gf2.calls",
    "homology.rank_gf2.self_s",
    "homology.rank_modp.calls",
    "homology.rank_modp.self_s",
    "homology.rank_qq.calls",
    "homology.rank_qq.self_s",
    "homology.rank.cols",
    "sdepth.sdepth_exact.calls",
    "sdepth.sdepth_exact.self_s",
    "sdepth.sdepth_exact.budget_exhausted",
    "sdepth.char_poset.calls",
    "sdepth.char_poset.self_s",
    "sdepth.char_poset.elements",
    "sdepth.find_partition.calls",
    "sdepth.find_partition.hit_s",
    "sdepth.find_partition.miss_s",
    "sdepth.find_partition.budget_s",
    "sdepth.find_partition.hit_ratio",
    "sdepth.interval_cells.calls",
    "ideals.edge_ideal.self_s",
    "ideals.verify_colon_decomposition.calls",
    "ideals.verify_colon_decomposition.self_s",
    "cli.self_s",
    "trace.overhead_s",
)


class Tracer:
    def __init__(self, record_spans: bool = True) -> None:
        self.stats: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, item id, name, start, end)
        self.absent: list[str] = []
        self.record_spans = record_spans
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._patches: list[tuple] = []
        self._next_id = 0
        self._item = 0
        self._in_oracle = 0

    # -- spans ---------------------------------------------------------------

    def _push(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> tuple[float, float]:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        if self.record_spans:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((frame[0], parent, self._item, frame[1], frame[2], end))
        return duration, duration - frame[3]

    def item(self, fn, *args, **kwargs):
        """Run one workload item as a root span; its self time is ``cli.self_s``."""
        self._item += 1
        frame = self._push("cli")
        try:
            return fn(*args, **kwargs)
        finally:
            _, self_s = self._pop(frame)
            self.stats["cli.self_s"] += self_s

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, on_call=None, on_result=None, outcome=False):
        """Wrapper factory: calls, self time, and optional size counters.

        With ``outcome`` the call's duration is also split into ``hit_s``
        (a result), ``miss_s`` (None) and ``budget_s`` (an exception).
        """
        stats = self.stats

        def make(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(stats, args)
                frame = self._push(name)
                kind = "budget_s"
                try:
                    result = fn(*args, **kwargs)
                    kind = "miss_s" if result is None else "hit_s"
                    return result
                finally:
                    duration, self_s = self._pop(frame)
                    stats[name + ".calls"] += 1
                    stats[name + ".self_s"] += self_s
                    if outcome:
                        stats[f"{name}.{kind}"] += duration
                        stats[name + ".hits"] += kind == "hit_s"
                    if on_result is not None and kind != "budget_s":
                        on_result(stats, result)

            return wrapper

        return make

    def counted(self, name: str, on_result=None, only_in_oracle=False):
        stats = self.stats

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not only_in_oracle or self._in_oracle:
                    stats[name + ".calls"] += 1
                    if on_result is not None:
                        on_result(stats, result)
                return result

            return wrapper

        return make

    def oracle_scope(self, make):
        """Mark the dynamic extent of the oracle for ``only_in_oracle`` counters."""

        def outer(fn):
            inner = make(fn)

            def wrapper(*args, **kwargs):
                self._in_oracle += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._in_oracle -= 1

            return wrapper

        return outer

    # -- installation --------------------------------------------------------

    def patch(self, qualname: str, make) -> None:
        """Wrap ``module.attr`` and rebind every circdepth reference to it."""
        modname, attr = qualname.rsplit(".", 1)
        module = sys.modules.get(modname)
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.absent.append(qualname)
            return
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if mod is None or not (name == "circdepth" or name.startswith("circdepth.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install(self) -> None:
        t = self.timed

        def add(key, amount):
            """Hook adding amount(value) to a counter; value is a result or the args."""

            def hook(stats, value):
                stats[key] += amount(value)

            return hook

        p = self.patch
        p("circdepth.graphs.build_graph",
          t("graphs.build_graph", on_result=add("graphs.build_graph.edges",
                                                lambda g: g.edge_count)))
        p("circdepth.graphs.find_isomorphism", t("graphs.find_isomorphism"))
        p("circdepth.graphs.connected_components", t("graphs.connected_components"))
        p("circdepth.formulas.formula_for_spec", t("formulas.formula_for_spec"))
        p("circdepth.homology.hochster_betti_table",
          self.oracle_scope(t("homology.hochster_betti_table",
                              on_call=add("homology.subsets",
                                              lambda a: 1 << a[0].num_vertices))))
        p("circdepth.graphs.components_of_mask",
          self.counted("homology.components_of_mask", only_in_oracle=True,
                       on_result=add("homology.components", len)))
        p("circdepth.homology._independence_faces_by_size",
          t("homology.faces", on_result=add("homology.faces.count",
                                            lambda f: sum(map(len, f)))))
        p("circdepth.homology._boundary_columns",
          t("homology.boundary", on_result=add("homology.boundary.nnz",
                                               lambda cols: sum(map(len, cols)))))
        p("circdepth.homology._rank_gf2",
          t("homology.rank_gf2", on_call=add("homology.rank.cols", lambda a: len(a[0]))))
        p("circdepth.homology._rank_mod_p",
          t("homology.rank_modp", on_call=add("homology.rank.cols", lambda a: len(a[0]))))
        p("circdepth.homology._rank_rational",
          t("homology.rank_qq", on_call=add("homology.rank.cols", lambda a: len(a[1]))))
        p("circdepth.sdepth.sdepth_exact",
          t("sdepth.sdepth_exact", on_result=add("sdepth.sdepth_exact.budget_exhausted",
                                                 lambda r: not r.is_exact)))
        p("circdepth.sdepth.char_poset",
          t("sdepth.char_poset", on_result=add("sdepth.char_poset.elements",
                                               lambda poset: len(poset.elements))))
        p("circdepth.sdepth.find_partition", t("sdepth.find_partition", outcome=True))
        p("circdepth.sdepth._interval_cells", self.counted("sdepth.interval_cells"))
        p("circdepth.ideals.edge_ideal", t("ideals.edge_ideal"))
        p("circdepth.ideals.verify_colon_decomposition",
          t("ideals.verify_colon_decomposition"))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s = self.stats
        out = {name: s.get(name, 0) for name in PER_LAYER_METRICS}
        out["homology.subsets_visited"] = s.get("homology.components_of_mask.calls", 0)
        out["homology.subset_visit_ratio"] = _ratio(
            out["homology.subsets_visited"], out["homology.subsets"])
        components = s.get("homology.components", 0)
        out["homology.memo_hit_ratio"] = (
            1 - out["homology.faces.calls"] / components if components else 0)
        out["sdepth.find_partition.hit_ratio"] = _ratio(
            s.get("sdepth.find_partition.hits", 0), out["sdepth.find_partition.calls"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0
