"""In-memory span recorder wrapped around the public calls of each hzeta layer.

Nothing inside ``src/`` is edited.  ``install`` replaces each traced function
by a recording wrapper at every place the loaded ``hzeta`` modules bind it
by name (``from .zetacore import em_tail_jet`` copies the reference, so
patching the defining module alone would miss calls), and patches
``Jet.__mul__`` / ``Jet.__rmul__`` (spans) and ``Jet.__post_init__`` (a
plain count).  Spans are kept in flat arrays and written out once, at the
end, by ``dump``.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from array import array

# (module, function) pairs that get a span.  hurwitz_alpha_derivative and the
# zetacore convenience wrappers are not listed: their time stays in the
# caller's self time, and every evaluation they start still passes through a
# listed function.
SPANNED = (
    ("hurwitz", "hurwitz_jet"),
    ("hurwitz", "hurwitz_regularized_jet"),
    ("zetacore", "em_tail_jet"),
    ("zetacore", "choose_boundary"),
    ("jets", "pow_negs"),
    ("stieltjes", "generalized_stieltjes"),
    ("identities", "verify_identity"),
    ("cli", "main"),
)

JET_MUL = "jets.jet_mul"


class Tracer:
    """Records spans (name, start, end, parent, operation id) and the
    counters that need a call's arguments or result."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.jet_new = 0
        self.series_terms = 0
        self.k_sum = 0
        self.em_summands = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        name_of, start, end, parent, op = (
            self.name_of, self.start, self.end, self.parent, self.op
        )
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _on_eval(self, args, result):
        self.series_terms += result.terms_used
        self.k_sum += result.k_used

    def _on_boundary(self, args, boundary):
        # choose_boundary(w0, start, order, p): em_tail_jet sums start..M-1 directly
        self.em_summands += boundary - args[1]

    def install(self) -> None:
        """Wrap every layer function in all loaded hzeta modules."""
        import hzeta.jets

        hooks = {
            "hurwitz_jet": self._on_eval,
            "hurwitz_regularized_jet": self._on_eval,
            "choose_boundary": self._on_boundary,
        }
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "hzeta"]
        for mod_name, fn_name in SPANNED:
            owner = sys.modules.get(f"hzeta.{mod_name}")
            if owner is None:
                continue
            original = getattr(owner, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, hooks.get(fn_name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)

        jet = hzeta.jets.Jet
        jet.__mul__ = self.wrap(JET_MUL, jet.__mul__)
        jet.__rmul__ = self.wrap(JET_MUL, jet.__rmul__)
        post_init = jet.__post_init__
        tracer = self

        def counted_post_init(obj):
            tracer.jet_new += 1
            post_init(obj)

        jet.__post_init__ = counted_post_init

    def summary(self, wall_ns: int) -> dict:
        """Calls, total time and self time per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; ``uncovered_ns`` is ``wall_ns`` minus the root spans.
        """
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        n = len(start)
        child = array("q", bytes(8 * n))
        root_ns = 0
        for i in range(n):
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            else:
                root_ns += d
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = name_of[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            self_ns[k] += d - child[i]
        return {
            "layers": {
                name: {"calls": calls[k], "total_ns": total[k], "self_ns": self_ns[k]}
                for k, name in enumerate(self.names)
            },
            "spans": n,
            "jet_new": self.jet_new,
            "series_terms": self.series_terms,
            "k_sum": self.k_sum,
            "em_summands": self.em_summands,
            "uncovered_ns": wall_ns - root_ns,
        }

    def dump(self, path: str) -> None:
        """Append every span to the gzip file at path, one tab-separated line
        each.  parent counts the spans of the same pid from 0 (-1: root)."""
        pid = os.getpid()
        names = self.names
        new = not os.path.exists(path)
        with gzip.open(path, "at", compresslevel=1) as fh:
            if new:
                fh.write("pid\top\tname\tstart_ns\tend_ns\tparent\n")
            fh.writelines(
                f"{pid}\t{op}\t{names[k]}\t{t0}\t{t1}\t{p}\n"
                for op, k, t0, t1, p in zip(self.op, self.name_of, self.start, self.end,
                                            self.parent)
            )


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    out = {"layers": {}, "spans": 0, "jet_new": 0, "series_terms": 0, "k_sum": 0,
           "em_summands": 0, "uncovered_ns": 0}
    for s in summaries:
        for key in ("spans", "jet_new", "series_terms", "k_sum", "em_summands",
                    "uncovered_ns"):
            out[key] += s[key]
        for name, entry in s["layers"].items():
            acc = out["layers"].setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += entry[key]
    return out
