"""Spans around calls into qqkit's layers, recorded from the benchmark's side.

qqkit itself carries no instrumentation.  ``Tracer.install`` replaces the
public functions and methods listed in ``SPANS`` with wrappers, in the module
that defines them and in every qqkit module that imported them by name.

Every call of a wrapped function opens a span that keeps its name, start,
end and parent span in memory, per thread.  A span's self time is its
duration minus the time covered by its child spans.  Helpers that only one
wrapped function calls are left unwrapped, so their time is that function's
self time.

The ``monomial`` layer is entered about a million times per corpus pass, too
often to keep one span per call.  Its calls are summed per enclosing span
(count and nanoseconds) and subtracted from that span's self time instead.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import threading
import time
from array import array

# (span name, "module:qualified name").  The layer is the span name's prefix.
SPANS = (
    ("monomial.new", "qqkit.monomial:Monomial.__init__"),
    ("monomial.mul", "qqkit.monomial:Monomial.__mul__"),
    ("monomial.pow", "qqkit.monomial:Monomial.__pow__"),
    ("monomial.inverse", "qqkit.monomial:Monomial.inverse"),
    ("monomial.div", "qqkit.monomial:Monomial.__truediv__"),
    ("monomial.substitute", "qqkit.monomial:Monomial.substitute"),
    ("monomial.without", "qqkit.monomial:Monomial.without"),
    ("monomial.sort_key", "qqkit.monomial:Monomial.sort_key"),
    ("monomial.lt", "qqkit.monomial:Monomial.__lt__"),
    ("monomial.gen", "qqkit.monomial:Monomial.gen"),
    ("monomial.from_json", "qqkit.monomial:Monomial.from_json"),
    ("monomial.parse", "qqkit.monomial:parse_monomial"),
    ("monomial.xparam", "qqkit.monomial:xparam"),
    ("monomial.qfrak", "qqkit.monomial:qfrak"),
    ("coefficient.mul", "qqkit.coefficient:Coefficient.__mul__"),
    ("coefficient.eq", "qqkit.coefficient:Coefficient.__eq__"),
    ("coefficient.add", "qqkit.coefficient:Coefficient.__add__"),
    ("coefficient.sub", "qqkit.coefficient:Coefficient.__sub__"),
    ("coefficient.div", "qqkit.coefficient:Coefficient.__truediv__"),
    ("coefficient.pow", "qqkit.coefficient:Coefficient.__pow__"),
    ("coefficient.inverse", "qqkit.coefficient:Coefficient.inverse"),
    ("coefficient.factored", "qqkit.coefficient:Coefficient.factored"),
    ("coefficient.general", "qqkit.coefficient:Coefficient.general"),
    ("coefficient.specialize", "qqkit.coefficient:Coefficient.specialize"),
    ("coefficient.limit", "qqkit.coefficient:Coefficient.limit_at_unity"),
    ("coefficient.to_json", "qqkit.coefficient:Coefficient.to_json"),
    ("coefficient.from_json", "qqkit.coefficient:Coefficient.from_json"),
    # s_function and s_product are one-line aliases that reach s_r through
    # the module global, so every S-value is counted once, as s_r.
    ("coefficient.s_r", "qqkit.coefficient:s_r"),
    ("quiver.builtin", "qqkit.quiver:builtin_quiver"),
    ("quiver.from_json", "qqkit.quiver:Quiver.from_json"),
    ("quiver.cartan", "qqkit.quiver:cartan_matrix"),
    ("quiver.classify", "qqkit.quiver:classify"),
    ("quiver.a_inverse", "qqkit.quiver:a_inverse_monomial"),
    ("engine.ymonomial", "qqkit.engine:YMonomial.__init__"),
    ("engine.ym_substitute", "qqkit.engine:YMonomial.substitute"),
    ("engine.weights", "qqkit.engine:WeightConfig.make"),
    ("engine.equals", "qqkit.engine:Character.equals"),
    ("engine.expand", "qqkit.engine:expand"),
    ("engine.reflect", "qqkit.engine:reflect"),
    ("engine.s_factor", "qqkit.engine:s_factor_coefficient"),
    ("engine.closed_form_A1", "qqkit.engine:closed_form_A1"),
    ("higgsing.higgs", "qqkit.higgsing:higgs"),
    ("higgsing.limit", "qqkit.higgsing:classical_limit"),
    ("higgsing.factorize", "qqkit.higgsing:factorize_check"),
    ("higgsing.kr_sigma", "qqkit.higgsing:kr_sigma"),
    ("higgsing.kr_closed_form_A1", "qqkit.higgsing:kr_closed_form_A1"),
    ("partitions.transpose", "qqkit.partitions:Partition.transpose"),
    ("partitions.box_stats", "qqkit.partitions:box_stats"),
    ("partitions.partitions_of", "qqkit.partitions:partitions_of"),
    ("partitions.partitions_up_to", "qqkit.partitions:partitions_up_to"),
    ("partitions.z_A0", "qqkit.partitions:z_A0"),
    ("partitions.z_Ar", "qqkit.partitions:z_Ar"),
    ("partitions.z_A0_tuple", "qqkit.partitions:z_A0_tuple"),
    ("partitions.z_tuple", "qqkit.partitions:z_Ar_tuple"),
    ("partitions.affine", "qqkit.partitions:affine_character"),
    ("partitions.pit_filter", "qqkit.partitions:pit_filter"),
    ("partitions.pit_vanishes", "qqkit.partitions:pit_resonance_vanishes"),
    ("partitions.burge_filter", "qqkit.partitions:burge_filter"),
    ("render.latex", "qqkit.render:character_latex"),
    ("render.dot", "qqkit.render:hasse_dot"),
    ("render.json", "qqkit.render:character_to_json"),
    ("render.from_json", "qqkit.render:character_from_json"),
    ("render.edge_label", "qqkit.render:edge_label"),
    # run_corpus is left out: its span would only measure the wait on its
    # thread pool.  Each fixture opens a root span in its worker thread.
    ("verify.load_corpus", "qqkit.verify:load_corpus"),
    ("verify.run_fixture", "qqkit.verify:run_fixture"),
    ("verify.run_pipeline", "qqkit.verify:run_pipeline"),
    ("cli.main", "qqkit.cli:main"),
)

LAYERS = ("monomial", "coefficient", "quiver", "engine", "higgsing", "partitions", "render", "verify", "cli")
LEAF_LAYERS = ("monomial",)


def _specialize_hook(st, args, result):
    st.bump("coefficient.specialize.zero", 1 if result.is_zero else 0)


def _s_r_hook(st, args, result):
    st.s_r_args.add((args[0], args[1]))


def _reflect_hook(st, args, result):
    st.bump("engine.s_zero_drops", 1 if result is None else 0)


def _expand_hook(st, args, result):
    st.bump("engine.terms", len(result.terms))
    st.bump("engine.edges", len(result.edges))
    st.bump("engine.path_checks", result.meta.get("path_checks", 0))


def _higgs_hook(st, args, result):
    st.bump("higgsing.higgs.terms_in", len(args[0].terms))
    st.bump("higgsing.higgs.dropped", len(result.meta.get("dropped", ())))


HOOKS = {
    "coefficient.specialize": _specialize_hook,
    "coefficient.s_r": _s_r_hook,
    "engine.reflect": _reflect_hook,
    "engine.expand": _expand_hook,
    "higgsing.higgs": _higgs_hook,
}


class _ThreadState:
    """Spans and counters of one thread; only that thread writes them."""

    def __init__(self, n_names: int):
        self.buf = array("q")  # per span: name id, parent index, start ns, end ns
        self.stack: list[int] = []  # open span indexes
        self.calls = [0] * n_names
        self.in_leaf = False
        self.leaf_ns: dict[int, int] = {}  # parent span index (-1: none) -> leaf ns
        self.counters: dict[str, int] = {}
        self.s_r_args: set = set()

    def bump(self, key: str, n: int):
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    """Installs the wrappers once; ``reset`` starts each traced pass afresh."""

    def __init__(self):
        self.names = [name for name, _ in SPANS]
        self.missing: list[str] = []  # targets the checked-out qqkit does not have
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        """Drop all spans and counters; the next call starts a fresh record."""
        with self._lock:
            self._local = threading.local()
            self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(len(self.names))
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    @contextlib.contextmanager
    def muted(self):
        """Record nothing of this thread's calls inside the block (output checks)."""
        real = self._state()
        self._local.st = _ThreadState(len(self.names))  # never summarized
        try:
            yield
        finally:
            self._local.st = real

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, nid: int, fn, hook):
        clock = time.perf_counter_ns
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.calls[nid] += 1
            buf, stack = st.buf, st.stack
            idx = len(buf) >> 2
            buf.extend((nid, stack[-1] if stack else -1, clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[4 * idx + 3] = clock()
                stack.pop()
            if hook is not None:
                hook(st, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, nid: int, fn):
        clock = time.perf_counter_ns
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            st.calls[nid] += 1
            if st.in_leaf:
                return fn(*args, **kwargs)
            st.in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.in_leaf = False
                parent = st.stack[-1] if st.stack else -1
                st.leaf_ns[parent] = st.leaf_ns.get(parent, 0) + dt

        return wrapper

    def install(self):
        """Wrap every function in SPANS in the qqkit modules now imported."""
        pkg = [m for name, m in sys.modules.items() if name == "qqkit" or name.startswith("qqkit.")]
        for nid, (name, target) in enumerate(SPANS):
            modname, qual = target.split(":")
            module = sys.modules.get(modname)
            leaf = name.split(".")[0] in LEAF_LAYERS
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    self.missing.append(target)
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                w = self._leaf_wrapper(nid, fn) if leaf else self._span_wrapper(nid, fn, HOOKS.get(name))
                setattr(cls, meth, staticmethod(w) if isinstance(raw, staticmethod) else w)
                continue
            fn = getattr(module, qual, None)
            if fn is None:
                self.missing.append(target)
                continue
            w = self._leaf_wrapper(nid, fn) if leaf else self._span_wrapper(nid, fn, HOOKS.get(name))
            for m in pkg:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, w)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, spans, self seconds; per layer: self seconds."""
        n = len(self.names)
        calls = [0] * n
        spans = [0] * n
        self_ns = [0] * n
        leaf_total = 0
        counters: dict[str, int] = {}
        s_r_args: set = set()
        for st in self._states:
            buf = st.buf
            count = len(buf) >> 2
            child = [0] * count
            for k in range(count):
                parent = buf[4 * k + 1]
                if parent >= 0:
                    child[parent] += buf[4 * k + 3] - buf[4 * k + 2]
            for k in range(count):
                nid = buf[4 * k]
                dur = buf[4 * k + 3] - buf[4 * k + 2]
                spans[nid] += 1
                self_ns[nid] += dur - child[k] - st.leaf_ns.get(k, 0)
            leaf_total += sum(st.leaf_ns.values())
            for i, c in enumerate(st.calls):
                calls[i] += c
            for key, v in st.counters.items():
                counters[key] = counters.get(key, 0) + v
            s_r_args |= st.s_r_args
        by_name = {
            name: {"calls": calls[i], "spans": spans[i], "self_s": self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layers[name.split(".")[0]] += self_ns[i] / 1e9
        for layer in LEAF_LAYERS:
            layers[layer] += leaf_total / 1e9
        counters["coefficient.s_r.distinct"] = len(s_r_args)
        return {"functions": by_name, "layers": layers, "counters": counters}

    def write_spans(self, path: str):
        """Write every span (and the summed leaf time under it) as JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["thread", "span", "name", "parent", "start_ns", "end_ns", "leaf_ns"]}) + "\n")
            for t, st in enumerate(self._states):
                buf = st.buf
                for k in range(len(buf) >> 2):
                    nid, parent, start, end = buf[4 * k : 4 * k + 4]
                    fh.write(f"[{t},{k},{nid},{parent},{start},{end},{st.leaf_ns.get(k, 0)}]\n")
                if -1 in st.leaf_ns:
                    fh.write(f"[{t},-1,-1,-1,0,0,{st.leaf_ns[-1]}]\n")
