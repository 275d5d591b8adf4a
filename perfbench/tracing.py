"""Spans at quivlat's module boundaries, recorded from outside the package.

install() wraps the public functions the per-layer metrics name and rebinds
each wrapper under every quivlat.* module name that held the original (so
quivlat.homology.kernel_data and quivlat.structure.orbit_search are traced
too); class hooks are patched on the class itself.  Each span records its
name, start, end, parent span and op id.  Spans stay in memory in flat
arrays and are written once, at process exit, with dump(); SpanTotals reads
span files back, computing self times from parent links, and
layer_metrics() turns the totals into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

RING_TAGS = {"F:2": "F2", "F:3": "F3", "Zmod:4": "Zmod4", "Z": "Z",
             "Feps:2:2": "Feps22", "Q": "Q"}
METRIC_RINGS = ("F2", "F3", "Zmod4", "Z", "Feps22", "Q", "other")
ELIMINATIONS = ("kernel_data", "cokernel_data", "cokernel", "solve")
ORBIT_RINGS = ("Q", "Z", "other")


def ring_tag(ring) -> str:
    return RING_TAGS.get(str(ring), "other")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.active = True
        self._seen_dims = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        # start is appended last: a deadline that interrupts this method
        # leaves it the shortest column, and dump() and begin_op() cut
        # every column to the shortest.
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.value.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self.stack[-1] == idx:
            self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        """Start a new op; repairs state an interrupting deadline left behind."""
        n = min(len(self.name), len(self.start), len(self.end), len(self.parent),
                len(self.op), len(self.value))
        for col in (self.name, self.start, self.end, self.parent, self.op, self.value):
            del col[n:]
        self.stack = [-1]
        self.op_id = op_id

    def wrap(self, fn, name, tag=None, value=None):
        """Wrapper recording one span per call; tag(args) suffixes the name."""
        tracer = self
        base = self.name_id(name)
        tagged = {}

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tag is None:
                nid = base
            else:
                key = tag(args)
                nid = tagged.get(key)
                if nid is None:
                    nid = tagged[key] = tracer.name_id(name + "." + key)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if value is not None:
                tracer.value[idx] = value(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str) -> None:
        self.begin_op(-1)
        n = len(self.start)
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "n": n}).encode() + b"\n")
            for col in (self.name, self.start, self.end, self.parent, self.op, self.value):
                col.tofile(fh)


def _cells_of_input(tracer, args, result):
    return args[0].rows * args[0].cols


def _cells_of_result(tracer, args, result):
    return result.rows * result.cols


def _new_dims(tracer, args, result):
    key = result.dims_tuple()
    if key in tracer._seen_dims:
        return 0
    tracer._seen_dims.add(key)
    return 1


def _matrix_ring(args):
    return ring_tag(args[0].ring)


def _sequence_ring(args):
    return ring_tag(args[0].items[0].ring)


# (module, attribute, span name, name suffix from args, span value)
FUNCTIONS = tuple(
    [("quivlat.rings", fn, "rings." + fn, _matrix_ring, _cells_of_input)
     for fn in ELIMINATIONS]
    + [
        ("quivlat.homology", "differential", "homology.differential", None, _cells_of_result),
        ("quivlat.homology", "hom_ext", "homology.hom_ext", None, None),
        ("quivlat.mutation", "orbit_search", "mutation.orbit_search", _sequence_ring, None),
        ("quivlat.mutation", "braid_act", "mutation.braid_act", None, _new_dims),
        ("quivlat.mutation", "left_mutate", "mutation.left_mutate", None, None),
        ("quivlat.mutation", "right_mutate", "mutation.right_mutate", None, None),
        ("quivlat.structure", "exceptional_lattice", "structure.exceptional_lattice", None, None),
        ("quivlat.structure", "schur_root_status", "structure.schur_root_status", None, None),
        ("quivlat.structure", "decompose_rigid", "structure.decompose_rigid", None, None),
        ("quivlat.structure", "lift_rigid", "structure.lift_rigid", None, None),
        ("quivlat.quiver", "base_change", "quiver.base_change", None, None),
        ("quivlat.quiver", "cokernel_rep", "quiver.cokernel_rep", None, None),
    ])

# (module, class, attribute, span name)
CLASS_HOOKS = (
    ("quivlat.rings", "ExactMatrix", "__post_init__", "rings.ExactMatrix.init"),
    ("quivlat.homology", "HomExtResult", "__init__", "homology.HomExtResult.init"),
    ("quivlat.mutation", "ExcSequence", "__post_init__", "mutation.ExcSequence.init"),
    ("quivlat.quiver", "Rep", "from_json", "quiver.Rep.from_json"),
    ("quivlat.quiver", "RepMorphism", "is_isomorphism", "quiver.RepMorphism.is_isomorphism"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; quivlat must already be imported."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "quivlat" or name.startswith("quivlat.")) and m is not None]
    for mod_name, attr, name, tag, value in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = tracer.wrap(original, name, tag, value)
        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, attr, name in CLASS_HOOKS:
        cls = getattr(sys.modules[mod_name], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name))


# ---------------------------------------------------------------------------
# reading spans back


class SpanTotals:
    """Per-name totals over any number of span files."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.ms = defaultdict(float)       # outermost spans of each name only
        self.self_ms = defaultdict(float)
        self.value = defaultdict(int)

    def add_file(self, path: str) -> tuple:
        """Add one span file; returns that file's (ms, self_ms) by span name."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["n"]
            cols = []
            for code in ("i", "d", "d", "i", "i", "q"):
                col = array(code)
                col.fromfile(fh, n)
                cols.append(col)
        names = header["names"]
        name, start, end, parent, op, value = cols
        dur = [0.0] * n
        child = [0.0] * n
        valid = [False] * n
        for i in range(n):
            if end[i] >= start[i] > 0 and op[i] >= 0 and (parent[i] < 0 or valid[parent[i]]):
                valid[i] = True
                dur[i] = end[i] - start[i]
                if parent[i] >= 0:
                    child[parent[i]] += dur[i]
        # Sweep in start order keeping the open chain, to know whether a span
        # has an ancestor of its own name (then its time is already counted).
        chain = []
        open_count = defaultdict(int)
        file_ms, file_self = defaultdict(float), defaultdict(float)
        for i in range(n):
            if not valid[i]:
                continue
            while chain and chain[-1] != parent[i]:
                open_count[name[chain.pop()]] -= 1
            nm = names[name[i]]
            self.calls[nm] += 1
            self.value[nm] += value[i]
            file_self[nm] += (dur[i] - child[i]) * 1000.0
            if open_count[name[i]] == 0:
                file_ms[nm] += dur[i] * 1000.0
            chain.append(i)
            open_count[name[i]] += 1
        for nm, v in file_ms.items():
            self.ms[nm] += v
        for nm, v in file_self.items():
            self.self_ms[nm] += v
        return file_ms, file_self


def layer_metrics(t: SpanTotals) -> dict:
    """Per-layer metrics (value, unit) from span totals; zero where unused."""
    m = {}
    for ring in METRIC_RINGS:
        cells = 0
        for fn in ELIMINATIONS:
            key = "rings.%s.%s" % (fn, ring)
            m["rings.%s.calls.%s" % (fn, ring)] = (t.calls[key], "count")
            m["rings.%s.ms.%s" % (fn, ring)] = (t.ms[key], "ms")
            cells += t.value[key]
        m["rings.elim.cells." + ring] = (cells, "count")
    m["rings.ExactMatrix.init.calls"] = (t.calls["rings.ExactMatrix.init"], "count")
    m["rings.ExactMatrix.init.ms"] = (t.ms["rings.ExactMatrix.init"], "ms")
    m["homology.differential.calls"] = (t.calls["homology.differential"], "count")
    m["homology.differential.ms"] = (t.ms["homology.differential"], "ms")
    m["homology.differential.cells"] = (t.value["homology.differential"], "count")
    calls = t.calls["homology.hom_ext"]
    misses = t.calls["homology.HomExtResult.init"]
    m["homology.hom_ext.calls"] = (calls, "count")
    m["homology.hom_ext.misses"] = (misses, "count")
    m["homology.hom_ext.hit_ratio"] = (1.0 - misses / calls if calls else 0.0, "ratio")
    m["homology.HomExtResult.self_ms"] = (t.self_ms["homology.HomExtResult.init"], "ms")
    for ring in ORBIT_RINGS:
        key = "mutation.orbit_search." + ring
        m["mutation.orbit_search.calls." + ring] = (t.calls[key], "count")
        m["mutation.orbit_search.ms." + ring] = (t.ms[key], "ms")
    calls = t.calls["mutation.braid_act"]
    m["mutation.braid_act.calls"] = (calls, "count")
    m["mutation.braid_act.ms"] = (t.ms["mutation.braid_act"], "ms")
    m["mutation.braid_act.new_ratio"] = (
        t.value["mutation.braid_act"] / calls if calls else 0.0, "ratio")
    m["mutation.left_mutate.ms"] = (t.ms["mutation.left_mutate"], "ms")
    m["mutation.right_mutate.ms"] = (t.ms["mutation.right_mutate"], "ms")
    m["mutation.ExcSequence.calls"] = (t.calls["mutation.ExcSequence.init"], "count")
    m["mutation.ExcSequence.check_ms"] = (t.ms["mutation.ExcSequence.init"], "ms")
    for fn in ("exceptional_lattice", "schur_root_status", "decompose_rigid", "lift_rigid"):
        m["structure.%s.ms" % fn] = (t.ms["structure." + fn], "ms")
    for fn in ("base_change", "cokernel_rep", "Rep.from_json", "RepMorphism.is_isomorphism"):
        m["quiver.%s.ms" % fn] = (t.ms["quiver." + fn], "ms")
    return m
