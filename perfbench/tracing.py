"""In-memory span tracer for the benchmark's traced run.

install() replaces every public function of thinville's pcgroup,
structure, beauville and catalog modules, in every thinville module
namespace that binds it, and the public methods of PcPresentation and
Subgroup, with a wrapper that records one span per call: name, parent
span, start and end.  The engine's code is not changed; uninstall()
puts the originals back.  The `elements` iterators are not timed: each
records one event whose tag is the number of items it yielded.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("pcgroup", "structure", "beauville", "catalog")
CLASSES = (("pcgroup", "PcPresentation"), ("structure", "Subgroup"))
# every public arithmetic method calls it first; a span for it would
# double the span count without naming any work
UNTRACED = frozenset({"ensure_consistent"})
ITERATORS = frozenset({"elements"})
ARRAYS = ("name", "parent", "start", "end", "tag")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self._stack = []
        self._undo = []

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    # ------------------------------------------------------------------
    # wrappers

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.tag.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap_call(self, fn, name, tag_of=None):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if tag_of is not None:
                self.tag[i] = tag_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_iter(self, fn, name):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                now = time.perf_counter()
                tracer.name.append(nid)
                tracer.parent.append(parent)
                tracer.start.append(now)
                tracer.end.append(now)
                tracer.tag.append(count)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # install / uninstall

    def install(self, tag_of=None):
        """Wrap the engine; tag_of maps a span name to a function of the
        call's result whose value is stored as the span's tag."""
        tag_of = tag_of or {}
        mods = {layer: sys.modules[f"thinville.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap_call(obj, name,
                                                   tag_of.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "thinville" and not modname.startswith("thinville."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((mod, attr, obj))
        for layer, clsname in CLASSES:
            cls = getattr(mods[layer], clsname)
            for attr, obj in list(vars(cls).items()):
                if (not inspect.isfunction(obj) or attr.startswith("_")
                        or attr in UNTRACED):
                    continue
                name = f"{layer}.{clsname}.{attr}"
                if attr in ITERATORS:
                    setattr(cls, attr, self._wrap_iter(obj, name))
                else:
                    setattr(cls, attr, self._wrap_call(obj, name,
                                                       tag_of.get(name)))
                self._undo.append((cls, attr, obj))

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # ------------------------------------------------------------------
    # analysis and output

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * len(dur)))
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i]
        return dur, array("d", (d - c for d, c in zip(dur, child)))

    def outermost(self, groups):
        """For each group (a set of span names), the indices of its spans
        that have no ancestor in the same group."""
        bit = {}
        for g, names in enumerate(groups):
            for nm in names:
                nid = self._name_ids.get(nm)
                if nid is not None:
                    bit[nid] = bit.get(nid, 0) | (1 << g)
        own = [bit.get(nid, 0) for nid in self.name]
        inherited = [0] * len(own)
        out = [[] for _ in groups]
        for i, par in enumerate(self.parent):
            if par >= 0:
                inherited[i] = inherited[par] | own[par]
            mask = own[i] & ~inherited[i]
            while mask:
                low = mask & -mask
                out[low.bit_length() - 1].append(i)
                mask ^= low
        return out

    def ids_of(self, *names):
        return {self._name_ids[nm] for nm in names if nm in self._name_ids}

    def write(self, path):
        """Write the spans to path: one JSON line (span count, span names,
        byte order and array layout), then the five arrays in turn, each
        with one item per span: name (index into names), parent (-1 for
        none), start and end (perf_counter seconds) and tag."""
        header = {
            "spans": len(self),
            "names": self.names,
            "byteorder": sys.byteorder,
            "arrays": [[attr, getattr(self, attr).typecode]
                       for attr in ARRAYS],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr in ARRAYS:
                getattr(self, attr).tofile(fh)
