"""Outside-in span tracer for spencerlab, installed in a benchmark child.

The tracer never edits the package.  After ``spencerlab.cli`` is imported
it wraps each traced entry point: a module-level function is rebound in
every ``spencerlab.*`` module that holds it (modules import each other's
functions by name, so patching the defining module alone misses calls),
and a method is replaced on its class.

A span is ``(name, start, end, parent)``; spans stay in memory until
:meth:`Tracer.summary` folds them into per-name totals at exit.  Time the
tracer spends on its own bookkeeping and argument counting is subtracted
from every enclosing span, so ``self_s`` and ``s`` measure the package.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps

_clock = time.perf_counter


def target_of(span: str) -> tuple[str, list[str]]:
    """``"linalg.GradedPiece.init"`` -> (``"spencerlab.linalg"``, [GradedPiece, __init__])."""
    module, *path = span.split(".")
    path = ["__init__" if part == "init" else part for part in path]
    return f"spencerlab.{module}", path


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rref_input(args, kwargs, counts):
    rows = args[0] if args else kwargs["rows"]
    nonzero = 0
    bits = 0
    for row in rows:
        for x in row:
            if x:
                nonzero += 1
                b = _entry_bits(x)
                if b > bits:
                    bits = b
    counts["cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["nonzeros"] += nonzero
    counts["max_entry_bits"] = max(counts["max_entry_bits"], bits)
    return args, kwargs


def _rref_output(result, counts):
    bits = counts["max_entry_bits"]
    for row in result[0]:
        for x in row:
            if x:
                b = _entry_bits(x)
                if b > bits:
                    bits = b
    counts["max_entry_bits"] = bits


def _compose_input(args, kwargs, counts):
    outer, first = args[0], args[1] if len(args) > 1 else kwargs["first"]
    counts["cells"] += (
        len(outer.target_basis) * len(outer.source_basis) * len(first.source_basis)
    )
    return args, kwargs


class _SeenMaps:
    """Counts rank calls on a LinearMap object that was already ranked.

    The maps are kept alive so that an ``id`` is never reused by a new map.
    """

    def __init__(self):
        self.maps: dict = {}

    def __call__(self, args, kwargs, counts):
        m = args[0] if args else kwargs["m"]
        if id(m) in self.maps:
            counts["repeats"] += 1
        else:
            self.maps[id(m)] = m
        return args, kwargs


def _piece_input(args, kwargs, counts):
    if len(args) > 2:
        relations = args[2]
        if not isinstance(relations, (list, tuple)):
            relations = list(relations)
            args = args[:2] + (relations,) + args[3:]
    else:
        relations = kwargs["relations"]
        if not isinstance(relations, (list, tuple)):
            relations = kwargs["relations"] = list(relations)
    counts["relation_rows"] += len(relations)
    return args, kwargs


def _homology_space_input(args, kwargs, counts):
    tower, key = args[0], tuple(args[1:4])
    if key in tower._hom_cache:
        counts["hits"] += 1
    else:
        counts["misses"] += 1
    return args, kwargs


# span -> (argument probe run before the call, result probe run after it)
PROBES = {
    "linalg.rref": (_rref_input, _rref_output),
    "linalg.LinearMap.compose": (_compose_input, None),
    "linalg.GradedPiece.init": (_piece_input, None),
    "completion.Tower.homology_space": (_homology_space_input, None),
}


class Tracer:
    def __init__(self, spans):
        self.names = list(spans)
        self.spans: list = []  # [name index, start, end, parent, outermost, inner overhead]
        self.stack: list = []
        self.overhead = 0.0  # tracer time spent outside every span's own window
        self.counts = [
            {"cells": 0, "nonzeros": 0, "max_entry_bits": 0, "repeats": 0,
             "relation_rows": 0, "hits": 0, "misses": 0}
            for _ in self.names
        ]
        self.active = [0] * len(self.names)
        self.lru = {}
        self.probes = dict(PROBES)
        self.probes["linalg.rank_kernel_image"] = (_SeenMaps(), None)

    def install(self):
        """Wrap every span's entry point; raise if one no longer exists."""
        holders = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "spencerlab" or name.startswith("spencerlab."))
        ]
        for k, span in enumerate(self.names):
            module_name, path = target_of(span)
            owner = importlib.import_module(module_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if attr not in vars(owner):
                raise LookupError(f"traced entry point {span!r} not found in {module_name}")
            original = vars(owner)[attr]
            wrapper = self._wrap(k, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            if hasattr(original, "cache_info"):
                self.lru[k] = original
            for module in holders:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, k, fn):
        before, after = self.probes.get(self.names[k], (None, None))
        counts = self.counts[k]
        spans, stack, active = self.spans, self.stack, self.active

        @wraps(fn)
        def traced(*args, **kwargs):
            t_pre = _clock()
            record = [k, 0.0, 0.0, stack[-1] if stack else -1, active[k] == 0, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            active[k] += 1
            if before is not None:
                args, kwargs = before(args, kwargs, counts)
            start = _clock()
            self.overhead += start - t_pre
            inner = self.overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                record[1], record[2] = start, end
                record[5] = self.overhead - inner
                stack.pop()
                active[k] -= 1
            if after is not None:
                after(result, counts)
            self.overhead += _clock() - end
            return result

        return traced

    def summary(self) -> dict:
        """Per-span totals: calls, self_s, s (outermost spans only) and counters."""
        net = [end - start - inner for _k, start, end, _p, _o, inner in self.spans]
        child = [0.0] * len(self.spans)
        for idx, (_k, _s, _e, parent, _o, _i) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += net[idx]
        out = {}
        for k, name in enumerate(self.names):
            out[name] = dict(self.counts[k], calls=0, self_s=0.0, s=0.0)
        for idx, (k, _s, _e, _p, outermost, _i) in enumerate(self.spans):
            entry = out[self.names[k]]
            entry["calls"] += 1
            entry["self_s"] += net[idx] - child[idx]
            if outermost:
                entry["s"] += net[idx]
        for k, original in self.lru.items():
            info = original.cache_info()
            out[self.names[k]]["hits"] = info.hits
            out[self.names[k]]["misses"] = info.misses
        return out
