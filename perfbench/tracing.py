"""Spans around cqe's public functions, recorded from outside the package.

A :class:`Tracer` rebinds a function under every name it is bound to in
the loaded ``cqe`` modules (``cqe.cli.search_sparse`` and
``cqe.trainer.search_sparse`` both go through ``cqe.sparse.search_sparse``),
or replaces a method on its class, so the CLI runs unchanged while each
call leaves a span: name, start, end, parent span and request id. Spans
stay in memory until :meth:`Tracer.write`. Functions called too often
for a span, such as ``tokenize``, are only counted.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import statistics
import sys
import time
import types
from collections import defaultdict
from typing import Callable, NamedTuple


def percentile(samples, q: float, min_beyond: int = 0) -> float:
    """Nearest-rank q-th percentile of ``samples``.

    Raises ValueError when fewer than ``min_beyond`` samples lie above
    the chosen rank, so that a p90 always rests on at least that many
    slower samples.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {len(xs) - rank} beyond it; need {min_beyond}"
        )
    return xs[rank - 1]


def median(samples) -> float:
    return float(statistics.median(samples))


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root
    request: str | None


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start_ns
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end_ns - s.start_ns - covered)
    return out


def _resolve(target: str):
    """'cqe.sparse:search_sparse' or 'cqe.ranking:RankedList.from_scores' -> (owner, attr, raw)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []  # replaced class attributes
        self._rebound: dict = {}  # wrapper -> wrapped module-level function

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.request))
        self._stack.append(idx)
        return idx

    def root(self) -> int:
        """Index of the outermost open span, -1 when none is open."""
        return self._stack[0] if self._stack else -1

    def end(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = self.spans[idx]._replace(end_ns=end)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    # -- patching ----------------------------------------------------------

    def wrap(self, target: str, name: str, observe: Callable | None = None, count_only: bool = False) -> bool:
        """Trace calls of ``target`` under ``name``; False if cqe has no such name.

        ``observe(arguments, result)`` runs after each call and may add to
        the counters. It gets the arguments bound to parameter names, or
        with ``count_only`` (no span, for functions called very often) the
        raw positional tuple.
        """
        found = _resolve(target)
        if found is None:
            return False
        owner, attr, raw = found
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn)
        tracer = self
        calls_key = f"{name}.calls"

        def notify(args, kwargs, result) -> None:
            try:
                observe(args if count_only else signature.bind(*args, **kwargs).arguments, result)
            except (TypeError, KeyError, AttributeError, IndexError) as exc:
                tracer.counters["trace.observer_errors"] += 1
                print(f"trace: {name}: {exc!r}", file=sys.stderr)

        def wrapper(*args, **kwargs):
            tracer.counters[calls_key] += 1
            if count_only:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
            if observe is not None:
                notify(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        if isinstance(owner, type):
            replacement = classmethod(wrapper) if is_classmethod else wrapper
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return True
        # A module-level function: rebind it wherever cqe imported it by name.
        self._rebound[wrapper] = fn
        self._rebind({fn: wrapper})
        return True

    def restore(self) -> None:
        """Undo every wrap, also in cqe modules imported after it (they bound the wrapper)."""
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        self._rebind(self._rebound)
        self._rebound.clear()

    @staticmethod
    def _rebind(mapping: dict) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "cqe" or module_name.startswith("cqe.")):
                continue
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in mapping:
                    setattr(module, key, mapping[value])

    # -- results -----------------------------------------------------------

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return list(self.spans)

    def by_name(self) -> dict[str, dict[str, list]]:
        """Per span name: durations and self times in seconds, and each span's root."""
        spans = self.finished()
        roots: list[int] = []
        out: dict[str, dict[str, list]] = defaultdict(lambda: {"dur": [], "self": [], "root": []})
        for i, (s, self_ns) in enumerate(zip(spans, self_times_ns(spans))):
            roots.append(i if s.parent < 0 else roots[s.parent])
            out[s.name]["dur"].append((s.end_ns - s.start_ns) / 1e9)
            out[s.name]["self"].append(self_ns / 1e9)
            out[s.name]["root"].append(roots[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.finished()):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")
