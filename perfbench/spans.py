"""In-memory span tracer installed from outside the library.

``Tracer.install`` wraps every public function of every ``adaptive_sgp``
submodule, in every ``adaptive_sgp.*`` namespace that binds it (so calls
through ``from .x import f`` bindings are seen too), plus ``Adam.step`` on
its class.  Each call records one span ``(name, start_ns, end_ns, parent,
step)``; ``restore`` puts every original back.  Nothing inside the library
is edited, and a function that no longer exists is simply absent from the
trace, so it counts no calls and no time.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "adaptive_sgp"
CLASS_METHODS = (("optim", "Adam", "step"),)


def package_modules() -> dict:
    """Import and return every ``adaptive_sgp`` submodule by short name."""
    pkg = importlib.import_module(PACKAGE)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


class Tracer:
    """Collects spans and counters for one traced run (single thread)."""

    def __init__(self, observers: dict | None = None):
        self.spans: list = []          # [name, start_ns, end_ns, parent, step]
        self.counters: Counter = Counter()    # (key, phase) -> n
        self.raised: Counter = Counter()   # (span name, exception class) -> n
        self.broken: set = set()       # observers that failed on this code
        self.step = -1                 # -1 marks set-up, then 0, 1, ...
        self._observers = observers or {}
        self._stack: list = []
        self._patches: list = []       # (owner, attribute, original)

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        wrappers = {}
        modules = package_modules()
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        namespaces = [sys.modules[PACKAGE], *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        for short, cls_name, meth in CLASS_METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            func = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(func):
                self._patch(cls, meth, self._wrap(func, f"{short}.{cls_name}.{meth}"))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    @property
    def phase(self) -> str:
        return "setup" if self.step < 0 else "stream"

    def count(self, key: str, n: int = 1) -> None:
        self.counters[(key, self.phase)] += n

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, func, name: str):
        observe = self._observers.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            after = self._before(name, observe, args, kwargs) if observe else None
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.step]
            spans.append(span)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                self._after(name, after, result)
            return result

        return traced

    # Observers derive counters from a call's arguments and result.  One
    # that no longer fits the library's signatures is switched off, keeping
    # what it counted so far, instead of failing the run.
    def _before(self, name, observe, args, kwargs):
        if name in self.broken:
            return None
        try:
            return observe(self, args, kwargs)
        except Exception:
            self.broken.add(name)
            return None

    def _after(self, name, after, result) -> None:
        try:
            after(result)
        except Exception:
            self.broken.add(name)


def self_times(spans) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(duration_ns, self_ns)`` per span.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest without overlap, so the children
    cover exactly that much of the parent's interval.
    """
    if not spans:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    start = np.array([s[1] for s in spans], dtype=np.int64)
    end = np.array([s[2] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    own = dur.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], dur[child])
    return dur, own


def aggregate(spans) -> dict:
    """Per span name and phase ("setup" or "stream"): calls and self ns."""
    _, own = self_times(spans)
    out: dict = {}
    for s, self_ns in zip(spans, own):
        rec = out.setdefault((s[0], "setup" if s[4] < 0 else "stream"), [0, 0])
        rec[0] += 1
        rec[1] += int(self_ns)
    return out


def write_jsonl(spans, path) -> None:
    """Write spans as one JSON array per line: name, start, end, parent, step."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
