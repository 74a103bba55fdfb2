"""Spans around calls into the program's public functions, from outside it.

The traced run patches each wrap target — a module function or a class
method named ``"module:attr"`` or ``"module:Class.method"`` — with a
timing wrapper.  A function bound elsewhere by ``from m import f`` is
patched at every such binding too, so calls through the CLI's own imports
are seen.  Spans nest by call order; a layer's time is the sum of its
spans' durations in one op, and the op time no top-level span covers is
reported as unattributed.

A target that cannot be resolved (renamed or deleted) or that never fires
during the run is listed as missing, never silently read as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from perfbench.common import peak_rss_mb, rss_mb


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0
    rss_mb: float = 0.0
    peak_mb: float = 0.0
    rss_delta_mb: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class OpRecord:
    """Per-layer totals for one op (or for the set-up phase)."""

    duration_s: float
    layer_s: dict[str, float] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)
    layer_rss_mb: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    top_level_s: float = 0.0

    @property
    def unattributed_s(self) -> float:
        return max(self.duration_s - self.top_level_s, 0.0)


OnReturn = Callable[["Tracer", object], None]


class Tracer:
    """Collects spans for wrapped targets while :attr:`active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.unresolved: dict[str, str] = {}
        self.fired: dict[str, int] = defaultdict(int)
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, target: str, on_return: OnReturn | None = None) -> bool:
        """Patch ``target`` so each call records a ``layer`` span.

        Returns False (and records the layer as unresolved) when the
        target no longer exists.
        """
        mod_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(mod_name)
            *parents, name = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError) as exc:
            self.unresolved[layer] = f"{target}: {exc}"
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if not callable(fn):
            self.unresolved[layer] = f"{target}: not callable"
            return False
        wrapper = self._make_wrapper(layer, fn, on_return)
        self._set(owner, name, kind(wrapper) if kind is not None else wrapper)
        if inspect.ismodule(owner):
            # `from m import f` copies the binding: patch those copies too.
            for mod in list(sys.modules.values()):
                if mod is not owner and getattr(mod, name, None) is fn:
                    self._set(mod, name, wrapper)
        return True

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def unwrap_all(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _make_wrapper(self, layer: str, fn, on_return: OnReturn | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self._spans.append(
            Span(layer, perf_counter(), parent=parent, rss_mb=rss_mb(), peak_mb=peak_rss_mb())
        )
        self._stack.append(len(self._spans) - 1)
        self.fired[layer] += 1
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self._spans[idx]
        span.end = perf_counter()
        # The kernel's high-water mark only rises: the growth is exact when
        # the call set a new process peak, and a lower bound otherwise.
        peak = peak_rss_mb()
        span.rss_delta_mb = (peak if peak > span.peak_mb else rss_mb()) - span.rss_mb
        self._stack.pop()
        if span.parent is not None:
            self._spans[span.parent].children_s += span.duration

    def count(self, name: str, value: float) -> None:
        """Add to a per-op counter (rows, epochs, passes)."""
        self._counts[name] += value

    # ------------------------------------------------------------------ #
    def begin(self) -> float:
        """Start collecting one op; returns its start time."""
        self._spans.clear()
        self._stack.clear()
        self._counts = defaultdict(float)
        self.active = True
        return perf_counter()

    def end(self, t0: float) -> OpRecord:
        """Stop collecting and fold the op's spans into an :class:`OpRecord`."""
        duration = perf_counter() - t0
        self.active = False
        rec = OpRecord(duration_s=duration, counts=dict(self._counts))
        for span in self._spans:
            rec.layer_s[span.layer] = rec.layer_s.get(span.layer, 0.0) + span.duration
            rec.layer_self_s[span.layer] = (
                rec.layer_self_s.get(span.layer, 0.0) + span.self_s
            )
            rec.layer_rss_mb[span.layer] = max(
                rec.layer_rss_mb.get(span.layer, 0.0), span.rss_delta_mb
            )
            if span.parent is None:
                rec.top_level_s += span.duration
        return rec

    def missing(self, expected) -> dict[str, str]:
        """Expected layers that are unresolved or never fired."""
        out = {}
        for layer in expected:
            if layer in self.unresolved:
                out[layer] = self.unresolved[layer]
            elif not self.fired.get(layer):
                out[layer] = "never fired"
        return out
