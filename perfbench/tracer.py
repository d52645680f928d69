"""Spans around calls into robuststop's layers, recorded from outside.

The package's modules import each other's functions by name (``from .x
import f``), so a call is wrapped in the namespace of the module that
makes it: ``cli.expand_tree`` and ``verify.expand_tree`` are separate
bindings of the same model function, both reported under
``model.expand_tree``.

Each span records its layer, its parent span, the op it belongs to, its
start and end, and counts taken from the returned object.  Parents are
tracked per thread because ``verify`` runs checks in a thread pool; a
span opened on a thread with no open span is parented to the op's
``cli.main`` span.  Per-sample helpers (``eval_reward``, ``drift_eval``,
``dist_dinfty``) are called tens of thousands of times per op, so they
open no span of their own: their calls and time are added to the
enclosing span.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import threading
import time

# (module, attribute, layer, counts taken from the return value)
WRAPPED = [
    ("cli", "expand_tree", "model.expand_tree", lambda t: {"nodes": t.n_nodes}),
    ("cli", "robust_envelope", "envelope.robust_envelope", None),
    ("cli", "classic_snell", "envelope.classic_snell", None),
    ("cli", "game_values", "game.game_values", lambda r: {
        "strategies": r.n_strategies,
        "stopping_times": r.n_stopping_times,
        "agree": int(r.agree),
    }),
    ("game", "classic_snell", "envelope.classic_snell", None),
    ("game", "robust_envelope", "envelope.robust_envelope", None),
    ("game", "reward_values", "reward.reward_values", lambda y: {"nodes_evaluated": len(y)}),
    ("envelope", "reward_values", "reward.reward_values", lambda y: {"nodes_evaluated": len(y)}),
    ("verify", "expand_tree", "model.expand_tree", lambda t: {"nodes": t.n_nodes}),
    ("verify", "robust_envelope", "envelope.robust_envelope", None),
    ("verify", "simulate_paths", "model.simulate_paths", lambda s: {"paths": s.n_paths}),
]
CHECKS = [
    "check_y1",
    "check_drift",
    "check_envelope_basic",
    "check_supermartingale",
    "check_martingale_to_tau",
    "check_dpp",
    "check_dpp_random_horizon",
    "check_tau_monotone",
    "check_continuity_in_prehistory",
    "check_sde_moments",
]
WRAPPED += [("verify", c, "verify." + c, lambda r: {"n_checked": r.n_checked}) for c in CHECKS]
PER_SAMPLE = [
    ("verify", "eval_reward", "reward.eval_reward"),
    ("verify", "drift_eval", "model.drift_eval"),
    ("verify", "dist_dinfty", "pathspace.dist_dinfty"),
]


class Span:
    __slots__ = ("name", "parent", "op", "thread", "start", "end", "counts", "inner")

    def __init__(self, name, parent, op, thread, start):
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = start
        self.end = start
        self.counts = None
        # per-sample layer -> [calls, seconds] spent directly inside this span
        self.inner = {}


class Tracer:
    """Installs wrappers into the robuststop modules and records spans."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(name, parent, self.op, threading.get_ident(), time.perf_counter())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def call(self, op: int, fn, *args):
        """Run fn(*args) as op number ``op`` under a ``cli.main`` span."""
        self.op = op
        idx = self._root = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._root = None

    def install(self, modules: dict) -> None:
        for mod, attr, layer, counts in WRAPPED:
            self._patch(modules[mod], attr, self._spanning(getattr(modules[mod], attr), layer, counts))
        for mod, attr, layer in PER_SAMPLE:
            self._patch(modules[mod], attr, self._sampling(getattr(modules[mod], attr), layer))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def _patch(self, module, attr, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanning(self, fn, layer, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if counts is not None:
                span.counts = counts(out)
            return out

        return wrapper

    def _sampling(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack = self._stack()
                if stack:
                    self._count(stack[-1], layer, dt)
                elif self._root is not None:
                    # the root span is shared by every pool thread
                    with self._lock:
                        self._count(self._root, layer, dt)

        return wrapper

    def _count(self, idx: int, layer: str, dt: float) -> None:
        acc = self.spans[idx].inner.setdefault(layer, [0, 0.0])
        acc[0] += 1
        acc[1] += dt

    def self_times(self) -> list:
        """Per span: duration minus the time its children cover (their
        union, since children on pool threads overlap) minus the time of
        per-sample calls made directly inside it."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for idx, span in enumerate(self.spans):
            covered = 0.0
            reach = float("-inf")
            for start, end in sorted(children.get(idx, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            inner = sum(sec for _, sec in span.inner.values())
            out.append(span.end - span.start - covered - inner)
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "parent": s.parent, "op": s.op,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    "counts": s.counts, "per_sample": s.inner,
                }) + "\n")
