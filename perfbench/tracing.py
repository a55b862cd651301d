"""Span tracing of cmt's layers from outside the package.

`Tracer.install` replaces public functions and methods of the loaded `cmt`
modules with wrappers that time each call; `uninstall` puts the originals
back. Nothing under `src/cmt/` changes. Each call becomes a span (name,
start, end, parent, root operation); a layer's self time is its span's
duration minus the time covered by its child spans. Per-name totals are kept
exactly. Span records are kept in memory for every SPAN_STRIDE-th top-level
operation with all its child spans, up to a cap, and written out when the
run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

from checks import capacity

SPAN_STRIDE = 100
MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, root id, name, t0, t1)
        self.span_total = 0
        self.roots = 0
        self.paused = False
        self._stack: list[list] = []  # [child seconds, span id, root id, keep]
        self._undo: list[tuple] = []

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span named `name`.

        `before(args, kwargs)` runs ahead of the call and its result is passed
        to `after(token, args, kwargs, result, seconds)` once the call returns.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            sid = tracer.span_total
            tracer.span_total = sid + 1
            if stack:
                parent, root, keep = stack[-1][1], stack[-1][2], stack[-1][3]
            else:
                parent, root = None, sid
                keep = tracer.roots % SPAN_STRIDE == 0
                tracer.roots += 1
            frame = [0.0, sid, root, keep]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep and len(spans) < MAX_SPANS:
                    spans.append((sid, parent, root, name, t0, t1))
            if after is not None:
                after(token, args, kwargs, out, dur)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers on cmt ----------------------------------------

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self.wrap(name, original, before, after))
        self._undo.append((cls, attr, own, original))

    def patch_function(self, module_name: str, attr: str, name: str, before=None, after=None) -> None:
        """Wrap a module function and every `from ... import` binding of it in cmt."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cmt" and not mod_name.startswith("cmt."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, True, original))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def install(self) -> None:
        from cmt import learners, tasks, tree

        add = self.add

        def attached(t, node) -> bool:
            while node.parent is not None:
                parent = node.parent
                if parent.left is not node and parent.right is not node:
                    return False
                node = parent
            return node is t.root

        def query_before(args, kwargs):
            eps = args[3] if len(args) > 3 else kwargs.get("epsilon", 0.0)
            return args[0].rng.getstate() if eps == 0.0 else None

        def query_after(state, args, kwargs, out, dur):
            if state is not None and args[0].rng.getstate() != state:
                add("tree.query.rng_advances")

        def top_k_after(_, args, kwargs, out, dur):
            add("tree.top_k.memories_scored", len(args[1].mem))

        def insert_leaf_after(_, args, kwargs, out, dur):
            if not attached(args[0], args[1]):
                add("tree.splits")
                add("tree.split_s", dur)

        def remove_before(args, kwargs):
            return len(args[0])

        def remove_after(n_before, args, kwargs, out, dur):
            t = args[0]
            if capacity(len(t), t.c) < capacity(n_before, t.c):
                add("tree.remove.capacity_walks")

        def update_before(args, kwargs):
            key = args[4] if len(args) > 4 else kwargs.get("key")
            node = getattr(key, "node", None) or getattr(key, "leaf", None)
            if node is not None and not attached(args[0], node):
                add("tree.update.stale_keys")

        def oas_after(_, args, kwargs, out, dur):
            add("tasks.oas_candidates", len(out[1]))

        def save_after(_, args, kwargs, out, dur):
            add("snapshot.bytes", os.path.getsize(args[1]))

        self.patch_method(learners.RouterModel, "raw", "learners.router_raw")
        self.patch_method(learners.RouterModel, "update", "learners.router_update")
        self.patch_function("cmt.learners", "pair_features", "learners.pair_features")
        self.patch_method(learners.ScorerModel, "predict", "learners.scorer_predict")
        self.patch_method(learners.ScorerModel, "update", "learners.scorer_update")
        self.patch_function("cmt.features", "l2_distance", "features.l2_distance")
        self.patch_function("cmt.features", "fingerprint", "features.fingerprint")
        self.patch_function("cmt.features", "hash_features", "features.hash_features")
        self.patch_function("cmt.tree", "path", "tree.path")
        self.patch_method(tree.Tree, "top_k", "tree.top_k", after=top_k_after)
        self.patch_method(tree.Tree, "insert", "tree.insert")
        self.patch_method(tree.Tree, "insert_leaf", "tree.insert_leaf", after=insert_leaf_after)
        self.patch_method(tree.Tree, "reroute", "tree.reroute")
        self.patch_method(tree.Tree, "remove", "tree.remove", remove_before, remove_after)
        self.patch_method(tree.Tree, "update", "tree.update", update_before)
        self.patch_method(tree.Tree, "query", "tree.query", query_before, query_after)
        self.patch_function("cmt.tasks", "mc_step", "tasks.mc_step")
        self.patch_function("cmt.tasks", "oas_step", "tasks.oas_step", after=oas_after)
        self.patch_method(tasks.OASModel, "update", "tasks.oas_update")
        self.patch_method(tasks.OASModel, "predict", "tasks.oas_predict")
        self.patch_function("cmt.snapshot", "snapshot_save", "snapshot.save", after=save_after)
        self.patch_function("cmt.snapshot", "snapshot_load_full", "snapshot.load")
        self.patch_function("cmt.synth", "generate", "synth.generate")
        self.patch_function("cmt.synth", "random_keys", "synth.generate")

    # -- output -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.stats.get(name, (0, 0.0, 0.0))[2]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": root, "name": name,
                                     "start_s": t0, "end_s": t1}) + "\n")
