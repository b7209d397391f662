"""Spans around calls into paradecomp's public functions, from outside.

The tracer rebinds each traced function at every name a paradecomp module
holds it by (the defining module and each module that imported it), runs the
traced pass, and restores the originals.  No program source changes.

A span is (name, start, end, parent index, op index), kept in memory and
written out once at the end.  A layer's self time is the sum of its spans'
durations minus the time covered by their direct children.  Counts come from
the values the traced functions return.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "paradecomp"

# (span name, module, attribute); "Class.method" rebinds on the class
TARGETS = [
    ("cli.main", "cli", "main"),
    ("cli.canonical_json", "cli", "canonical_json"),
    ("actions.expand_window", "actions", "expand_window"),
    ("actions.interior_saturating_matching", "actions", "interior_saturating_matching"),
    ("actions.unmatched_boundary_stats", "actions", "unmatched_boundary_stats"),
    ("matching.hopcroft_karp", "matching", "hopcroft_karp"),
    ("matching.combine_saturating", "matching", "combine_saturating"),
    ("paradox.matching_to_paradox", "paradox", "matching_to_paradox"),
    ("paradox.verify_paradox", "paradox", "verify_paradox"),
    ("paradox.classical_f2_decomposition", "paradox", "classical_f2_decomposition"),
    ("paradox.paradox_to_matching", "paradox", "paradox_to_matching"),
    ("treedyn.triple_system_from_matching", "treedyn", "triple_system_from_matching"),
    ("treedyn.forest_from_paradox", "treedyn", "forest_from_paradox"),
    ("treedyn.forest_from_obj", "treedyn", "forest_from_obj"),
    ("treedyn.f2_action_from_forest", "treedyn", "f2_action_from_forest"),
    ("treedyn.free_word_violation", "treedyn", "free_word_violation"),
    ("rotations.assert_free", "rotations", "assert_free"),
    ("hall.check_hall_eps_n", "hall", "check_hall_eps_n"),
    ("hall.check_hall", "hall", "check_hall"),
    ("layers.epsilon_after", "layers", "LayerSchedule.epsilon_after"),
    ("layers.greedy_layering", "layers", "greedy_layering"),
    ("matcher.layered_perfect_matching", "matcher", "layered_perfect_matching"),
    ("graphs.induced_subgraph", "graphs", "induced_subgraph"),
    ("graphs.graph_from_obj", "graphs", "graph_from_obj"),
]


def _count_window(counts, w):
    counts["actions.window_points"] += w.n_points()
    counts["actions.interior_points"] += len(w.interior_indices())


def _count_certificate(counts, cert):
    counts["paradox.deep_interior"] += cert.deep_interior


def _count_forest(counts, fw):
    counts["treedyn.forest_components_kept"] += fw.stats["kept"]


def _count_action(counts, res):
    counts["treedyn.action_covered"] += len(res.covered)
    counts["treedyn.action_eligible"] += res.eligible


def _count_layering(counts, lay):
    counts["layers.stages"] += len(lay.layers)
    counts["layers.vertices"] += sum(len(layer) for layer in lay.layers)


def _count_payload(counts, text):
    counts["cli.payload_bytes"] += len(text)


HOOKS = {
    "actions.expand_window": _count_window,
    "paradox.verify_paradox": _count_certificate,
    "treedyn.forest_from_paradox": _count_forest,
    "treedyn.f2_action_from_forest": _count_action,
    "layers.greedy_layering": _count_layering,
    "cli.canonical_json": _count_payload,
}

COUNTS = [
    "actions.window_points",
    "actions.interior_points",
    "paradox.deep_interior",
    "treedyn.forest_components_kept",
    "treedyn.action_covered",
    "treedyn.action_eligible",
    "layers.stages",
    "layers.vertices",
    "cli.payload_bytes",
]

HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                # a span of its own, so the caller's self time excludes it
                spans.append((HOOK_SPAN, end, None, parent, self.op))
                hook(counts, result)
                spans[-1] = (HOOK_SPAN, end, clock(), parent, self.op)
            return result

        return traced

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == PACKAGE
        }
        for span, modname, attr in TARGETS:
            owner = mods[f"{PACKAGE}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(span, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(span, fn)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """Self time and call count per traced function, plus the counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {span: 0.0 for span, _, _ in TARGETS}
        calls = dict.fromkeys(self_s, 0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == HOOK_SPAN:
                continue
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {f"{name}_s": t for name, t in self_s.items()}
        out.update({f"{name}_calls": c for name, c in calls.items()})
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
