"""Span tracer that wraps classtower's public functions from the outside.

Each wrapper is installed in the namespace where callers look the function up
(``classify.unit_index_q``, not only ``unitindex.unit_index_q``), records one
span per call (name, layer, start, end, parent span, request) and restores the
original on ``restore()``.  The request id is the pair being processed, taken
from the most recent ``validate_pair`` call.  A function that no longer exists
is reported as absent instead of failing the run.

Nothing in ``src/`` is modified; the wrappers only live for one traced pass.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

PKG = "classtower"


def _class_group_label(args, kwargs):
    D = args[0] if args else kwargs.get("D", 0)
    return "quadratic.class_group.neg" if D < 0 else "quadratic.class_group.pos"


# (layer, span name, defining module, attribute, caller modules).  A dotted
# attribute ("Subgroup.generated") is patched on the class, which every caller
# shares.  An abelian_structure span is named after its caller module.
WRAPS = [
    ("cli", "cli.command", "cli", "cmd_scan", ["cli"]),
    ("cli", "cli.command", "cli", "cmd_classify", ["cli"]),
    ("cli", "cli.dumps", "cli", "dumps", ["cli"]),
    ("classify", "classify.classify_pair", "classify", "classify_pair", ["cli"]),
    ("classify", "classify.invariants", "classify", "invariants", ["classify"]),
    ("classify", "classify.predict", "classify", "predict", ["classify"]),
    ("classify", "classify.cross_validate", "classify", "cross_validate", ["classify"]),
    ("classify", "classify.norm_groups_from_symbols", "classify", "norm_groups_from_symbols",
     ["classify"]),
    ("quadratic", "quadratic.exponents_mn", "quadratic", "exponents_mn", ["classify"]),
    ("quadratic", "quadratic.norm_eps", "quadratic", "norm_eps", ["classify", "cli"]),
    ("quadratic", "quadratic.two_part_of_class_group", "quadratic", "two_part_of_class_group",
     ["cli"]),
    ("quadratic", _class_group_label, "quadratic", "class_group", ["quadratic"]),
    ("quadratic", "quadratic.fundamental_unit", "quadratic", "fundamental_unit",
     ["quadratic", "unitindex"]),
    ("abelian", "abelian.abelian_structure.{caller}", "abelian", "abelian_structure",
     ["quadratic", "gengroup"]),
    ("unitindex", "unitindex.unit_index_q", "unitindex", "unit_index_q", ["classify", "cli"]),
    ("unitindex", "unitindex.q_from_symbols", "unitindex", "q_from_symbols",
     ["cli", "unitindex"]),
    ("unitindex", "unitindex.exact_square_root", "unitindex", "exact_square_root",
     ["unitindex"]),
    ("gengroup", "gengroup.transfer_kernel", "gengroup", "transfer_kernel", ["classify"]),
    ("gengroup", "gengroup.lower_central_series", "gengroup", "lower_central_series",
     ["classify", "cli"]),
    ("gengroup", "gengroup.abelian_invariants", "gengroup", "abelian_invariants",
     ["classify", "cli"]),
    ("gengroup", "gengroup.Subgroup.generated", "gengroup", "Subgroup.generated", ["gengroup"]),
    ("gengroup", "gengroup.abelianization", "gengroup", "Subgroup.abelianization", ["gengroup"]),
    ("gengroup", "gengroup.GPresentation", "gengroup", "GPresentation.__init__", ["gengroup"]),
    ("gaussian", "gaussian.split_prime", "gaussian", "split_prime", ["classify"]),
    ("gaussian", "gaussian.symbol_pi", "gaussian", "symbol_pi", ["classify"]),
    ("gaussian", "gaussian.symbol_B", "gaussian", "symbol_B", ["classify"]),
    ("symbols", "symbols.validate_pair", "symbols", "validate_pair", ["classify", "cli"]),
    ("symbols", "symbols.quartic_symbol", "symbols", "quartic_symbol", ["classify", "cli"]),
]

LAYERS = ("cli", "classify", "quadratic", "abelian", "unitindex", "gengroup", "gaussian",
          "symbols")


class Tracer:
    """Spans and counters for one process; ``aggregate()`` sums them up."""

    def __init__(self, child_dir: str | None = None):
        self.spans: list[list] = []  # [parent, name, layer, start_ns, end_ns, request, outermost]
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self.absent: set[str] = set()
        self._seen_disc: set[int] = set()
        self._seen_profiles: set = set()
        self._restore: list[tuple] = []
        self._class_group = None
        self._child_dir = child_dir

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, name, module, attr, callers in WRAPS:
            defining = f"{PKG}.{module}.{attr}"
            try:
                original = _lookup(importlib.import_module(f"{PKG}.{module}"), attr)
            except (ImportError, AttributeError):
                self.absent.add(defining)
                continue
            if attr == "class_group":
                self._class_group = original
            if "." in attr:
                self._patch_class_attr(module, attr, layer, name)
                continue
            for caller in callers:
                ns = importlib.import_module(f"{PKG}.{caller}")
                if getattr(ns, attr, None) is not original:
                    continue  # this caller no longer imports it
                label = name.format(caller=caller) if isinstance(name, str) else name
                hook = _HOOKS.get(attr)
                self._set(ns, attr, self.wrap(original, label, layer, hook))
        if self._child_dir is not None:
            from multiprocessing import util

            # runs in each forked pool worker once multiprocessing has reset
            # its own finalizers there
            util.register_after_fork(self, Tracer._after_fork)

    def _patch_class_attr(self, module, attr, layer, name):
        cls_name, meth = attr.split(".")
        cls = getattr(importlib.import_module(f"{PKG}.{module}"), cls_name)
        raw = cls.__dict__.get(meth)
        if raw is None:
            self.absent.add(f"{PKG}.{module}.{attr}")
            return
        hook = _HOOKS.get(attr)
        if isinstance(raw, classmethod):
            self._set(cls, meth, classmethod(self.wrap(raw.__func__, name, layer, hook)))
        else:
            self._set(cls, meth, self.wrap(raw, name, layer, hook))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def wrap(self, fn, name, layer, hook):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if label == "symbols.validate_pair" and len(args) >= 2:
                tracer.request = f"{args[0]},{args[1]}"
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            outermost = tracer.active[label] == 0
            spans.append([stack[-1] if stack else None, label, layer, clock(), 0,
                          tracer.request, outermost])
            stack.append(idx)
            tracer.active[label] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.active[label] -= 1
                stack.pop()
                spans[idx][4] = clock()
            if hook is not None:
                try:
                    hook(tracer, label, args, result)
                except (AttributeError, TypeError, IndexError):
                    tracer.absent.add(f"counters of {label}")
            return result

        return wrapper

    # -- pool workers -------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start empty and dump the aggregate at exit."""
        from multiprocessing import util

        self.spans, self.stack = [], []
        self.active = defaultdict(int)
        self.counts = defaultdict(float)
        self._seen_disc, self._seen_profiles = set(), set()
        util.Finalize(None, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        path = os.path.join(self._child_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"aggregate": self.aggregate(), "spans": self.spans}, fh)

    def merge_children(self) -> list[dict]:
        """Aggregates written by forked pool workers of this pass."""
        out = []
        if self._child_dir is None:
            return out
        for fname in sorted(os.listdir(self._child_dir)):
            if fname.startswith("worker-") and fname.endswith(".json"):
                path = os.path.join(self._child_dir, fname)
                with open(path, encoding="utf-8") as fh:
                    out.append(json.load(fh))
                os.remove(path)
        return out

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, inclusive and self ms; per-layer self ms; counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for parent, _, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        fn: dict[str, dict] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for idx, (_, name, layer, start, end, _, outermost) in enumerate(self.spans):
            dur = end - start
            self_ms = (dur - child_ns[idx]) / 1e6
            entry = fn.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += self_ms
            if outermost:
                entry["ms"] += dur / 1e6
            layer_self[layer] = layer_self.get(layer, 0.0) + self_ms
        counts = dict(self.counts)
        info = getattr(self._class_group, "cache_info", None)
        if info is not None:
            counts["quadratic.class_group.misses"] = info().misses
        return {"fn": fn, "layer_self_ms": layer_self, "counts": counts,
                "spans": len(self.spans)}


def _lookup(module, attr):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _class_group_hook(tracer, label, args, result):
    D = args[0]
    if D in tracer._seen_disc:
        return
    tracer._seen_disc.add(D)
    tracer.counts["quadratic.class_group.elements"] += result.order
    tracer.counts["quadratic.class_group.counting_path"] += result.structure is None


def _abelian_hook(tracer, label, args, result):
    tracer.counts[f"{label}.elements"] += len(args[0])


def _square_root_hook(tracer, label, args, result):
    tracer.counts["unitindex.square_found"] += result is not None


def _presentation_hook(tracer, label, args, result):
    tracer.counts["gengroup.elements"] += args[0].order


def _cross_validate_hook(tracer, label, args, result):
    profile = args[0].profile()
    if profile not in tracer._seen_profiles:
        tracer._seen_profiles.add(profile)
        tracer.counts["classify.engine.profiles_built"] += 1


_HOOKS = {
    "class_group": _class_group_hook,
    "abelian_structure": _abelian_hook,
    "exact_square_root": _square_root_hook,
    "GPresentation.__init__": _presentation_hook,
    "cross_validate": _cross_validate_hook,
}
