"""Spans around the public functions of each ccodes module, and the per-layer metrics.

The package imports names directly (`from .polyring import residue_product`),
so a wrapper must replace the name in every module that holds it, not only in
the module that defines it. `Tracer.installed()` does that and restores the
originals on exit. Spans stay in memory as
[name, start, end, parent index, job id, info] lists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("arith", "polyring", "enumerator", "oracle")
MODULES = ("ccodes", "ccodes.arith", "ccodes.codes", "ccodes.polyring", "ccodes.enumerator",
           "ccodes.oracle", "ccodes.cli")
RP = "polyring.residue_product"
WE = "enumerator.weight_enumerator"
BRUTE = "oracle.brute_weight_enumerator"
FLOAT = ("enumerator.weight_enumerator_charsum_float", "enumerator.svt_sizes_charsum_float")


def _fold_info(coeffs, modulus):
    key = (tuple(a % modulus for a in coeffs), modulus)
    k = len(key[0])
    return key, modulus * k * (k + 1)  # (fold key, cells = n k (k+1))


def _brute_info(spec):
    key = (tuple(a % spec.modulus for a in spec.coefficients), spec.modulus)
    return key, 1 << len(key[0])  # (table key, tuples = 2^k)


_INFO = {RP: _fold_info, BRUTE: _brute_info}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    info(*args, **kwargs) if info else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        mods = [importlib.import_module(m) for m in MODULES]
        targets = []
        for layer in LAYERS:
            mod = importlib.import_module(f"ccodes.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets.append((f"{layer}.{name}", obj))
        cli = importlib.import_module("ccodes.cli")
        targets.append(("cli.main", cli.main))
        saved = []
        for name, obj in targets:
            wrapped = self.wrap(name, obj)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        we_cls = importlib.import_module("ccodes.enumerator").WeightEnumerator
        saved.append((we_cls, "__post_init__", we_cls.__post_init__))
        we_cls.__post_init__ = self.wrap("enumerator.WeightEnumerator", we_cls.__post_init__)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (calls, busy and self seconds, counts)."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    has_fold_child = [False] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child_time[s[3]] += d
            has_fold_child[s[3]] |= s[0] == RP

    def pick(match):
        return [i for i, s in enumerate(spans) if match(s[0])]

    def busy(match):
        # union of the group's spans: count only those with no ancestor in the group
        total = 0.0
        for i in pick(match):
            p = spans[i][3]
            while p >= 0 and not match(spans[p][0]):
                p = spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    def ratio(infos):
        return len({key for key, _ in infos}) / len(infos) if infos else 0.0

    folds = [spans[i][5] for i in pick(lambda n: n == RP)]
    brutes = [spans[i][5] for i in pick(lambda n: n == BRUTE)]
    we = pick(lambda n: n == WE)
    main = pick(lambda n: n == "cli.main")
    arith = lambda n: n.startswith("arith.")  # noqa: E731
    return {
        "polyring.residue_product.calls": len(folds),
        "polyring.residue_product.busy_s": busy(lambda n: n == RP),
        "polyring.residue_product.cells": sum(cells for _, cells in folds),
        "polyring.fold_reuse": ratio(folds),
        "enumerator.weight_enumerator.calls": len(we),
        "enumerator.weight_enumerator.busy_s": busy(lambda n: n == WE),
        "enumerator.weight_enumerator.self_s": sum(dur[i] - child_time[i] for i in we),
        "enumerator.route.dense": sum(has_fold_child[i] for i in we),
        "enumerator.route.sparse": sum(not has_fold_child[i] for i in we),
        "enumerator.vt_closed.calls": len(pick(lambda n: n == "enumerator.vt_weight_enumerator_closed")),
        "enumerator.vt_closed.busy_s": busy(lambda n: n == "enumerator.vt_weight_enumerator_closed"),
        "arith.calls": len(pick(arith)),
        "arith.busy_s": busy(arith),
        "enumerator.WeightEnumerator.calls": len(pick(lambda n: n == "enumerator.WeightEnumerator")),
        "enumerator.WeightEnumerator.busy_s": busy(lambda n: n == "enumerator.WeightEnumerator"),
        "enumerator.charsum_float.calls": len(pick(lambda n: n in FLOAT)),
        "enumerator.charsum_float.busy_s": busy(lambda n: n in FLOAT),
        "enumerator.svt_sizes.busy_s": busy(lambda n: n == "enumerator.svt_sizes"),
        "oracle.brute.calls": len(brutes),
        "oracle.brute.busy_s": busy(lambda n: n == BRUTE),
        "oracle.brute.tuples": sum(t for _, t in brutes),
        "oracle.brute.table_bytes": 8 * sum(t for _, t in brutes),
        "oracle.table_reuse": ratio(brutes),
        "cli.main.busy_s": sum(dur[i] for i in main),
        "cli.self_s": sum(dur[i] - child_time[i] for i in main),
    }
