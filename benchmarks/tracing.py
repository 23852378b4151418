"""Spans around foldlang's layer boundaries, recorded from outside.

`Tracer.install` replaces names that foldlang's modules look up at call
time (`foldlang.fsystem.fold`, `foldlang.pumping.fs_member`,
`foldlang.cli.auto_plan`, `RegularLang.enumerate_length`, ...) with
wrappers that record a span: name, start, end, parent span and op id.
Nothing under src/ changes.  Per-pair `fold` calls are too many to keep
as spans, so each adds its count and time to the enclosing span instead.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus its children's durations (and
the fold time it absorbed); a layer is the first part of a span name.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Span record fields.
NAME, START, END, PARENT, OP, CHILD_S, FOLD_CALLS, FOLD_S, COUNT, ERROR = range(10)

LAYERS = ("folding", "regular", "cfg", "fsystem", "pumping", "cli")

#: Tolerance of the per-op reconciliation, in seconds.
RECONCILE_TOLERANCE_S = 1e-6

#: Largest share of the traced ops' wall time that may lie outside every
#: span.  Above it, the layers no longer account for the ops' time: some
#: of foldlang's work runs through a call the tracer does not wrap.
UNSPANNED_LIMIT = 0.05


def _family_symbols(family) -> int:
    return sum(len(p) for p in family.parts)


def _boundaries(foldlang):
    """(owner, attribute, span name, counter) for every wrapped call.
    The counter maps the call's result to the span's COUNT field."""
    fsystem, pumping, cli = foldlang.fsystem, foldlang.pumping, foldlang.cli
    regular, cfg = foldlang.regular, foldlang.cfg
    reg, cf = regular.RegularLang, cfg.ContextFreeLang
    return [
        (cli, "run", "cli.run", None),
        (fsystem, "fs_member", "fsystem.fs_member", None),
        (pumping, "fs_member", "fsystem.fs_member", None),
        (cli, "fs_member", "fsystem.fs_member", None),
        (fsystem, "fs_enumerate", "fsystem.fs_enumerate", len),
        (cli, "fs_enumerate", "fsystem.fs_enumerate", len),
        (fsystem, "finite_language_system", "fsystem.finite_language_system", None),
        (cli, "auto_plan", "pumping.auto_plan", None),
        (cli, "verify_plan", "pumping.verify_plan", None),
        (cli, "plan_to_family", "pumping.plan_to_family", _family_symbols),
        (cli, "verify_family", "pumping.verify_family", None),
        (regular, "compile_ast", "regular.compile", lambda dfa: dfa.n_states),
        (reg, "enumerate_length", "regular.enumerate_length", len),
        (reg, "member", "regular.member", None),
        (reg, "has_length", "regular.has_length", None),
        (reg, "smallest_of_length", "regular.smallest_of_length", None),
        (reg, "decompose", "regular.decompose", None),
        (cfg, "to_normal_form", "cfg.normal_form", None),
        (cf, "member", "cfg.cyk", None),
        (cf, "enumerate_length", "cfg.enumerate_length", len),
        (cf, "has_length", "cfg.has_length", None),
        (cf, "smallest_of_length", "cfg.smallest_of_length", None),
        (cf, "decompose", "cfg.decompose", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1          # -1 while setting up, else the op's index

    def install(self, foldlang) -> None:
        for owner, attr, name, counter in _boundaries(foldlang):
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, counter))
        foldlang.fsystem.fold = self._wrap_fold(foldlang.fsystem.fold)

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, 0, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += rec[END] - rec[START]
            if counter is not None:
                rec[COUNT] = counter(result)
            return result

        return traced

    def _wrap_fold(self, fold):
        spans, stack = self.spans, self._stack

        def traced_fold(r, s):
            t0 = perf_counter()
            result = fold(r, s)
            dt = perf_counter() - t0
            if stack:
                rec = spans[stack[-1]]
                rec[FOLD_CALLS] += 1
                rec[FOLD_S] += dt
                rec[CHILD_S] += dt
            else:
                spans.append(["folding.fold", t0, t0 + dt, -1, self.op,
                              0.0, 0, 0.0, 0, None])
            return result

        return traced_fold

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans, op_windows, loop_ops: int, cache_hit_ratio: float) -> dict:
    """Per-layer metrics and the reconciliation from one traced run.

    op_windows[i] = (start, end) of op i as the loop timed it.  Loop
    metrics are per op; `setup.*` are for the one set-up before the loop.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    count = defaultdict(int)
    setup_layer_s = defaultdict(float)
    member_folds = enum_folds = refusals = 0
    op_self = defaultdict(float)
    op_roots = defaultdict(float)
    bad_ops = []
    for rec in spans:
        name, op = rec[NAME], rec[OP]
        own = rec[END] - rec[START] - rec[CHILD_S]
        if own < -RECONCILE_TOLERANCE_S:
            bad_ops.append(op)
        if op < 0:
            setup_layer_s[name.split(".")[0]] += own
            setup_layer_s["folding"] += rec[FOLD_S]
            continue
        calls[name] += 1
        self_s[name] += own
        count[name] += rec[COUNT]
        calls["folding.fold"] += rec[FOLD_CALLS]
        self_s["folding.fold"] += rec[FOLD_S]
        op_self[op] += own + rec[FOLD_S]
        if rec[PARENT] < 0:
            op_roots[op] += rec[END] - rec[START]
            start, end = op_windows[op]
            if rec[START] < start - RECONCILE_TOLERANCE_S or rec[END] > end + RECONCILE_TOLERANCE_S:
                bad_ops.append(op)
        if name == "fsystem.fs_member":
            member_folds += rec[FOLD_CALLS]
        elif name == "fsystem.fs_enumerate":
            enum_folds += rec[FOLD_CALLS]
        if rec[ERROR] == "ResourceLimit":
            refusals += 1

    # Each op: layer self times + un-spanned remainder == the op's wall time.
    # This holds by construction when the spans nest, so it checks the
    # tracer's own bookkeeping; UNSPANNED_LIMIT is what bounds the time the
    # spans leave unattributed.
    wall_total = unspanned_total = 0.0
    for op, (start, end) in op_windows.items():
        wall = end - start
        unspanned = wall - op_roots[op]
        if unspanned < -RECONCILE_TOLERANCE_S or abs(
                op_self[op] + unspanned - wall) > RECONCILE_TOLERANCE_S:
            bad_ops.append(op)
        wall_total += wall
        unspanned_total += unspanned

    def per_op(table, name):
        return table[name] / loop_ops

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "folding.fold.calls": (per_op(calls, "folding.fold"), "calls/op"),
        "folding.fold.self_s": (per_op(self_s, "folding.fold"), "s/op"),
        "regular.compile.self_s": (per_op(self_s, "regular.compile"), "s/op"),
        "regular.dfa_states": (per_op(count, "regular.compile"), "states/op"),
        "regular.enumerate_length.self_s": (per_op(self_s, "regular.enumerate_length"), "s/op"),
        "regular.enumerate_length.strings": (per_op(count, "regular.enumerate_length"), "strings/op"),
        "regular.enumerate_length.cache_hit_ratio": (cache_hit_ratio, "ratio"),
        "regular.member.self_s": (per_op(self_s, "regular.member"), "s/op"),
        "cfg.normal_form.self_s": (per_op(self_s, "cfg.normal_form"), "s/op"),
        "cfg.cyk.calls": (per_op(calls, "cfg.cyk"), "calls/op"),
        "cfg.cyk.self_s": (per_op(self_s, "cfg.cyk"), "s/op"),
        "cfg.enumerate_length.self_s": (per_op(self_s, "cfg.enumerate_length"), "s/op"),
        "cfg.enumerate_length.strings": (per_op(count, "cfg.enumerate_length"), "strings/op"),
        "cfg.smallest_of_length.self_s": (per_op(self_s, "cfg.smallest_of_length"), "s/op"),
        "cfg.decompose.self_s": (per_op(self_s, "cfg.decompose"), "s/op"),
        "fsystem.fs_member.calls": (per_op(calls, "fsystem.fs_member"), "calls/op"),
        "fsystem.fs_member.self_s": (per_op(self_s, "fsystem.fs_member"), "s/op"),
        "fsystem.pairs_per_decision": (ratio(member_folds, calls["fsystem.fs_member"]), "pairs/call"),
        "fsystem.fs_enumerate.self_s": (per_op(self_s, "fsystem.fs_enumerate"), "s/op"),
        "fsystem.distinct_per_pair": (ratio(count["fsystem.fs_enumerate"], enum_folds), "ratio"),
        "fsystem.refusals": (refusals, "count"),
        "pumping.auto_plan.self_s": (per_op(self_s, "pumping.auto_plan"), "s/op"),
        "pumping.verify_plan.self_s": (per_op(self_s, "pumping.verify_plan"), "s/op"),
        "pumping.plan_to_family.self_s": (per_op(self_s, "pumping.plan_to_family"), "s/op"),
        "pumping.verify_family.self_s": (per_op(self_s, "pumping.verify_family"), "s/op"),
        "pumping.family_symbols": (ratio(count["pumping.plan_to_family"],
                                         calls["pumping.plan_to_family"]), "symbols/family"),
        "cli.run.calls": (per_op(calls, "cli.run"), "calls/op"),
        "cli.run.self_s": (per_op(self_s, "cli.run"), "s/op"),
        "setup.regular.self_s": (setup_layer_s["regular"], "s"),
        "setup.cfg.self_s": (setup_layer_s["cfg"], "s"),
        "trace.unspanned_share": (ratio(unspanned_total, wall_total), "ratio"),
    }
    layer_s = defaultdict(float)
    for name, value in self_s.items():
        layer_s[name.split(".")[0]] += value
    return {
        "metrics": m,
        "layer_self_s": {layer: layer_s[layer] / loop_ops for layer in LAYERS},
        "unspanned_s": unspanned_total / loop_ops,
        "unreconciled": sorted(set(bad_ops)),
    }
