"""Per-layer tracing for the benchmark, installed from outside the package.

A Tracer wraps the public functions and methods listed in TARGETS.  Every
module namespace of the package that bound the original object is rebound
to the wrapper (vbf.dot as well as gf2.dot), and methods are replaced on
their class, so calls made inside the package are seen too.  Nothing under
src/ is edited.

Wrapped calls are aggregated, never kept one by one: the battery calls
BinMatrix.apply about 620k times and dot about 1.1M times.  A TIMED target
records calls and self time (its own duration minus the time spent in
wrapped targets it called); a COUNTED target records calls only and its
time stays in its caller's self time.  Spans are kept only for the
benchmark's own calls (see Spans).

A target the package no longer defines is reported as absent, with zero
counts, rather than as an error.
"""

from __future__ import annotations

import importlib
from time import perf_counter

TIMED = "timed"
COUNTED = "counted"

# (layer module, class or None, attribute, kind, workload whose end-to-end
# time it should move).  The metric name is "<layer>.<Class.>attribute";
# for a constructor it is "<layer>.<Class>".
TARGETS = (
    ("gf2", "BinMatrix", "apply", TIMED, "battery"),
    ("gf2", None, "span_basis", TIMED, "battery"),
    ("gf2", "Subspace", "orthogonal_complement", TIMED, "battery"),
    ("gf2", None, "dot", COUNTED, "battery"),
    ("gf2", "BinMatrix", "inverse", TIMED, "attack_r1"),
    ("gf2", None, "gf_mul", TIMED, "battery"),
    ("vbf", None, "derivative_image", TIMED, "battery"),
    ("vbf", None, "diff_uniformity", TIMED, "battery"),
    ("vbf", None, "is_coset", TIMED, "battery"),
    ("vbf", None, "component_space", TIMED, "battery"),
    ("vbf", None, "affine_hull", TIMED, "battery"),
    ("vbf", "VBF", "from_power", TIMED, "battery"),
    ("corpus", None, "pinned_corpus", TIMED, "battery"),
    ("hidden_sum", None, "product_sum", TIMED, "search"),
    ("hidden_sum", "HiddenSum", "__init__", TIMED, "search"),
    ("hidden_sum", None, "agl_membership", TIMED, "search"),
    ("hidden_sum", "AffineMap", "apply", COUNTED, "search"),
    ("hidden_sum", None, "enumerate_regular_groups", TIMED, "search"),
    ("hidden_sum", None, "translation_compatible_sums", TIMED, "search"),
    ("hidden_sum", None, "find_hidden_sums", TIMED, "search"),
    ("hidden_sum", "CoordinateMap", "__init__", TIMED, "attack_r1"),
    ("cipher", "CipherSpec", "encrypt", TIMED, "attack_r1000"),
    ("cipher", "CipherSpec", "decrypt", TIMED, "attack_r1000"),
    ("attack", None, "reconstruct_cp", TIMED, "attack_r1"),
    ("attack", None, "reconstruct_cpcc", TIMED, "attack_r1"),
    ("attack", "AffineRepr", "apply", TIMED, "attack_r1"),
    ("attack", "AffineRepr", "apply_inverse", TIMED, "attack_r1"),
)

PACKAGE_MODULES = ("gf2", "vbf", "hidden_sum", "cipher", "attack", "corpus", "reproduce")


def target_name(layer: str, owner: str | None, attr: str) -> str:
    if attr == "__init__":
        return f"{layer}.{owner}"
    return f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"


# Extra work counters: target name -> (counter names, before-hook, after-hook).
# The after-hook gets (tracer, counters, args, result, token), where token is
# what the before-hook returned before the call, or None.


def _agl_accepts(tracer, counters, args, result, token):
    counters["accepts"] += bool(result)


def _groups_returned(tracer, counters, args, result, token):
    counters["groups"] += len(result)


def _rounds_run(tracer, counters, args, result, token):
    counters["rounds"] += args[0].rounds


def _combos_before(tracer):
    return tracer.calls("hidden_sum.product_sum")


def _search_outcome(tracer, counters, args, result, token):
    # find_hidden_sums builds one product sum per brick combination it tests
    counters["combos_tested"] += tracer.calls("hidden_sum.product_sum") - token
    counters["sums_found"] += len(result)


EXTRA = {
    "hidden_sum.agl_membership": (("accepts",), None, _agl_accepts),
    "hidden_sum.enumerate_regular_groups": (("groups",), None, _groups_returned),
    "hidden_sum.find_hidden_sums": (("combos_tested", "sums_found"), _combos_before, _search_outcome),
    "cipher.CipherSpec.encrypt": (("rounds",), None, _rounds_run),
    "cipher.CipherSpec.decrypt": (("rounds",), None, _rounds_run),
}


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self, counters=()):
        self.calls = 0
        self.self_s = 0.0
        self.counters = {c: 0 for c in counters}


class Tracer:
    """Installs wrappers on TARGETS; uninstall() restores every binding."""

    def __init__(self):
        self.stats = {}
        self.absent = []
        self._undo = []
        self._stack = [[0.0]]  # child-time accumulators; the root never pops
        for layer, owner, attr, _, _ in TARGETS:
            name = target_name(layer, owner, attr)
            self.stats[name] = Stat(EXTRA.get(name, ((),))[0])

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def install(self) -> None:
        modules = {m: importlib.import_module(f"hiddensums.{m}") for m in PACKAGE_MODULES}
        for layer, owner, attr, kind, _ in TARGETS:
            name = target_name(layer, owner, attr)
            home = modules[layer]
            if owner is None:
                orig = getattr(home, attr, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, kind, orig)
                for mod in modules.values():
                    if getattr(mod, attr, None) is orig:
                        self._rebind(mod, attr, orig, wrapper)
            else:
                cls = getattr(home, owner, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(self._wrap(name, kind, raw.__func__))
                else:
                    wrapper = self._wrap(name, kind, raw)
                self._rebind(cls, attr, raw, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _rebind(self, obj, attr, orig, wrapper) -> None:
        self._undo.append((obj, attr, orig))
        setattr(obj, attr, wrapper)

    def _wrap(self, name, kind, fn):
        stat = self.stats[name]
        if kind == COUNTED:

            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        _, before, after = EXTRA.get(name, ((), None, None))
        tracer = self

        def timed(*args, **kwargs):
            token = before(tracer) if before else None
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
            if after:
                after(tracer, stat.counters, args, result, token)
            return result

        return timed

    def snapshot(self) -> dict:
        """Plain-data totals, as sent from a child interpreter."""
        return {
            name: {"calls": s.calls, "self_s": s.self_s, **s.counters}
            for name, s in self.stats.items()
        }


def merge(totals: dict, snapshot: dict) -> None:
    """Add one snapshot into running totals of the same shape."""
    for name, fields in snapshot.items():
        into = totals.setdefault(name, dict.fromkeys(fields, 0))
        for key, value in fields.items():
            into[key] += value


def layer_metrics(totals: dict, passes: int) -> dict:
    """Per-pass means of the traced totals, as name -> (value, unit)."""
    out = {}
    for layer, owner, attr, kind, _ in TARGETS:
        name = target_name(layer, owner, attr)
        fields = totals.get(name) or {"calls": 0, "self_s": 0.0}
        out[f"{name}.calls"] = (fields["calls"] / passes, "count")
        if kind == TIMED:
            out[f"{name}.self_s"] = (fields["self_s"] / passes, "s")
        for key, value in fields.items():
            if key not in ("calls", "self_s"):
                out[f"{name}.{key}"] = (value / passes, "count")
    search = totals.get("hidden_sum.find_hidden_sums") or {}
    tested = search.get("combos_tested", 0)
    out["hidden_sum.find_hidden_sums.found_ratio"] = (
        search.get("sums_found", 0) / tested if tested else 0.0,
        "ratio",
    )
    return out


class Spans:
    """The benchmark's own spans, kept in memory and written out at the end.

    A span is [id, parent id or None, name, start, end] with perf_counter
    times, which on Linux share one monotonic clock across processes.
    """

    def __init__(self):
        self.rows = []

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        self.rows.append([len(self.rows), parent, name, start, end])
        return len(self.rows) - 1

    def adopt(self, rows, parent: int | None) -> None:
        """Append spans recorded elsewhere, renumbered, under parent."""
        base = len(self.rows)
        for sid, sparent, name, start, end in rows:
            self.rows.append(
                [base + sid, parent if sparent is None else base + sparent, name, start, end]
            )

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.rows if n == name]
