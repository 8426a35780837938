"""Spans around the calls into each layer, recorded from outside the package.

Every public function of a cube_constants module is wrapped at each module
attribute that holds it (so cube_constants.cli.lambda_level_exact and
cube_constants.projection.lambda_level_exact both lead to the wrapper), and
networkx.graph_atlas_g, which only sidon reaches, is wrapped as sidon.atlas.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

LAYERS = ("core", "projection", "sidon", "hermite", "combinatorics", "verify", "cli")


def _tol_note(args, kwargs, result):
    return kwargs.get("tol", args[0] if args else 1e-4)


def _cube_points_note(args, kwargs, result):
    family = kwargs.get("family", args[0])
    return family.active_mask().bit_count()


def _char_evals_note(args, kwargs, result):
    return result.samples * len(kwargs.get("family", args[0]))


def _terms_note(args, kwargs, result):
    n, d = args[0], args[1]
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact-degree")
    degrees = 1 if mode in ("exact-degree", "exact", "homogeneous") else d + 1
    return (n + 1) * degrees


# What each traced function records about its call, beyond its times.
NOTES = {
    "sidon.lp_maximize": lambda args, kwargs, result: result[0],
    "sidon.sidon_exact": lambda args, kwargs, result: result.value,
    "sidon.kappa_constant": _tol_note,
    "projection.lambda_exact": _cube_points_note,
    "projection.lambda_mc": _char_evals_note,
    "projection.lambda_level_exact": _terms_note,
    "verify.run_suite": lambda args, kwargs, result: len(result),
}


class Tracer:
    """Installs wrappers, records spans [name, start, end, parent, request,
    note], and restores the original attributes on uninstall."""

    def __init__(self, cc):
        self.cc = cc
        self.spans: list[list] = []
        self.request = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        cc = self.cc
        modules = [cc] + [getattr(cc, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("cube_constants."):
                    continue
                if value not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        import networkx

        self._patched.append((networkx, "graph_atlas_g", networkx.graph_atlas_g))
        networkx.graph_atlas_g = self._wrap("sidon.atlas", networkx.graph_atlas_g)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, request."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = None if span[3] is None else index[id(span[3])]
                handle.write(json.dumps([span[0], span[1], span[2], parent, span[4]]) + "\n")


def _group_stats(spans, member) -> tuple[int, float]:
    """Calls into the group, and the time its spans cover (a span nested in
    another span of the group is not counted twice)."""
    calls, busy = 0, 0.0
    for span in spans:
        if not member(span[0]):
            continue
        calls += 1
        parent = span[3]
        while parent is not None and not member(parent[0]):
            parent = parent[3]
        if parent is None:
            busy += span[2] - span[1]
    return calls, busy


def _self_time(spans, name: str) -> float:
    total = 0.0
    children: dict[int, float] = {}
    for span in spans:
        if span[3] is not None:
            children[id(span[3])] = children.get(id(span[3]), 0.0) + span[2] - span[1]
    for span in spans:
        if span[0] == name:
            total += span[2] - span[1] - children.get(id(span), 0.0)
    return total


def _nearest(span, name: str):
    parent = span[3]
    while parent is not None and parent[0] != name:
        parent = parent[3]
    return parent


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def named(name):
        return lambda n: n == name

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("sidon.lp_maximize", "sidon.atlas", "sidon.kappa_constant",
                 "sidon.sidon_exact", "sidon.check_sidon_projection_bound",
                 "projection.lambda_exact", "projection.lambda_mc",
                 "projection.lambda_level_exact", "verify.run_suite", "cli.main"):
        calls, busy = _group_stats(spans, named(name))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
    for name in ("sidon.sidon_exact", "cli.main"):
        out[f"{name}.self_s"] = (_self_time(spans, name), "s")

    lps = [s for s in spans if s[0] == "sidon.lp_maximize" and s[5] is not None]
    useful = 0
    for span in lps:
        owner = _nearest(span, "sidon.sidon_exact")
        if owner is not None and owner[5] is not None:
            useful += span[5] >= owner[5] - 1e-9 * (1 + abs(owner[5]))
    out["sidon.lp_maximize.useful_ratio"] = (ratio(useful, len(lps)), "ratio")

    tols = [s[5] for s in spans if s[0] == "sidon.kappa_constant" and s[5] is not None]
    out["sidon.kappa_constant.distinct_ratio"] = (ratio(len(set(tols)), len(tols)), "ratio")

    exact = [s for s in spans if s[0] == "projection.lambda_exact" and s[5] is not None]
    points = sum(1 << s[5] for s in exact)
    # each butterfly pass reads and writes every int64 of the value table once
    computed = sum(16 * (1 << s[5]) * min(s[5], 22) for s in exact)
    busy = out["projection.lambda_exact.busy_s"][0]
    out["projection.lambda_exact.cube_points"] = (points, "count")
    out["projection.lambda_exact.points_per_s"] = (ratio(points, busy), "1/s")
    out["projection.lambda_exact.bytes_computed"] = (computed, "B")

    evals = sum(s[5] for s in spans if s[0] == "projection.lambda_mc" and s[5] is not None)
    busy = out["projection.lambda_mc.busy_s"][0]
    out["projection.lambda_mc.char_evals"] = (evals, "count")
    out["projection.lambda_mc.char_evals_per_s"] = (ratio(evals, busy), "1/s")

    terms = sum(s[5] for s in spans
                if s[0] == "projection.lambda_level_exact" and s[5] is not None)
    out["projection.lambda_level_exact.terms"] = (terms, "count")

    for layer in ("hermite", "combinatorics"):
        calls, busy = _group_stats(spans, lambda n, p=layer + ".": n.startswith(p))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.busy_s"] = (busy, "s")
    reports = sum(s[5] for s in spans if s[0] == "verify.run_suite" and s[5] is not None)
    out["verify.reports"] = (reports, "count")
    calls, busy = _group_stats(
        spans, lambda n: n.startswith("core.family_") or n == "core.make_family")
    out["core.family.calls"] = (calls, "count")
    out["core.family.busy_s"] = (busy, "s")
    return out


def lp_counts_by_request(spans) -> dict[int, int]:
    counts: dict[int, int] = {}
    for span in spans:
        if span[0] == "sidon.lp_maximize":
            counts[span[4]] = counts.get(span[4], 0) + 1
    return counts
