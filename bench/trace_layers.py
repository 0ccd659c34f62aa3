"""Traced run of the dbrg benchmark: spans per layer, and each layer alone.

``traced_pass`` repeats a workload in-process through ``dbrg.cli.main``
with a span around every call of the public functions listed in
``TARGETS``.  The wrappers are installed from here, in every ``dbrg``
module namespace that holds the function, and removed afterwards; the
program itself is not changed.  Spans stay in memory until the pass
ends.  ``gfcore`` has no span: its public functions are generators or
per-vector kernels called hundreds of thousands of times, so its work
shows in its callers' self time and ``layer_metrics`` times it alone.

``layer_metrics`` times each layer's public functions alone, untraced,
on the benchmark's inputs, and checks their results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import statistics
import sys
import time
from pathlib import Path

TARGETS = {
    "geometry": ("cone_spaces", "hyperoval"),
    "constructions": ("cone_graph", "gen_delorme_graph", "derived_local_graph"),
    "bigraph": ("dbrg_check", "parse_graph", "serialize_graph", "flip", "induced_subgraph"),
    "perpsys": ("perp_search", "perp_verify", "parse_perp", "serialize_perp"),
    "feasibility": ("enumerate_feasible", "evaluate", "reference_table",
                    "compare_with_reference", "catalog_annotate", "rows_to_csv", "rows_to_json"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index] (-1 = top level)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dbrg" or n.startswith("dbrg.")]
        for modname, names in TARGETS.items():
            module = importlib.import_module(f"dbrg.{modname}")
            for name in names:
                original = getattr(module, name)
                wrapper = functools.wraps(original)(
                    functools.partial(self.call, f"{modname}.{name}", original))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: span time minus the time of its direct child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out


def traced_pass(workload: str, steps, wd: Path, expected: dict, tally, run_pass) -> dict:
    """One in-process pass of the workload's steps under the tracer."""
    from dbrg import cli

    tracer = Tracer()

    def runner(args: list[str], cwd: Path):
        buf = io.StringIO()
        here = os.getcwd()
        os.chdir(cwd)
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = tracer.call("cli.main", cli.main, list(args))
            wall = time.perf_counter() - t0
        finally:
            os.chdir(here)
        return code, wall, None, buf.getvalue()

    tracer.install()
    try:
        t0 = time.perf_counter()
        record = run_pass(steps, wd, expected, tally, runner)
        pass_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    top = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    by_name = tracer.self_times()
    by_layer: dict[str, float] = {}
    for name, t in by_name.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    return {
        "pass": record,
        "pass_wall_s": pass_wall,
        "top_level_s": top,
        "coverage": top / pass_wall,
        "self_s": by_layer,
        "self_s_by_function": by_name,
        "span_count": len(tracer.spans),
        "spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "workload": workload}
                  for n, s, e, p in tracer.spans],
    }


# ---------------------------------------------------------------------------
# Each layer alone
# ---------------------------------------------------------------------------

def _timed(fn, repeat: int = 1):
    samples, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return samples, result


def layer_metrics(expected: dict, relabel, vertex: int, perp_text: str, tally):
    """Time each layer's public functions alone on the benchmark inputs.

    Returns (metrics, raw samples).  Results are checked against
    ``expected`` and counted in ``tally``."""
    from dbrg import bigraph, constructions, feasibility, geometry, gfcore, perpsys

    steps = expected["steps"]
    samples: dict[str, list[float]] = {}
    metrics: dict[str, dict] = {}

    def time_it(name: str, fn, repeat: int = 1):
        s, result = _timed(fn, repeat)
        samples[name] = s
        metrics[name] = {"value": statistics.median(s), "unit": "s"}
        return result

    def check(label: str, what: str, problems: list[str]) -> None:
        tally.record(f"layer.{label}", f"in-process {what}", problems)

    def expect(label: str, what: str, got, want) -> None:
        check(label, what, [] if got == want else [f"got {got!r}, expected {want!r}"])

    # gfcore: the perp probe's candidates and their member vectors
    f2 = geometry.field_for_order(2)
    cands = time_it("gfcore.enumerate_subspaces_s",
                    lambda: list(gfcore.enumerate_subspaces(f2, 7, 4)), repeat=3)
    expect("enumerate_subspaces", "enumerate_subspaces(F_2, 7, 4)", len(cands), 11811)
    vec_count = time_it("gfcore.subspace_vectors_s",
                        lambda: sum(len(list(m.vectors())) for m in cands), repeat=3)
    expect("subspace_vectors", "Subspace.vectors over 11811 subspaces", vec_count, 188976)
    metrics["gfcore.vectors_per_s"] = {
        "value": vec_count / metrics["gfcore.subspace_vectors_s"]["value"], "unit": "1/s"}
    del cands

    # geometry and gfcore reduce: the cone q=3 build
    _, s_star = time_it("geometry.cone_spaces_s", lambda: geometry.cone_spaces(3), repeat=3)
    vectors = [gfcore.index_vector(s_star.ctx, vid, 6) for vid in range(3 ** 6)]

    def reduce_all():
        return [(i, m.reduce(v)) for v in vectors for i, m in enumerate(s_star.members)]

    reduce_samples, pairs = _timed(reduce_all, 3)
    samples["gfcore.reduce_s"] = reduce_samples
    # one canonical representative per coset: the distinct pairs are the C vertices
    expect("reduce", "distinct (member, representative) pairs of the cone q=3",
           len(set(pairs)), steps["cone.construct"]["summary"]["nC"])
    metrics["gfcore.reduce_per_s"] = {"value": len(pairs) / statistics.median(reduce_samples),
                                      "unit": "1/s"}

    # constructions + bigraph: cone q=3, built and parsed back from a relabelled file
    cone_array = steps["cone.construct"]["summary"]["measured"]
    built = time_it("constructions.cone_graph_s", lambda: constructions.cone_graph(3), repeat=3)
    text = time_it("bigraph.serialize_graph_s",
                   lambda: bigraph.serialize_graph(built.graph), repeat=3)
    res = time_it("bigraph.dbrg_check_built_s", lambda: bigraph.dbrg_check(built.graph))
    expect("dbrg_check_built", "dbrg_check(cone_graph(3))", str(res.array), cone_array)
    relabelled = relabel(text)
    parsed = time_it("bigraph.parse_graph_s", lambda: bigraph.parse_graph(relabelled), repeat=3)
    res = time_it("bigraph.dbrg_check_parsed_s", lambda: bigraph.dbrg_check(parsed))
    expect("dbrg_check_parsed", "dbrg_check(relabelled cone q=3)", str(res.array), cone_array)
    metrics["bigraph.dbrg_check_us_per_vertex"] = {
        "value": metrics["bigraph.dbrg_check_parsed_s"]["value"] / parsed.V * 1e6, "unit": "us"}
    del built, parsed, text, relabelled

    # perpsys + constructions: the q=8 Delorme pipeline
    ctx, n, k, members = time_it("perpsys.parse_perp_s",
                                 lambda: perpsys.parse_perp(perp_text), repeat=5)
    system = time_it("perpsys.perp_verify_s",
                     lambda: perpsys.perp_verify(ctx, n, k, members), repeat=5)
    expect("perp_verify", "perp_verify(dual hyperoval q=8)", getattr(system, "s", None),
           steps["perp.perp_verify"]["summary"]["s"])
    gd = time_it("constructions.gen_delorme_graph_s",
                 lambda: constructions.gen_delorme_graph(system), repeat=3)
    derived = time_it("constructions.derived_local_graph_s",
                      lambda: constructions.derived_local_graph(gd.graph, "B", vertex), repeat=3)
    expect("derived_local_graph", f"derived_local_graph(gen-delorme q=8, B:{vertex})",
           derived.params["gamma3"], steps["perp.derive"]["summary"]["gamma3"])

    # perpsys search: setup-dominated probe, then the exhaustive count
    probe = time_it("perpsys.setup_s",
                    lambda: perpsys.perp_search(7, 3, 2, 2, budget_nodes=1), repeat=3)
    expect("perp_search_probe", "perp_search(7,3,2,2, budget_nodes=1)",
           (probe.status, probe.nodes), ("budget", steps["perp.probe"]["summary"]["nodes"]))
    out = time_it("perpsys.search_s", lambda: perpsys.perp_search(3, 1, 4, 4, count_all=True))
    expect("perp_search_count", "perp_search(3,1,4,4, count_all=True)",
           (out.complete, out.solutions),
           (True, steps["perp.search"]["budgeted_count"]["solutions"]))
    metrics["perpsys.nodes"] = {"value": out.nodes, "unit": "count"}
    metrics["perpsys.nodes_per_s"] = {
        "value": out.nodes / metrics["perpsys.search_s"]["value"], "unit": "1/s"}

    # feasibility: the catalog table, then the larger enumeration
    rows = time_it("feasibility.enumerate_1300_s", lambda: feasibility.enumerate_feasible(1300))

    def join():
        ref = feasibility.reference_table()
        matched, extras, missing = feasibility.compare_with_reference(rows, ref)
        feasibility.catalog_annotate(rows, ref)
        return len(matched), len(extras), len(missing)

    got = time_it("feasibility.catalog_join_s", join, repeat=3)
    cat = steps["feas.catalog"]["summary"]
    expect("catalog_join", "catalog join at max_side 1300", got,
           (cat["matched"], cat["extras"], cat["missing"]))
    rows = time_it("feasibility.enumerate_2000_s", lambda: feasibility.enumerate_feasible(2000))
    expect("enumerate_2000", "enumerate_feasible(2000)", len(rows),
           steps["feas.enumerate"]["summary"]["rows"])
    evals = _timed(lambda: [feasibility.evaluate(r.array) for r in rows], 3)[0]
    samples["feasibility.evaluate_s"] = evals
    metrics["feasibility.evaluate_us_per_row"] = {
        "value": statistics.median(evals) / len(rows) * 1e6, "unit": "us"}
    time_it("feasibility.rows_to_text_s",
            lambda: (feasibility.rows_to_csv(rows), feasibility.rows_to_json(rows)), repeat=3)
    return metrics, samples
