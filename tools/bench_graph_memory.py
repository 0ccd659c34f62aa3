#!/usr/bin/env python3
"""Parent-versus-change memory and time of the graph layer, written as one JSON file.

Run from anywhere, with two checkouts of the repository (each holding
``src/`` and ``bench/``), for example a ``git archive`` of the parent
commit and a copy of the change:

    python3 tools/bench_graph_memory.py --parent /tmp/parent --change /tmp/change \\
        --seeds 301 --pairs 10 --out BENCH_30.json

It runs, with ``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPATH=<tree>/src``
and no other ``PYTHON*`` variable, and no ``__pycache__`` in either tree,
so every command compiles what it imports:

* ``bench/run.py --workload cone --seed s --seconds 30 --trace 0`` in
  both trees, ``--pairs`` times with seeds ``--seeds``, ``--seeds + 1``,
  ...; odd seeds run the parent first, even seeds the change first;
* one such pair each of the ``perp`` and ``feas`` workloads;
* in fresh processes, parent and change alternating, ``--procs`` runs
  per side: the Delorme graph of the dual Denniston (32,4) arc built
  and checked with its translations, ``construct cone --q 4``, a bare
  ``verify`` of the graph file that construct wrote, and ``construct
  hyperoval-affine --q 32``: wall seconds from start to exit and the
  peak RSS of the process (``os.wait4``); and ``bi_johnson(20, 5)``
  under ``tracemalloc``: the peak traced bytes per edge of the build.

Every run is kept in the output.  Medians and quartiles use
``statistics.median`` and ``statistics.quantiles`` (exclusive method).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_perp_search import clean, compare, environment, header, workload_pairs

DENNISTON = """
from dbrg.bigraph import dbrg_check
from dbrg.constructions import gen_delorme_graph
from dbrg.geometry import denniston_arc, dualize
from dbrg.perpsys import perp_verify
fam = dualize(denniston_arc(32, 4))
built = gen_delorme_graph(perp_verify(fam.ctx, 3, 1, fam.members))
res = dbrg_check(built.graph, built.automorphisms)
assert len(built.graph.eb) == 3276800 and res.ok and res.array == built.predicted
"""

BI_JOHNSON = """
import json, tracemalloc
from dbrg.constructions import bi_johnson
tracemalloc.start()
built = bi_johnson(20, 5)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"bytes_per_edge": peak / len(built.graph.eb)}))
"""

LARGE = {
    "denniston_32_4_build_and_check": [sys.executable, "-c", DENNISTON],
    "construct_cone_q4": [sys.executable, "-m", "dbrg.cli", "construct", "cone", "--q", "4",
                          "--out", "{tmp}/cone4"],
    "verify_cone_q4": [sys.executable, "-m", "dbrg.cli", "verify", "{tmp}/cone4.graph"],
    "construct_hyperoval_affine_q32": [sys.executable, "-m", "dbrg.cli", "construct",
                                       "hyperoval-affine", "--q", "32", "--out", "{tmp}/ho32"],
}


def measured(tree: Path, argv: list[str], tmp: str) -> dict:
    """Wall seconds and peak RSS (MB) of ``argv`` run in ``tree``, ``{tmp}``
    naming the directory ``tmp``; RuntimeError unless it exits 0."""
    t = time.perf_counter()
    proc = subprocess.Popen([a.replace("{tmp}", tmp) for a in argv], cwd=tree,
                            env=environment(tree), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv[1:4]} exited {os.waitstatus_to_exitcode(status)} in {tree}")
    return {"s": seconds, "peak_rss_mb": usage.ru_maxrss / 1024}


def bytes_per_edge(tree: Path) -> float:
    out = subprocess.run([sys.executable, "-c", BI_JOHNSON], cwd=tree, env=environment(tree),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["bytes_per_edge"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", type=int, default=301, help="first cone seed")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--procs", type=int, default=5, help="fresh processes per side and case")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clean(tree)

    workloads = workload_pairs(trees, [("cone", [args.seeds + i for i in range(args.pairs)]),
                                       ("perp", [args.seeds]), ("feas", [args.seeds])],
                               shown="peak_rss_mb")

    large = {name: {"parent": [], "change": []} for name in LARGE}
    per_edge = {"parent": [], "change": []}
    for i in range(args.procs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            with tempfile.TemporaryDirectory() as tmp:
                for name, argv in LARGE.items():
                    large[name][side].append(measured(trees[side], argv, tmp))
            per_edge[side].append(bytes_per_edge(trees[side]))
        print("large", i, {name: {side: runs[side][-1]["peak_rss_mb"] for side in trees}
                           for name, runs in large.items()}, flush=True)
    large_graphs = {name: {key: compare([r[key] for r in runs["parent"]],
                                        [r[key] for r in runs["change"]])
                           for key in ("s", "peak_rss_mb")}
                    for name, runs in large.items()}
    large_graphs["bi_johnson_20_5_traced_bytes_per_edge"] = compare(per_edge["parent"],
                                                                    per_edge["change"])

    record = {
        **header(__doc__),
        "workloads": workloads,
        "large_graphs": large_graphs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
