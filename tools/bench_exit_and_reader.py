#!/usr/bin/env python3
"""Parent-versus-change times of how commands end and of the graph-file reader, as one JSON file.

Run from anywhere, with two checkouts of the repository (each holding
``src/`` and ``bench/``), for example a ``git archive`` of the parent
commit and a copy of the change:

    python3 tools/bench_exit_and_reader.py --parent /tmp/parent --change /tmp/change \\
        --seeds 311 --pairs 10 --out BENCH_31.json

It runs, with ``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPATH=<tree>/src``
and no other ``PYTHON*`` variable, and no ``__pycache__`` in either tree,
so every command compiles what it imports:

* ``bench/run.py --workload cone --seed s --seconds 30 --trace 0`` in
  both trees, ``--pairs`` times with seeds ``--seeds``, ``--seeds + 1``,
  ...; odd seeds run the parent first, even seeds the change first;
* ``--other-pairs`` such pairs each of the ``perp`` and ``feas``
  workloads;
* in fresh interpreters, parent and change alternating, ``--procs``
  processes per side: ``parse_graph`` of the cone q=3 graph text
  relabelled as the bench's seed 1 relabels it, and of the q=32 affine
  hyperoval graph text, each from the string and from an open file; per
  process the median of 7 calls after one warm-up, and a sha256 of the
  parsed edge arrays;
* ``python -m dbrg.cli construct cone --q 3``, ``verify`` of the
  relabelled cone file and ``feas enumerate --max-side 100``,
  ``--command-runs`` runs per side, parent and change alternating: wall
  milliseconds from start to exit, stdout a pipe.

Every run is kept in the output.  Medians and quartiles use
``statistics.median`` and ``statistics.quantiles`` (exclusive method).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_perp_search import clean, compare, environment, header, workload_pairs

PARSE = """
import hashlib, json, statistics, sys, time
sys.path.insert(0, "bench")
from run import relabel_graph_text
from dbrg import bigraph
from dbrg.constructions import cone_graph, hyperoval_affine_graph
texts = {
    "cone_q3_relabelled": relabel_graph_text(bigraph.serialize_graph(cone_graph(3).graph), 1),
    "hyperoval_affine_q32": bigraph.serialize_graph(hyperoval_affine_graph(32).graph),
}
result = {}
for name, text in texts.items():
    path = f"{TMP}/{name}.graph"
    with open(path, "w") as fh:
        fh.write(text)
    for source in ("str", "file"):
        times = []
        for _ in range(8):
            t = time.perf_counter()
            if source == "str":
                g = bigraph.parse_graph(text)
            else:
                with open(path) as fh:
                    g = bigraph.parse_graph(fh)
            times.append(time.perf_counter() - t)
        result[f"{name}_{source}_ms"] = statistics.median(times[1:]) * 1e3
    result[f"{name}_edges"] = len(g.eb)
    result[f"{name}_edges_sha256"] = hashlib.sha256(g.eb.tobytes() + g.ec.tobytes()).hexdigest()
print(json.dumps(result))
"""

RELABEL = """
import sys
sys.path.insert(0, "bench")
from run import relabel_graph_text
out = sys.argv[1]
with open(out + ".graph") as fh:
    text = relabel_graph_text(fh.read(), 1)
with open(out + "_relabelled.graph", "w") as fh:
    fh.write(text)
"""

COMMANDS = {
    "construct_cone_q3": ["construct", "cone", "--q", "3", "--out", "{out}"],
    "verify_cone_q3_relabelled": ["verify", "{out}_relabelled.graph"],
    "feas_enumerate_100": ["feas", "enumerate", "--max-side", "100"],
}


def parse_times(tree: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, "-c", f"TMP = {tmp!r}\n" + PARSE], cwd=tree,
                             env=environment(tree), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def command_ms(tree: Path, tmp: str) -> dict:
    """Wall ms of each of ``COMMANDS`` in ``tree``, in order, ``{out}``
    naming a prefix in ``tmp``; the relabelled file is made between the
    first two, untimed."""
    got = {}
    for name, argv in COMMANDS.items():
        argv = [a.replace("{out}", f"{tmp}/cone") for a in argv]
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dbrg.cli", *argv], cwd=tree,
                              env=environment(tree), stdout=subprocess.PIPE)
        got[name] = (time.perf_counter() - t) * 1e3
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode} in {tree}")
        if name == "construct_cone_q3":
            subprocess.run([sys.executable, "-c", RELABEL, f"{tmp}/cone"], cwd=tree,
                           env=environment(tree), check=True)
    return got


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", type=int, default=311, help="first seed")
    ap.add_argument("--pairs", type=int, default=10, help="cone pairs")
    ap.add_argument("--other-pairs", type=int, default=3, help="perp and feas pairs")
    ap.add_argument("--procs", type=int, default=5, help="fresh interpreters per side")
    ap.add_argument("--command-runs", type=int, default=20, help="runs per side and command")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clean(tree)

    def order(i: int) -> tuple[str, str]:
        return ("parent", "change") if i % 2 else ("change", "parent")

    workloads = workload_pairs(trees, [
        (workload, [args.seeds + i for i in range(pairs)])
        for workload, pairs in (("cone", args.pairs), ("perp", args.other_pairs),
                                ("feas", args.other_pairs))])

    parsed = {"parent": [], "change": []}
    for i in range(args.procs):
        for side in order(i):
            parsed[side].append(parse_times(trees[side]))
        print("parse_graph", {s: parsed[s][-1] for s in trees}, flush=True)
    parse_graph = {}
    for key, value in parsed["parent"][0].items():
        if key.endswith("_ms"):
            parse_graph[key] = compare([r[key] for r in parsed["parent"]],
                                       [r[key] for r in parsed["change"]])
        else:  # the edge count and digest, which every run must share
            parse_graph[key] = {"value": value, "same_in_every_run": all(
                r[key] == value for side in trees for r in parsed[side])}

    walls = {"parent": [], "change": []}
    for i in range(args.command_runs):
        for side in order(i):
            with tempfile.TemporaryDirectory() as tmp:
                walls[side].append(command_ms(trees[side], tmp))
    commands = {name: compare([r[name] for r in walls["parent"]],
                              [r[name] for r in walls["change"]]) for name in COMMANDS}
    print("commands", {n: (c["parent"]["median"], c["change"]["median"])
                       for n, c in commands.items()}, flush=True)

    record = {
        **header(__doc__),
        "workloads": workloads,
        "parse_graph": parse_graph,
        "commands_ms": commands,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
