#!/usr/bin/env python3
"""Parent-versus-change measurements of the perp layer, written as one JSON file.

Run from anywhere, with two checkouts of the repository (each holding
``src/`` and ``bench/``), for example a ``git archive`` of the parent
commit and a copy of the change:

    python3 tools/bench_perp_search.py --parent /tmp/parent --change /tmp/change \\
        --seeds 61 --pairs 10 --out BENCH_29.json

It runs, with ``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPATH=<tree>/src``
and no other ``PYTHON*`` variable, and no ``__pycache__`` in either tree,
so every command compiles what it imports:

* ``bench/run.py --workload perp --seed s --seconds 30 --trace 0`` in
  both trees, ``--pairs`` times with seeds ``--seeds``, ``--seeds + 1``,
  ...; odd seeds run the parent first, even seeds the change first;
* one such pair each of the ``cone`` and ``feas`` workloads;
* in fresh interpreters, parent and change alternating, ``--procs``
  processes per side: the (6,2,3,3) search to 20 000 nodes (set-up
  seconds, and nodes per second after set-up), the (7,3,2,2) probe to
  one node (set-up and total seconds), and ``perp_verify`` of a
  21-member family of 4-spaces of F_3^6 (the first 21 echelon bases),
  of the dual hyperovals of PG(2,16) and PG(2,32) and of the dual
  Denniston (32,4) arc, and ``perp_dualize`` and
  ``two_intersection_set`` of the last two (per process the median of
  15 calls after one warm-up);
* ``python -m dbrg.cli perp verify``, ``roundtrip`` and ``construct
  gen-delorme`` of ``bench/data/dual_hyperoval_q8.perp``, 30 runs per
  side, parent and change alternating: wall milliseconds from start to
  exit, and the peak RSS of the command's process.

Every run is kept in the output.  Medians and quartiles use
``statistics.median`` and ``statistics.quantiles`` (exclusive method).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("norm_wall_s", "norm_cmd_geomean_s", "setup_s", "peak_rss_mb")


def _timed(setup: str, call: str, verdict: str) -> str:
    """Code timing ``call`` after ``setup``: the median of 15 calls after
    one warm-up, with ``verdict`` read from the last result ``got``."""
    return (setup + "import statistics, time\n"
            f"{call}\n"
            "times = []\n"
            "for _ in range(15):\n"
            "    t = time.perf_counter()\n"
            f"    got = {call}\n"
            "    times.append(time.perf_counter() - t)\n"
            f"result = {{'ms': statistics.median(times) * 1e3, 'verdict': {verdict}}}\n")


def _verify(setup: str) -> str:
    """Code timing ``perp_verify`` on the ``ctx, n, k, members`` that
    ``setup`` defines."""
    return _timed(setup + "from dbrg.perpsys import perp_verify\n",
                  "perp_verify(ctx, n, k, members)", "getattr(got, 'kind', 'system')")


DUAL_ARCS = (("dual_hyperoval_32", "hyperoval(32)"),
             ("dual_denniston_32_4", "denniston_arc(32, 4)"))


def _system(family: str) -> str:
    """Code defining ``system``, the verified perp system of the dual of
    ``family``."""
    return ("from dbrg.geometry import denniston_arc, dualize, hyperoval\n"
            "from dbrg.perpsys import perp_dualize, perp_verify, two_intersection_set\n"
            f"fam = dualize({family})\n"
            "system = perp_verify(fam.ctx, 3, 1, fam.members)\n")


IN_PROCESS = {
    "search_6_2_3_3_20000": (
        "from dbrg.perpsys import perp_search\n"
        "out = perp_search(6, 2, 3, 3, budget_nodes=20000)\n"
        "result = {'setup_s': out.setup_seconds, 'nodes': out.nodes,\n"
        "          'nodes_per_s': out.nodes / (out.elapsed - out.setup_seconds)}\n"),
    "probe_7_3_2_2": (
        "from dbrg.perpsys import perp_search\n"
        "out = perp_search(7, 3, 2, 2, budget_nodes=1)\n"
        "result = {'setup_s': out.setup_seconds, 'total_s': out.elapsed, 'nodes': out.nodes}\n"),
    "perp_verify_f3_6_21": _verify(
        "import itertools\n"
        "from dbrg.gfcore import enumerate_subspaces\n"
        "from dbrg.gfint import field\n"
        "ctx, n, k = field(3), 6, 2\n"
        "members = list(itertools.islice(enumerate_subspaces(ctx, 6, 4), 21))\n"),
    **{f"perp_verify_{name}": _verify(
        "from dbrg.geometry import denniston_arc, dualize, hyperoval\n"
        f"fam = dualize({family})\n"
        "ctx, n, k, members = fam.ctx, 3, 1, fam.members\n")
       for name, family in (("dual_hyperoval_16", "hyperoval(16)"), *DUAL_ARCS)},
    **{f"perp_dualize_{name}": _timed(_system(family), "perp_dualize(system)", "len(got)")
       for name, family in DUAL_ARCS},
    **{f"two_intersection_set_{name}": _timed(_system(family), "two_intersection_set(system)",
                                              "list(got[1:])")
       for name, family in DUAL_ARCS},
}


PERP_FILE = "bench/data/dual_hyperoval_q8.perp"
COMMAND_RUNS = 30
COMMANDS = {
    "perp_verify": ["perp", "verify", PERP_FILE],
    "roundtrip": ["roundtrip", PERP_FILE],
    "gen_delorme": ["construct", "gen-delorme", "--perp", PERP_FILE, "--out", "{out}"],
}


ENVIRONMENT = "PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=<tree>/src, no other PYTHON* variable"


def environment(tree: Path) -> dict[str, str]:
    """The caller's environment with :data:`ENVIRONMENT` for its ``PYTHON*``
    variables, so that no record depends on the shell it was run from."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return dict(env, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))


def header(doc: str) -> dict:
    """A record's machine, environment and method, the part of ``doc``
    from "It runs,"."""
    return {"machine": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                       f"Python {platform.python_version()}",
            "environment": ENVIRONMENT, "method": doc.split("It runs,", 1)[1].strip()}


def clean(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", "30", "--trace", "0"], cwd=tree,
                         env=environment(tree), capture_output=True, text=True, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"],
            **{m: last["metrics"][m]["value"] for m in METRICS}}


def workload_pairs(trees: dict[str, Path], plan: list[tuple[str, list[int]]],
                   shown: str = "norm_wall_s") -> dict:
    """``bench_run`` of each workload of ``plan`` with each of its seeds in
    both ``trees``, odd seeds the parent first, printing each pair's
    ``shown`` metric: per workload its seeds, whether every run was correct
    with none failed, and per metric of :data:`METRICS` the pairs compared
    (the two values, for one pair)."""
    workloads = {}
    for workload, seeds in plan:
        runs = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            runs.append({side: bench_run(trees[side], workload, seed) for side in order})
            print(workload, seed, {side: runs[-1][side][shown] for side in order}, flush=True)
        entry = {"seeds": seeds,
                 "all_correct": all(r[s]["correct"] and not r[s]["failed"]
                                    for r in runs for s in trees)}
        for m in METRICS:
            values = {s: [r[s][m] for r in runs] for s in trees}
            entry[m] = compare(values["parent"], values["change"]) if len(runs) >= 2 else values
        workloads[workload] = entry
    return workloads


def in_process(tree: Path, code: str) -> dict:
    out = subprocess.run([sys.executable, "-c", code + "import json\nprint(json.dumps(result))\n"],
                         cwd=tree, env=environment(tree), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def command(tree: Path, argv: list[str]) -> dict:
    """Wall ms and peak RSS (MB) of ``python -m dbrg.cli argv`` in ``tree``,
    ``{out}`` in ``argv`` naming a fresh temporary prefix."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{out}", str(Path(tmp) / "out")) for a in argv]
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dbrg.cli", *argv], cwd=tree,
                                env=environment(tree), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        ms = (time.perf_counter() - t) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode} in {tree}")
    return {"ms": ms, "peak_rss_mb": usage.ru_maxrss / 1024}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float], lower_is_better: bool = True) -> dict:
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change),
           "change_better": f"{wins}/{len(parent)}",
           "runs": {"parent": [round(x, 4) for x in parent],
                    "change": [round(x, 4) for x in change]}}
    out["change_vs_parent"] = round(out["change"]["median"] / out["parent"]["median"] - 1, 4)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", type=int, default=61, help="first perp seed")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--procs", type=int, default=7, help="fresh interpreters per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clean(tree)

    workloads = workload_pairs(trees, [("perp", [args.seeds + i for i in range(args.pairs)]),
                                       ("cone", [args.seeds]), ("feas", [args.seeds])])

    processes = {}
    for name, code in IN_PROCESS.items():
        got = {"parent": [], "change": []}
        for i in range(args.procs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                got[side].append(in_process(trees[side], code))
        print(name, got, flush=True)
        entry = {"runs": got}
        for key in got["parent"][0]:
            if isinstance(got["parent"][0][key], float):
                entry[key] = compare([r[key] for r in got["parent"]],
                                     [r[key] for r in got["change"]],
                                     lower_is_better=key != "nodes_per_s")
        processes[name] = entry

    commands = {}
    for name, argv in COMMANDS.items():
        got = {"parent": [], "change": []}
        for i in range(COMMAND_RUNS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                got[side].append(command(trees[side], argv))
        commands[name] = {key: compare([r[key] for r in got["parent"]],
                                       [r[key] for r in got["change"]])
                          for key in ("ms", "peak_rss_mb")}
        print(name, {key: (v["parent"]["median"], v["change"]["median"])
                     for key, v in commands[name].items()}, flush=True)

    record = {
        **header(__doc__),
        "workloads": workloads,
        "in_process": processes,
        "commands": commands,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
