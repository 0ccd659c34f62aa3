#!/usr/bin/env python3
"""Parent-versus-change times of the field bootstrap, and the bench workloads, as one JSON file.

Run from anywhere, with two checkouts of the repository (each holding
``src/`` and ``bench/``), for example a ``git archive`` of the parent
commit and a copy of the change:

    python3 tools/bench_fields.py --parent /tmp/parent --change /tmp/change \\
        --out BENCH_33.json

It runs, with ``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPATH=<tree>/src``
and no other ``PYTHON*`` variable, and no ``__pycache__`` in either tree:

* 3 fresh interpreters per side, parent and change alternating (the
  first run parent first): each builds ``FieldContext(p, t)`` for
  GF(2^16), GF(3^10) and GF(65521), timing each, then for the 657
  fields of every prime power q <= 2^16 with t >= 2 and every prime
  q < 4096, in increasing q, timing them together and hashing the lines
  ``"{p} {t} {modulus} {generator} {exp[:q - 1]}\\n"``, lists written
  comma-separated: the digest that CI pins;
* ``bench/run.py --workload w --seed s --seconds 30 --trace 0`` in both
  trees, 10 times each for the ``cone``, ``perp`` and ``feas``
  workloads, with seeds 331 to 340; odd seeds run the parent first, even
  seeds the change first.

Every run is kept in the output.  Medians and quartiles use
``statistics.median`` and ``statistics.quantiles`` (exclusive method).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_perp_search import clean, compare, header, in_process, workload_pairs

FIELDS = """
import hashlib, time
from dbrg.gfint import FieldContext
from dbrg.params import prime_power
result = {}
for p, t in ((2, 16), (3, 10), (65521, 1)):
    start = time.perf_counter()
    FieldContext(p, t)
    result[f"gf_{p}_{t}_s"] = time.perf_counter() - start
digest, count, start = hashlib.sha256(), 0, time.perf_counter()
for q in range(2, 2**16 + 1):
    try:
        p, t = prime_power(q)
    except ValueError:
        continue
    if t >= 2 or q < 4096:
        ctx = FieldContext(p, t)
        digest.update(f"{p} {t} {','.join(map(str, ctx.modulus))} {ctx.generator} "
                      f"{','.join(map(str, ctx._exp[:q - 1]))}\\n".encode())
        count += 1
result["fields_657_s"] = time.perf_counter() - start
result["fields"], result["sha256"] = count, digest.hexdigest()
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clean(tree)

    got = {"parent": [], "change": []}
    for i in range(1, 4):
        for side in (("parent", "change") if i % 2 else ("change", "parent")):
            got[side].append(in_process(trees[side], FIELDS))
        print("fields", {s: got[s][-1] for s in trees}, flush=True)
    fields = {"runs": got}
    for key, value in got["parent"][0].items():
        if key.endswith("_s"):
            fields[key] = compare([r[key] for r in got["parent"]], [r[key] for r in got["change"]])
        else:  # the field count and digest, which every run must share
            fields[key] = {"value": value, "same_in_every_run": all(
                r[key] == value for side in trees for r in got[side])}

    seeds = list(range(331, 341))
    workloads = workload_pairs(trees, [(w, seeds) for w in ("cone", "perp", "feas")])
    record = {**header(__doc__), "fields": fields, "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
