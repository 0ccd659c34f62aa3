#!/usr/bin/env python3
"""Self-check of the dbrg benchmark.  Run from the root of a dbrg checkout:

    python3 bench/selfcheck.py

1. Quick mode (``run.py --quick``) passes every check with the default
   seed and with a second seed.
2. The second seed changes the relabelled cone file and the derive
   vertex, and no command summary apart from the derive vertex.
3. A tampered expectation (a wrong ``cone.graph`` digest) is reported
   as a failed command, so ``failed_ratio`` > 0.
4. The order-free check of the budgeted perp count rejects a wrong
   complete count, a count over the total and a wrong exit code.

Exits 0 when all four hold.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SEEDS = (0, 7)


def quick(workloads: list[str], seed: int, expected: dict) -> tuple[dict, str]:
    """One quick pass in this process; returns its record and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        record = run.quick(workloads, seed, expected)
    return record, out.getvalue()


def main() -> int:
    try:
        run.check_source()
    except run.HarnessError as exc:
        print(f"selfcheck: {exc}", file=sys.stderr)
        return 2
    expected = json.loads((run.BENCH / "expected.json").read_text())
    problems, steps = [], []
    for seed in SEEDS:
        record, _ = quick(list(run.WORKLOADS), seed, expected)
        if record["failed"]:
            problems.append(f"seed {seed}: {record['failed']} of {record['attempted']} commands failed")
        steps.append({s["name"]: s for p in record["workloads"].values() for s in p["steps"]})

    a, b = steps
    if a["cone.verify"]["input_sha256"] == b["cone.verify"]["input_sha256"]:
        problems.append("the second seed did not change the relabelled cone file")
    if a["perp.derive"]["argv"] == b["perp.derive"]["argv"]:
        problems.append("the second seed did not change the derive vertex")
    for name in a:
        sa = {k: v for k, v in a[name]["summary"].items() if k != "vertex"}
        sb = {k: v for k, v in b[name]["summary"].items() if k != "vertex"}
        if sa != sb:
            problems.append(f"{name}: summary depends on the seed: {sa} != {sb}")

    expected["steps"]["cone.construct"]["artifacts"]["cone.graph"] = "0" * 64
    _, stdout = quick(["cone"], 0, expected)
    result = json.loads(stdout.strip().splitlines()[-1])
    ratio = result["metrics"]["failed_ratio"]["value"]
    if result["correct"] or ratio <= 0 or "FAIL cone.construct" not in stdout:
        problems.append(f"a wrong cone.graph digest went unnoticed (failed_ratio {ratio})")

    wrong = [(0, {"complete": True, "solutions": 15, "nodes": 704556}),
             (0, {"complete": False, "solutions": 17, "nodes": 120000}),
             (3, {"complete": False, "solutions": 12, "nodes": 120000})]
    for code, summary in wrong:
        if not run.budgeted_count_problems(code, summary, solutions=16, nodes=120000):
            problems.append(f"budgeted count check accepted exit {code} with {summary}")

    for p in problems:
        print(f"selfcheck: {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
