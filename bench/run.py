#!/usr/bin/env python3
"""Benchmark of the ``dbrg`` command-line tool.

Run from the root of a dbrg checkout:

    python3 bench/run.py --workload cone --seed 1 --seconds 30 --trace 0

Each workload is a fixed sequence of ``dbrg`` commands.  Every command
runs in a fresh ``python3 -m dbrg.cli`` process, one at a time (closed
loop, one client), with ``PYTHONPATH`` pointing at the checkout's
``src``.  The sequence repeats until ``--seconds`` have passed and at
least four passes have run.  Before each pass a fresh interpreter
imports ``dbrg.cli`` (the program's set-up, ``setup_s``).  A fixed
pure-Python reference loop is timed before and after every timed item,
and each item's wall time is scaled by the mean of those two loop
times, so the gated times are in seconds at a fixed reference speed
and the host's changing speed largely cancels.  Every command's exit
code, last-line JSON summary and artifact digests are checked against
``bench/expected.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, repeats the workload in-process through
``dbrg.cli.main`` with spans around each layer's public functions, then
times each layer's public functions alone (see ``bench/trace_layers.py``) and
prints the per-layer metrics.  ``--quick`` runs each workload's
sequence once with its checks.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full run record (machine
details, raw samples, summaries, digests) is written under
``.bench_run/``.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("cone", "perp", "feas")
PERP_FIXTURE = BENCH / "data" / "dual_hyperoval_q8.perp"
GD_B_VERTICES = 512  # B side of the q=8 gen-delorme graph
REFERENCE_ITERATIONS = 1_000_000  # fixed loop timed between every two timed items
REFERENCE_NOMINAL_S = 0.08  # reference speed of the scaled times: the loop takes this long
MIN_PASSES = 4  # a run measures at least --seconds and at least this many passes
COMMAND_TIMEOUT_S = 170.0
RUN_LIMIT_S = 165.0  # no new pass starts once a pass would end past this


class HarnessError(Exception):
    """The benchmark cannot run here (no dbrg source, bad arguments)."""


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def relabel_graph_text(text: str, seed: int) -> str:
    """Relabel the B and C indices of a ``B=.. C=..`` graph file by seeded
    permutations and list the edges in sorted order.  Seed 0 keeps the
    labels."""
    lines = text.splitlines()
    head = lines[0].split()
    nb, nc = int(head[0][2:]), int(head[1][2:])
    perm_b, perm_c = list(range(nb)), list(range(nc))
    if seed:
        rng = random.Random(f"relabel:{seed}")
        rng.shuffle(perm_b)
        rng.shuffle(perm_c)
    edges = []
    for line in lines[1:]:
        if line.strip():
            b, c = line.split()
            edges.append((perm_b[int(b)], perm_c[int(c)]))
    edges.sort()
    return "\n".join([lines[0]] + [f"{b} {c}" for b, c in edges]) + "\n"


def derive_vertex(seed: int) -> int:
    """B vertex of the q=8 gen-delorme graph that ``derive`` starts from."""
    return random.Random(f"derive:{seed}").randrange(GD_B_VERTICES) if seed else 0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    name: str                      # key in expected.json, e.g. "cone.construct"
    phase: str                     # per-workload phase, e.g. "construct"
    argv: list[str]                # dbrg arguments
    outputs: tuple[str, ...] = ()  # artifacts digested after the command
    expect_extra: dict = field(default_factory=dict)  # seed-dependent summary keys
    before: Callable[[Path], dict] | None = None       # untimed input preparation


def workload_steps(workload: str, seed: int) -> list[Step]:
    if workload == "cone":
        def relabel(wd: Path) -> dict:
            out = wd / "cone_relabelled.graph"
            out.write_text(relabel_graph_text((wd / "cone.graph").read_text(), seed))
            return {"input": out.name, "input_sha256": sha256_file(out)}

        return [
            Step("cone.construct", "construct",
                 ["construct", "cone", "--q", "3", "--out", "cone"],
                 outputs=("cone.graph",)),
            Step("cone.verify", "verify", ["verify", "cone_relabelled.graph"],
                 before=relabel),
        ]
    if workload == "perp":
        vertex = f"B:{derive_vertex(seed)}"
        return [
            Step("perp.probe", "probe",
                 ["perp", "search", "--n", "7", "--k", "3", "--q", "2", "--d", "2",
                  "--budget-nodes", "1"]),
            Step("perp.search", "search",
                 ["perp", "search", "--n", "3", "--k", "1", "--q", "4", "--d", "4",
                  "--count-all", "--budget-nodes", "120000"]),
            Step("perp.perp_verify", "pipeline", ["perp", "verify", "dh8.perp"]),
            Step("perp.gen_delorme", "pipeline",
                 ["construct", "gen-delorme", "--perp", "dh8.perp", "--out", "gd"],
                 outputs=("gd.graph",)),
            Step("perp.derive", "pipeline",
                 ["derive", "gd.graph", "--vertex", vertex, "--out", "derived"],
                 expect_extra={"vertex": vertex}),
        ]
    if workload == "feas":
        return [
            Step("feas.catalog", "catalog",
                 ["catalog", "--max-side", "1300", "--out", "catalog.json"],
                 outputs=("catalog.json",)),
            Step("feas.enumerate", "enumerate",
                 ["feas", "enumerate", "--max-side", "2000", "--out", "rows.csv",
                  "--json", "rows.json"],
                 outputs=("rows.csv", "rows.json")),
        ]
    raise HarnessError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_step(step: Step, expected: dict, code: int, stdout: str, wd: Path) -> tuple[dict, list[str]]:
    """Compare one command's exit code, summary and artifacts with the
    expectations.  Returns (observations, mismatches)."""
    exp = expected["steps"][step.name]
    problems = []
    if "exit" in exp and code != exp["exit"]:
        problems.append(f"exit code {code}, expected {exp['exit']}")
    lines = stdout.strip().splitlines()
    summary = None
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        pass
    if not isinstance(summary, dict):
        problems.append("last stdout line is not a JSON object")
        summary = {}
    for key, want in {**exp.get("summary", {}), **step.expect_extra}.items():
        if summary.get(key) != want:
            problems.append(f"summary {key}={summary.get(key)!r}, expected {want!r}")
    if "budgeted_count" in exp:
        problems += budgeted_count_problems(code, summary, **exp["budgeted_count"])
    digests = {}
    for name in step.outputs:
        path = wd / name
        if not path.is_file():
            problems.append(f"artifact {name} missing")
            continue
        digests[name] = sha256_file(path)
        want = exp.get("artifacts", {}).get(name)
        if digests[name] != want:
            problems.append(f"artifact {name} sha256 {digests[name][:16]}.., expected {str(want)[:16]}..")
    return {"summary": summary, "digests": digests}, problems


def budgeted_count_problems(code: int, summary: dict, solutions: int, nodes: int) -> list[str]:
    """Checks of a count-all search under a node budget that hold whatever
    order the search visits nodes in: a complete search counts all
    ``solutions``; an incomplete one used all ``nodes`` and counted fewer;
    the exit code is 0 once a solution is found, else 3."""
    got, complete = summary.get("solutions"), summary.get("complete")
    if not isinstance(got, int) or not isinstance(complete, bool):
        return [f"summary solutions={got!r} complete={complete!r}, expected an int and a bool"]
    problems = []
    if complete and got != solutions:
        problems.append(f"complete count of {got} solutions, expected {solutions}")
    if not complete and (summary.get("nodes") != nodes or not 0 <= got < solutions):
        problems.append(f"stopped after {summary.get('nodes')} nodes with {got} solutions, "
                        f"expected {nodes} nodes and fewer than {solutions}")
    want_code = 0 if got else 3
    if code != want_code:
        problems.append(f"exit code {code} with {got} solutions, expected {want_code}")
    return problems


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def run_child(argv: list[str], wd: Path, timeout: float = COMMAND_TIMEOUT_S) -> tuple[int, float, object, str]:
    """Run one process to completion.  Returns (exit code, wall seconds,
    the child's own rusage, stdout text)."""
    out_path, err_path = wd / ".stdout", wd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=wd, env={**os.environ, "PYTHONPATH": str(SRC)},
                                stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, wall, usage, out_path.read_text()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, label: str, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {label} ({what}): " + "; ".join(problems), flush=True)


def run_pass(steps: list[Step], wd: Path, expected: dict, tally: Tally,
             runner: Callable[[list[str], Path], tuple[int, float, object, str]],
             clock: ReferenceClock | None = None) -> dict:
    """Run one pass of a workload's steps; returns its raw record.  With a
    ``clock``, every command is bracketed by reference-loop samples."""
    record = {"steps": []}
    for step in steps:
        what = "dbrg " + " ".join(step.argv)
        try:
            extra = step.before(wd) if step.before else {}
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"input preparation failed: {exc!r}"]
            tally.record(step.name, what, problems)
            record["steps"].append({"name": step.name, "phase": step.phase, "argv": step.argv,
                                    "problems": problems})
            continue
        refs = {}
        if clock:
            (code, wall, usage, stdout), refs = clock.around(lambda: runner(step.argv, wd))
        else:
            code, wall, usage, stdout = runner(step.argv, wd)
        obs, problems = check_step(step, expected, code, stdout, wd)
        tally.record(step.name, what, problems)
        record["steps"].append({
            "name": step.name, "phase": step.phase, "argv": step.argv, "exit": code,
            "wall_s": wall, "problems": problems, **obs, **extra, **refs,
            **({"cpu_s": usage.ru_utime + usage.ru_stime, "max_rss_kib": usage.ru_maxrss}
               if usage else {}),
        })
    return record


def subprocess_runner(args: list[str], wd: Path) -> tuple[int, float, object, str]:
    return run_child([sys.executable, "-m", "dbrg.cli", *args], wd)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

_PROBE = (
    "import json, os, dbrg.cli, numpy;"
    "cfg = numpy.show_config(mode='dicts').get('Build Dependencies', {}).get('blas', {});"
    "print(json.dumps({'dbrg_file': dbrg.cli.__file__, 'numpy': numpy.__version__,"
    " 'blas': cfg.get('name'), 'blas_config': cfg.get('openblas configuration'),"
    " 'blas_thread_env': {k: os.environ.get(k) for k in"
    " ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')}}))"
)


def check_source() -> None:
    if not (SRC / "dbrg" / "cli.py").is_file():
        raise HarnessError(f"no dbrg source at {SRC / 'dbrg'}; run from the root of a dbrg checkout")


def fresh_workdir(workload: str, tag: str) -> Path:
    """Empty work directory holding only the workload's fixed inputs, so
    every pass must write its own artifacts."""
    wd = RUN_DIR / f"work-{tag}"
    if wd.exists():
        shutil.rmtree(wd)
    wd.mkdir(parents=True)
    if workload == "perp":
        shutil.copyfile(PERP_FIXTURE, wd / "dh8.perp")
    return wd


def program_info(wd: Path) -> dict:
    """Check that ``dbrg.cli`` imports from the checkout, and report the
    numpy and BLAS set-up the program sees."""
    code, _, _, stdout = run_child([sys.executable, "-c", _PROBE], wd)
    if code != 0:
        raise HarnessError(f"importing dbrg.cli from {SRC} failed (exit {code})")
    info = json.loads(stdout.strip().splitlines()[-1])
    if not Path(info["dbrg_file"]).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"dbrg was imported from {info['dbrg_file']}, not from {SRC}")
    return info


def startup_time(wd: Path) -> float:
    """Wall seconds of a fresh interpreter importing ``dbrg.cli`` from the
    checkout: the program's set-up, paid before any command does work."""
    code, wall, _, _ = run_child([sys.executable, "-c", "import dbrg.cli"], wd)
    if code != 0:
        raise HarnessError(f"importing dbrg.cli from {SRC} failed (exit {code})")
    return wall


def reference_time() -> float:
    """Seconds of a fixed pure-Python loop in the benchmark's own process.
    It runs no dbrg code, so it shows how fast the machine is right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class ReferenceClock:
    """Times the reference loop between every two timed items, so each
    item has a loop sample just before and just after it."""

    def __init__(self) -> None:
        self.samples = [reference_time()]

    def around(self, fn: Callable[[], object]) -> tuple[object, dict]:
        before = self.samples[-1]
        result = fn()
        self.samples.append(reference_time())
        return result, {"ref_before_s": before, "ref_after_s": self.samples[-1]}


def scaled(wall: float, refs: dict) -> float:
    """Wall seconds at the reference speed: the item's wall time times
    REFERENCE_NOMINAL_S over the mean of the loop samples around it.  The
    host's speed changes by up to half within seconds (other tenants of
    the same cores), and the loop slows with it while dbrg's code does not
    change, so the ratio is much steadier than the wall time itself."""
    return wall * 2 * REFERENCE_NOMINAL_S / (refs["ref_before_s"] + refs["ref_after_s"])


# ---------------------------------------------------------------------------
# Statistics and output
# ---------------------------------------------------------------------------

def describe(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def timed_steps(pass_record: dict) -> list[dict]:
    """The steps of a pass whose command ran (input preparation succeeded)."""
    return [s for s in pass_record["steps"] if "wall_s" in s]


def phase_metrics(passes: list[dict]) -> dict:
    """Per-phase seconds of each pass (commands of one phase summed)."""
    per_phase: dict[str, list[float]] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for s in timed_steps(p):
            sums[s["phase"]] = sums.get(s["phase"], 0.0) + s["wall_s"]
        for phase, v in sums.items():
            per_phase.setdefault(f"{phase}_s", []).append(v)
    return per_phase


def command_medians(passes: list[dict], time_of: Callable[[dict], float]) -> list[float]:
    """Each command's median time over the passes."""
    by_step: dict[str, list[float]] = {}
    for p in passes:
        for s in timed_steps(p):
            by_step.setdefault(s["name"], []).append(time_of(s))
    return [statistics.median(v) for v in by_step.values()]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def end_to_end(passes: list[dict], setup_samples: list[dict]) -> dict:
    """norm_wall_s sums, and norm_cmd_geomean_s takes the geometric mean
    of, each command's median wall time at the reference speed over the
    passes; setup_s is the median fresh-interpreter start-up at the
    reference speed."""
    medians = command_medians(passes, lambda s: scaled(s["wall_s"], s))
    peak = max(s["max_rss_kib"] for p in passes for s in timed_steps(p)) / 1024
    return {
        "norm_wall_s": {"value": sum(medians), "unit": "s"},
        "norm_cmd_geomean_s": {"value": geomean(medians), "unit": "s"},
        "setup_s": {"value": statistics.median(scaled(x["wall_s"], x) for x in setup_samples),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def raw_times(passes: list[dict], setup_samples: list[dict]) -> dict:
    """The same figures from unscaled wall times, for the record."""
    medians = command_medians(passes, lambda s: s["wall_s"])
    return {"wall_s": sum(medians), "cmd_geomean_s": geomean(medians),
            "setup_s": statistics.median(x["wall_s"] for x in setup_samples)}


def write_record(name: str, record: dict) -> Path:
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def print_stats(title: str, stats: dict) -> None:
    for key, d in stats.items():
        print(f"{title} {key}: median {d['median']:.4f} q1 {d['q1']:.4f} q3 {d['q3']:.4f} n={d['n']}")


def final_line(tally: Tally, metrics: dict) -> None:
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, expected: dict) -> None:
    tag = f"{workload}-{os.getpid()}"
    record = {"mode": "measure", "workload": workload, "seed": seed, "seconds": seconds,
              "machine": machine_info(), "load_before": os.getloadavg()}
    steps = workload_steps(workload, seed)
    tally = Tally()
    wd = fresh_workdir(workload, tag)
    record["program"] = program_info(wd)
    passes, setup_samples = [], []
    clock = ReferenceClock()
    t0 = time.perf_counter()
    while True:
        started = time.perf_counter()
        wd = fresh_workdir(workload, tag)
        # one start-up sample per pass: spread over the run, not a burst at its start
        wall, refs = clock.around(lambda: startup_time(wd))
        setup_samples.append({"wall_s": wall, **refs})
        passes.append(run_pass(steps, wd, expected, tally, subprocess_runner, clock))
        now = time.perf_counter()
        if now - t0 >= seconds and len(passes) >= MIN_PASSES:
            break
        if now - t0 + (now - started) > RUN_LIMIT_S:
            break
    shutil.rmtree(wd)
    metrics = end_to_end(passes, setup_samples)
    raw = raw_times(passes, setup_samples)
    phases = {k: describe(v) for k, v in phase_metrics(passes).items()}
    walls = describe([sum(s["wall_s"] for s in timed_steps(p)) for p in passes])
    record.update(load_after=os.getloadavg(), setup_samples=setup_samples,
                  reference_samples=clock.samples, reference_nominal_s=REFERENCE_NOMINAL_S,
                  passes=passes, phases=phases, wall=walls, raw=raw, metrics=metrics,
                  attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted)
    path = write_record(f"record-{workload}-seed{seed}-trace0.json", record)
    print(f"workload {workload} seed {seed}: {len(passes)} passes, record {path.relative_to(ROOT)}")
    print_stats("per pass", {"pass_wall_s": walls, **phases,
                             "setup_s": describe([x["wall_s"] for x in setup_samples]),
                             "reference_s": describe(clock.samples)})
    print("unscaled " + " ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    print(f"failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    final_line(tally, metrics)


def quick(workloads: list[str], seed: int, expected: dict) -> dict:
    """One checked pass of each workload; returns the run record."""
    tally = Tally()
    record = {"mode": "quick", "seed": seed, "machine": machine_info(), "workloads": {}}
    for workload in workloads:
        wd = fresh_workdir(workload, f"quick-{workload}-{os.getpid()}")
        record["program"] = program_info(wd)
        p = run_pass(workload_steps(workload, seed), wd, expected, tally, subprocess_runner)
        record["workloads"][workload] = p
        shutil.rmtree(wd)
        for s in timed_steps(p):
            print(f"{'ok  ' if not s['problems'] else 'FAIL'} {s['name']:18s} {s['wall_s']:8.3f} s")
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted)
    write_record(f"record-quick-seed{seed}.json", record)
    print(f"failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    final_line(tally, {"failed_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio"}})
    return record


def traced(workload: str, seed: int, expected: dict) -> None:
    sys.path.insert(0, str(SRC))
    import trace_layers  # noqa: E402  (needs SRC on sys.path)

    tag = f"{workload}-{os.getpid()}-trace"
    record = {"mode": "trace", "workload": workload, "seed": seed,
              "machine": machine_info(), "load_before": os.getloadavg()}
    wd = fresh_workdir(workload, tag)
    record["program"] = program_info(wd)
    steps = workload_steps(workload, seed)
    tally = Tally()
    startup = [startup_time(wd) for _ in range(MIN_PASSES)]
    untraced = run_pass(steps, wd, expected, tally, subprocess_runner)
    wd = fresh_workdir(workload, tag)
    report = trace_layers.traced_pass(workload, steps, wd, expected, tally, run_pass)
    layers, layer_samples = trace_layers.layer_metrics(
        expected, lambda text: relabel_graph_text(text, seed), derive_vertex(seed),
        PERP_FIXTURE.read_text(), tally)
    shutil.rmtree(wd)

    startup_s = statistics.median(startup)
    untraced_s = sum(s["wall_s"] for s in timed_steps(untraced))
    net_untraced = untraced_s - len(steps) * startup_s
    traced_s = report["top_level_s"]
    overhead = {
        "traced_commands_s": traced_s,
        "untraced_commands_s": untraced_s,
        "interpreter_start_s": startup_s,
        "untraced_minus_starts_s": net_untraced,
        "overhead_ratio": traced_s / net_untraced - 1,
        "how": "sum of the in-process cli.main spans of the traced pass, divided by "
               "(sum of the subprocess command walls of one untraced pass minus "
               "commands x median fresh 'import dbrg.cli' time), minus 1",
    }
    metrics = {"cli.startup_s": {"value": startup_s, "unit": "s"}, **layers}
    record.update(load_after=os.getloadavg(), startup_samples=startup, untraced_pass=untraced,
                  trace=report, overhead=overhead, layer_samples=layer_samples, metrics=metrics,
                  attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted)
    spans_path = write_record(f"spans-{workload}-seed{seed}.json", {"spans": report.pop("spans")})
    path = write_record(f"record-{workload}-seed{seed}-trace1.json", record)
    print(f"workload {workload} seed {seed}: record {path.relative_to(ROOT)}, "
          f"spans {spans_path.relative_to(ROOT)}")
    print(f"top-level span coverage {report['coverage']:.4f} of traced pass wall "
          f"{report['pass_wall_s']:.3f} s")
    print(f"tracing overhead {overhead['overhead_ratio']:+.4f} ({overhead['how']})")
    for layer, s in sorted(report["self_s"].items()):
        print(f"self time {layer}: {s:.4f} s")
    final_line(tally, metrics)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one checked pass of the workload (all workloads if none given)")
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        check_source()
        expected = json.loads((BENCH / "expected.json").read_text())
        if args.quick:
            quick([args.workload] if args.workload else list(WORKLOADS), args.seed, expected)
        elif args.workload is None:
            raise HarnessError("--workload is required unless --quick is given")
        elif args.trace:
            traced(args.workload, args.seed, expected)
        else:
            measure(args.workload, args.seed, args.seconds, expected)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
