"""The bench tool, ``tools/bench_pairs.py``, loaded from its path."""

import importlib.util
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_every_case_code_compiles():
    steps = [(f"{case}.{name}", argv) for cases in bench_pairs.CASES.values()
             for case, steps in cases.items() for name, argv in steps]
    code = [(name, argv[1]) for name, argv in steps if argv[0] == "-c"]
    assert len(code) == 15
    for name, src in code:
        compile(src, name, "exec")


def test_aggregate_compares_floats_and_flags_a_changed_digest():
    runs = {side: [{"ms": ms, "nodes_per_s": 1e3 / ms, "nodes": 7, "sha256": "ab", "kind": "x"}
                   for ms in values]
            for side, values in (("parent", [2.0, 3.0, 4.0]), ("change", [1.0, 3.5, 2.0]))}
    runs["change"][1]["sha256"] = "cd"
    # a key the change drops or adds reads as a difference, not an error
    del runs["change"][2]["kind"]
    runs["change"][0]["added_s"] = 0.5
    got = bench_pairs.aggregate(runs)
    assert got["ms"]["parent"]["median"] == 3.0 and got["ms"]["change"]["median"] == 2.0
    assert got["ms"]["change_better"] == "2/3"
    # a rate is higher-is-better: the same two pairs are the change's wins
    assert got["nodes_per_s"]["change_better"] == "2/3"
    assert got["nodes"] == {"value": 7, "same_in_every_run": True}
    assert got["sha256"] == {"value": "ab", "same_in_every_run": False}
    assert got["kind"] == {"value": "x", "same_in_every_run": False}
    assert got["added_s"] == {"value": None, "same_in_every_run": False}


def test_seeds_are_read_off_the_record_number(capsys):
    assert bench_pairs.seeds(Path("BENCH_34.json")) == list(range(341, 351))
    assert bench_pairs.main(["--parent", ".", "--change", ".", "--out", "x.json",
                             "--cases", "fields"]) == 64
    assert "BENCH_<n>.json" in capsys.readouterr().err


def test_probe_runs_through_the_step_runner():
    (_, argv), = bench_pairs.CASES["perp"]["probe_7_3_2_2"]
    with tempfile.TemporaryDirectory() as tmp:
        got = bench_pairs.step(ROOT, argv, tmp)
    assert got["nodes"] == 1 and 0 < got["setup_s"] <= got["total_s"]
    assert 0 < got["wall_s"] < 2 and got["peak_rss_mb"] > 0
