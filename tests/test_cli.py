"""CLI subcommands, exit codes, artifacts, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dbrg
from dbrg.cli import main


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_construct_and_verify(tmp_path, capsys):
    prefix = str(tmp_path / "k23")
    rc = main(["construct", "complete-bipartite", "--k", "2", "--l", "3",
               "--out", prefix])
    assert rc == 0
    payload = last_json(capsys)
    assert payload["verified"] and payload["predicted"] == "{2;1,2 | 3;1,3}"
    rc = main(["verify", prefix + ".graph"])
    assert rc == 0
    assert last_json(capsys)["array"] == "{2;1,2 | 3;1,3}"


def test_verify_rejects_broken_graph(tmp_path, capsys):
    # complete bipartite with one edge removed is no longer biregular
    path = tmp_path / "broken.graph"
    edges = [(b, c) for b in range(3) for c in range(4)][:-1]
    lines = ["B=3 C=4"] + [f"{b} {c}" for b, c in edges]
    path.write_text("\n".join(lines) + "\n")
    rc = main(["verify", str(path)])
    assert rc == 2
    payload = last_json(capsys)
    assert not payload["distance_biregular"]
    assert payload["witness"] == ["local", 0, 1, 3, 6]


def test_gen_delorme_pipeline(tmp_path, capsys):
    perp = str(tmp_path / "sys.perp")
    rc = main(["perp", "search", "--n", "3", "--k", "1", "--q", "4", "--d", "2",
               "--out", perp])
    assert rc == 0
    assert last_json(capsys)["s"] == 6
    rc = main(["perp", "verify", perp])
    assert rc == 0
    assert last_json(capsys)["d"] == 2
    prefix = str(tmp_path / "row1")
    rc = main(["construct", "gen-delorme", "--perp", perp, "--out", prefix])
    assert rc == 0
    payload = last_json(capsys)
    assert payload["measured"] == "{6;1,2,10,6 | 16;1,4,5,16}"
    assert (payload["nB"], payload["nC"]) == (64, 24)
    # derived local graph at a point vertex
    rc = main(["derive", prefix + ".graph", "--vertex", "B:0",
               "--out", str(tmp_path / "derived")])
    assert rc == 0
    payload = last_json(capsys)
    assert payload["gamma3"] == 2
    assert payload["measured"] == "{6;1,2,5,6 | 6;1,2,5,6}"


def test_derive_hypothesis_failure(tmp_path, capsys):
    prefix = str(tmp_path / "bj")
    main(["construct", "bi-johnson", "--n", "6", "--k", "2", "--out", prefix])
    capsys.readouterr()
    rc = main(["derive", prefix + ".graph", "--vertex", "C:0",
               "--out", str(tmp_path / "nope")])
    assert rc == 2
    assert last_json(capsys)["condition"] == "delta3_nonzero"


def test_perp_search_budget_exit_code(capsys):
    rc = main(["perp", "search", "--n", "6", "--k", "2", "--q", "3", "--d", "3",
               "--budget-nodes", "1000"])
    assert rc == 3
    assert last_json(capsys)["status"] == "budget"


def test_feas_enumerate_and_catalog(tmp_path, capsys):
    csv_path = str(tmp_path / "table.csv")
    rc = main(["feas", "enumerate", "--max-side", "64", "--out", csv_path])
    assert rc == 0
    text = open(csv_path).read()
    assert text.splitlines()[0].startswith("k,c2B,c3B")
    assert "6,2,10,16,4,5,64,24" in text
    rc = main(["catalog", "--max-side", "64", "--out", str(tmp_path / "annotated.json")])
    assert rc == 0
    payload = last_json(capsys)
    assert payload["matched"] >= 1 and payload["missing"] == 38 - payload["matched"]
    doc = json.loads((tmp_path / "annotated.json").read_text())
    assert any(r["catalog_status"] == "exists" for r in doc["rows"])


def test_roundtrip_and_parse_errors(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    main(["construct", "complete-bipartite", "--k", "2", "--l", "3", "--out", prefix])
    capsys.readouterr()
    assert main(["roundtrip", prefix + ".graph"]) == 0
    bad = tmp_path / "bad.graph"
    bad.write_text("B=2 C=2\n0 x\n")
    assert main(["verify", str(bad)]) == 65
    bad.write_text("B=-1 C=2\n")
    assert main(["verify", str(bad)]) == 65
    bad.write_text("B=100000000000 C=1\n")
    assert main(["verify", str(bad)]) == 65
    bad.write_text("B=2 C=2\n0 1\n0 1\n")
    assert main(["verify", str(bad)]) == 65
    assert main(["verify", str(tmp_path / "missing.graph")]) == 66


@pytest.mark.parametrize("argv", [
    ["complete-bipartite", "--k", "2"],
    ["bi-johnson", "--n", "6"],
    ["bi-grassmann", "--n", "4", "--k", "1"],
    ["gen-delorme"],
    ["cone"],
    ["hyperoval-affine"],
])
def test_construct_missing_family_arguments(tmp_path, capsys, argv):
    rc = main(["construct", *argv, "--out", str(tmp_path / "x")])
    assert rc == 64
    assert "requires --" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_usage_errors():
    assert main(["no-such-command"]) == 64
    assert main([]) == 64
    assert main(["--threads", "2", "feas", "enumerate", "--max-side", "64"]) == 64
    # the search is deterministic: no seed option
    assert main(["construct", "cone", "--q", "2", "--out", "x", "--seed", "1"]) == 64
    assert main(["perp", "search", "--n", "3", "--k", "1", "--q", "2", "--d", "2",
                 "--seed", "1"]) == 64


@pytest.mark.parametrize("text,message", [
    ('{"rows": [{"array": "{6;1,2,x,6 | 16;1,4,5,16}", "status": "exists"}]}',
     "cannot parse intersection array '{6;1,2,x,6 | 16;1,4,5,16}'"),
    ('{"rows": [{"array": "{6 | 16;1,4,5,16}", "status": "exists"}]}',
     "cannot parse intersection array"),
    ('{"rows": [{"array": "{2;1,2 | 3;1,3}", "status": "exists"}]}', "covering radius 4"),
    ('{"rows": [{"array": "{6;1,2,10,6 | 16;1,4,5,16}", "status": "maybe"}]}', "'maybe' invalid"),
    ('{"rows": [{"status": "exists"}]}', "malformed catalog"),
    ('{"table": []}', "malformed catalog"),
    ('{"rows": [7]}', "malformed catalog"),
    ('{"rows": [{"array": "{6;1,2,10,6 | 16;1,4,5,16}", "status": "exists"}, '
     '{"array": "{16;1,4,5,16 | 6;1,2,10,6}", "status": "nonexistent"}]}',
     "malformed catalog: {6;1,2,10,6 | 16;1,4,5,16} listed twice"),
    ("not json", "invalid input"),
])
def test_catalog_bad_file_exits_65(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["catalog", "--max-side", "64", "--catalog", str(path)]) == 65
    assert message in capsys.readouterr().err


def test_determinism(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        main(["construct", "cone", "--q", "2", "--out", prefix])
    assert open(a + ".graph").read() == open(b + ".graph").read()
    ja = json.loads(open(a + ".json").read())
    jb = json.loads(open(b + ".json").read())
    ja["graph_file"] = jb["graph_file"] = ""
    assert ja == jb


def test_perp_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique and np.setdiff1d import numpy.ma (~13 ms); the perp
    # commands de-duplicate by sorting instead.  A fresh interpreter
    # shows which modules the commands themselves import.
    from dbrg.geometry import dualize, hyperoval
    from dbrg.perpsys import perp_verify, serialize_perp

    fam = dualize(hyperoval(8))
    (tmp_path / "dh8.perp").write_text(serialize_perp(perp_verify(fam.ctx, 3, 1, fam.members)))
    code = ("import contextlib, io, sys\n"
            "from dbrg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['perp', 'verify', 'dh8.perp']),\n"
            "             main(['construct', 'gen-delorme', '--perp', 'dh8.perp', '--out', 'gd'])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
    src = str(Path(dbrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[0, 0] False"


MIXED_PERP = "q=2^1 modulus=0,1 n=3 k=1\n0,1,0;0,0,1\n1,0,0;0,0,1\n"  # two planes of F_2^3


def test_roundtrip_of_searched_perp_file(tmp_path, capsys):
    perp = str(tmp_path / "sys.perp")
    assert main(["perp", "search", "--n", "3", "--k", "1", "--q", "4", "--d", "2",
                 "--out", perp]) == 0
    capsys.readouterr()
    assert main(["roundtrip", perp]) == 0
    assert last_json(capsys) == {"command": "roundtrip", "file": perp, "identical": True}


def test_mixed_multiplicity_file_is_a_verdict(tmp_path, capsys):
    # the shared vector (0,0,1) is covered twice, the others once
    perp = tmp_path / "mixed.perp"
    perp.write_text(MIXED_PERP)
    detail = "vector covered 1 times, elsewhere 2"
    assert main(["roundtrip", str(perp)]) == 2
    assert last_json(capsys) == {"command": "roundtrip", "detail": detail, "ok": False}
    assert main(["perp", "verify", str(perp)]) == 2
    assert last_json(capsys) == {"command": "perp-verify", "detail": detail,
                                 "kind": "mixed_multiplicity", "ok": False}
    assert main(["construct", "gen-delorme", "--perp", str(perp),
                 "--out", str(tmp_path / "gd")]) == 2
    assert last_json(capsys) == {
        "command": "construct", "ok": False,
        "detail": f"perp file does not verify: mixed_multiplicity: {detail}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mixed.perp"]


def test_feas_enumerate_json_bytes(tmp_path, capsys):
    from dbrg.feasibility import enumerate_feasible, rows_to_json

    path = tmp_path / "rows.json"
    assert main(["feas", "enumerate", "--max-side", "200", "--json", str(path)]) == 0
    assert last_json(capsys)["rows"] == len(enumerate_feasible(200))
    assert path.read_text() == rows_to_json(enumerate_feasible(200))
