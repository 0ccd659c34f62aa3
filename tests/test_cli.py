"""CLI subcommands, exit codes, artifacts, and determinism."""

import json
import os
import subprocess
import sys
import time
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


def test_verify_disconnected_graph_is_a_verdict(tmp_path, capsys):
    # B1 and C1 are isolated: a well-formed file, not distance-biregular
    path = tmp_path / "apart.graph"
    path.write_text("B=2 C=2\n0 0\n")
    assert main(["verify", str(path)]) == 2
    payload = last_json(capsys)
    assert not payload["distance_biregular"]
    assert payload["witness"] == ["disconnected", 0, 1]


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


def test_derive_from_parent_that_is_not_distance_biregular(tmp_path, capsys):
    # a disconnected parent is a negative verdict, not invalid input
    path = tmp_path / "apart.graph"
    path.write_text("B=2 C=2\n0 0\n1 1\n")
    rc = main(["derive", str(path), "--vertex", "B:0", "--out", str(tmp_path / "nope")])
    assert rc == 2
    payload = last_json(capsys)
    assert (payload["ok"], payload["condition"]) == (False, "parent_not_dbrg")
    assert payload["detail"] == "parent_not_dbrg: ('disconnected', 0, 1)"
    assert not (tmp_path / "nope.graph").exists()


@pytest.mark.parametrize("vertex", ["B:\u0663", "B:\u00b2", "B:", "X:0", "B:-1", "B:1_0"])
def test_derive_vertex_takes_a_side_and_ascii_digits(tmp_path, capsys, vertex):
    # int() reads any script's decimal digits, so B:<Arabic-Indic three> was
    # vertex B:3, and str.isdigit() holds for a superscript two that int()
    # refuses; each is invalid input naming the --vertex form
    path = tmp_path / "apart.graph"
    path.write_text("B=2 C=2\n0 0\n1 1\n")
    rc = main(["derive", str(path), "--vertex", vertex, "--out", str(tmp_path / "nope")])
    assert rc == 65
    assert "invalid input: --vertex must look like B:3 or C:17" in capsys.readouterr().err


def test_perp_search_budget_exit_code(capsys):
    rc = main(["perp", "search", "--n", "6", "--k", "2", "--q", "3", "--d", "3",
               "--budget-nodes", "1000"])
    assert rc == 3
    assert last_json(capsys)["status"] == "budget"


@pytest.mark.parametrize("option,value,name", [
    ("--budget-seconds", "nan", "budget_seconds"),
    ("--budget-seconds", "inf", "budget_seconds"),
    ("--budget-seconds", "-1", "budget_seconds"),
    ("--budget-nodes", "-5", "budget_nodes"),
])
def test_perp_search_unbounded_budget_exits_65(capsys, option, value, name):
    # a NaN or infinite time budget never ran out, and a negative one
    # reported an exhausted budget instead of an invalid argument
    rc = main(["perp", "search", "--n", "6", "--k", "2", "--q", "3", "--d", "3", option, value])
    assert rc == 65
    assert f"invalid input: {name} must be" in capsys.readouterr().err


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
    # a valid array but for a non-ASCII digit, an underscore or a plus sign
    ('{"rows": [{"array": "{\u0666;1,2,10,6 | 16;1,4,5,16}", "status": "exists"}]}',
     "cannot parse intersection array"),
    ('{"rows": [{"array": "{6;1,2,1_0,6 | 16;1,4,5,16}", "status": "exists"}]}',
     "cannot parse intersection array"),
    ('{"rows": [{"array": "{6;1,2,10,6 | +16;1,4,5,16}", "status": "exists"}]}',
     "cannot parse intersection array"),
    # c1 != 1, c4 != k and c2 > k: each array must be valid as a whole
    ('{"rows": [{"array": "{6;2,2,10,6 | 16;1,4,5,16}", "status": "exists"}]}',
     "B-line must start with c_1 = 1"),
    ('{"rows": [{"array": "{6;1,2,10,5 | 16;1,4,5,16}", "status": "exists"}]}',
     "final c of B-line must equal 6"),
    ('{"rows": [{"array": "{6;1,7,10,6 | 16;1,4,5,16}", "status": "exists"}]}',
     "c_2^B = 7 outside [1, 6)"),
    ('{"rows": [{"array": "{6;1,2,10,6 | 16;1,4,5,16}", "status": "maybe"}]}', "'maybe' invalid"),
    ('{"rows": [{"status": "exists"}]}', "malformed catalog"),
    ('{"table": []}', "malformed catalog"),
    ('{"rows": [7]}', "malformed catalog"),
    ('{"rows": [{"array": "{6;1,2,10,6 | 16;1,4,5,16}", "status": "exists"}, '
     '{"array": "{16;1,4,5,16 | 6;1,2,10,6}", "status": "nonexistent"}]}',
     "malformed catalog: {6;1,2,10,6 | 16;1,4,5,16} listed twice"),
    ("not json", "invalid input: malformed catalog: JSONDecodeError"),
])
def test_catalog_bad_file_exits_65(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["catalog", "--max-side", "64", "--catalog", str(path)]) == 65
    assert message in capsys.readouterr().err


def test_catalog_nested_too_deep_exits_65(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["catalog", "--max-side", "64", "--catalog", str(path)]) == 65
    assert "invalid input: malformed catalog: RecursionError" in capsys.readouterr().err


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


def _fresh_interpreter(code: str, cwd: Path, timeout: float | None = None) -> str:
    """Stripped stdout of ``code`` run by a new interpreter in ``cwd``."""
    src = str(Path(dbrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, timeout=timeout,
                          capture_output=True, text=True, check=True).stdout.strip()


BIG_Q = "1000000000000000003"  # a prime far beyond the 2^16 bound on field orders


def test_huge_field_order_exits_65_quickly(tmp_path):
    # the 2^16 bound on field orders is checked before any trial division
    # of q or power p**t, so each command fails at once
    for name, q in (("prime.perp", f"{BIG_Q}^1"), ("power.perp", "2^1000000000000")):
        (tmp_path / name).write_text(f"q={q} modulus=0,1 n=3 k=1\n0,1,0;0,0,1\n")
    code = ("import contextlib, io, json, time\n"
            "from dbrg.cli import main\n"
            "for argv in (['perp', 'search', '--n', '3', '--k', '1', '--q', '%s', '--d', '2'],\n"
            "             ['construct', 'bi-grassmann', '--n', '4', '--k', '1', '--q', '%s',\n"
            "              '--out', 'x'],\n"
            "             ['perp', 'verify', 'prime.perp'], ['perp', 'verify', 'power.perp']):\n"
            "    err, t0 = io.StringIO(), time.monotonic()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        rc = main(argv)\n"
            "    print(json.dumps([rc, time.monotonic() - t0, err.getvalue()]))\n") % (BIG_Q, BIG_Q)
    runs = [json.loads(line) for line in _fresh_interpreter(code, tmp_path, 60).splitlines()]
    assert len(runs) == 4
    for i, (rc, seconds, err) in enumerate(runs):
        assert rc == 65 and seconds < 5
        # a perp file's refused field is a fault of its header, line 1
        prefix = "line 1: bad header " if i >= 2 else "field order q="
        assert err.startswith(f"invalid input: {prefix}") and "field order q=" in err
        assert "exceeds supported bound" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["power.perp", "prime.perp"]


@pytest.mark.parametrize("layer,call,argv", [
    ("bigraph", "dbrg_check", ["verify", "{graph}"]),
    ("perpsys", "perp_search", ["perp", "search", "--n", "3", "--k", "1", "--q", "2",
                                "--d", "2"]),
    ("perpsys", "perp_verify", ["perp", "verify", "{perp}"]),
])
def test_memory_error_exits_65(tmp_path, capsys, monkeypatch, layer, call, argv):
    # a file or parameters whose arrays cannot be allocated (a dense N of
    # 74.5 GiB, a search table of terabytes) is invalid input; the layer
    # call raises here as numpy or a list would, with no real allocation
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    graph, perp = tmp_path / "k22.graph", tmp_path / "mixed.perp"
    graph.write_text("B=2 C=2\n0 0\n0 1\n1 0\n1 1\n")
    perp.write_text(MIXED_PERP)
    monkeypatch.setattr(f"dbrg.{layer}.{call}", too_large)
    assert main([a.format(graph=graph, perp=perp) for a in argv]) == 65
    captured = capsys.readouterr()
    assert captured.err == "invalid input: too large: Unable to allocate 74.5 GiB for an array\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["complete-bipartite", "--k", "100000", "--l", "100000"],
    ["bi-johnson", "--n", "40", "--k", "19"],
    ["bi-grassmann", "--n", "8", "--k", "1", "--q", "16"],
    ["hyperoval-affine", "--q", "128"],
])
def test_oversized_construct_exits_65_at_once(tmp_path, capsys, argv):
    # sizes whose graph would pass the builders' edge bound are refused
    # before anything is built, and no file is written
    t0 = time.monotonic()
    assert main(["construct", *argv, "--out", str(tmp_path / "g")]) == 65
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: too large: a graph of at least ")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_importing_the_cli_loads_no_layer(tmp_path):
    # each command imports the layers it calls, when it runs
    code = ("import sys\n"
            "import dbrg.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('dbrg')),\n"
            "      'numpy' in sys.modules)\n")
    assert _fresh_interpreter(code, tmp_path) == "['dbrg', 'dbrg.cli'] False"


def test_feasibility_commands_leave_numpy_unimported(tmp_path):
    # the feasibility layer is integer and Fraction work: starting numpy
    # would add a fifth of a second to every run, and dataclasses (with
    # inspect) or importlib.resources more than the enumeration itself.
    # The modules the two commands add are compared, since a site hook
    # may load importlib.resources before any of them runs
    code = ("import contextlib, io, sys\n"
            "from dbrg.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['feas', 'enumerate', '--max-side', '300', '--out', 'rows.csv',\n"
            "                   '--json', 'rows.json']),\n"
            "             main(['catalog', '--max-side', '300', '--out', 'catalog.json'])]\n"
            "added = set(sys.modules) - before\n"
            "from dbrg.params import perp_params, perp_srg_params\n"
            "print(codes, perp_params(6, 2, 3, 3).s, perp_srg_params(6, 2, 3, 3).tuple4(),\n"
            "      'numpy' in sys.modules, sorted(m for m in added if m.split('.')[0] in\n"
            "      ('numpy', 'dataclasses', 'inspect') or m.startswith('importlib.resources')))\n")
    assert _fresh_interpreter(code, tmp_path) == "[0, 0] 21 (729, 560, 433, 420) False []"


def _importtime_listing(args: list[str], cwd: Path) -> set[str]:
    """The modules ``python -X importtime`` lists for ``args``."""
    src = str(Path(dbrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    err = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60).stderr
    return {line.split("|")[-1].strip() for line in err.splitlines()
            if line.startswith("import time:")}


def test_perp_search_and_verify_load_no_numpy_dataclasses_or_fractions(tmp_path):
    # the search, field and perp-file layers are integer work on Python
    # ints: numpy would cost 70-100 ms of a 30 ms search set-up, and
    # fractions (with decimal and numbers) is needed only by the
    # feasibility rules; modules a bare interpreter lists do not count
    fixture = Path(dbrg.__file__).resolve().parents[2] / "bench" / "data" / "dual_hyperoval_q8.perp"
    bare = _importtime_listing(["-c", "pass"], tmp_path)
    added = {
        "search": _importtime_listing(["-m", "dbrg.cli", "perp", "search", "--n", "7", "--k", "3",
                                       "--q", "2", "--d", "2", "--budget-nodes", "1"], tmp_path),
        "verify": _importtime_listing(["-m", "dbrg.cli", "perp", "verify", str(fixture)], tmp_path),
    }
    assert "dbrg.perpsys" in added["search"] and "dbrg.perpsys" in added["verify"]
    forbidden = {cmd: sorted(m for m in listed - bare if m.split(".")[0] in
                             ("numpy", "dataclasses", "fractions", "decimal", "numbers"))
                 for cmd, listed in added.items()}
    assert forbidden == {"search": [], "verify": []}


def test_construct_and_derive_load_neither_feasibility_nor_perp_search(tmp_path):
    # the builders and the derived graph need the graph layers and the
    # shared parameter records, not the enumeration or the perp search
    code = ("import contextlib, io, sys\n"
            "from dbrg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['construct', 'cone', '--q', '2', '--out', 'cone']),\n"
            "             main(['derive', 'cone.graph', '--vertex', 'C:0', '--out', 'd'])]\n"
            "print(codes, [m for m in ('dbrg.feasibility', 'dbrg.perpsys') if m in sys.modules])\n")
    assert _fresh_interpreter(code, tmp_path) == "[0, 2] []"


def test_numpy_commands_load_no_dataclasses(tmp_path):
    # the numpy layers' records are NamedTuples and their families plain
    # classes, so the cone build, a bare-file verify and a perp verify add
    # no dataclasses module to those a bare interpreter has
    code = ("import contextlib, io, sys\n"
            "from dbrg.cli import main\n"
            "from dbrg.perpsys import perp_search, serialize_perp\n"
            "open('s.perp', 'w').write(serialize_perp(perp_search(3, 1, 4, 2).system))\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['construct', 'cone', '--q', '2', '--out', 'cone']),\n"
            "             main(['verify', 'cone.graph']), main(['perp', 'verify', 's.perp'])]\n"
            "print(codes, sorted(m for m in set(sys.modules) - before\n"
            "                    if m.split('.')[0] == 'dataclasses'), 'dataclasses' in sys.modules)\n")
    assert _fresh_interpreter(code, tmp_path) == "[0, 0, 0] [] False"


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


@pytest.mark.parametrize("header", [
    "q=2^3 modulus=1,1,0,1 n=3 k=2 k=1",  # a repeated key
    "q=2^3 modulus=1,1,0,1 n=3 k=1 extra=zz",  # an unknown key
])
def test_ambiguous_perp_header_exits_65(tmp_path, capsys, header):
    # the body is the dual hyperoval system of GF(8), which verifies under
    # its own header (k=1); neither k value may be picked, and no key
    # ignored, so every command that reads the file refuses it
    from dbrg.geometry import dualize, hyperoval
    from dbrg.perpsys import perp_verify, serialize_perp

    fam = dualize(hyperoval(8))
    text = serialize_perp(perp_verify(fam.ctx, 3, 1, fam.members))
    assert text.startswith("q=2^3 modulus=1,1,0,1 n=3 k=1\n")
    perp = tmp_path / "ambiguous.perp"
    perp.write_text(header + text[text.index("\n"):])
    gd = str(tmp_path / "gd")
    for argv in (["perp", "verify", str(perp)], ["roundtrip", str(perp)],
                 ["construct", "gen-delorme", "--perp", str(perp), "--out", gd]):
        assert main(argv) == 65
        captured = capsys.readouterr()
        assert captured.err == (f"invalid input: line 1: bad header {header!r}: "
                                "a key is repeated, unknown or missing\n")
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ambiguous.perp"]


@pytest.mark.parametrize("modulus", ["3,1,0,1", "11,1,0,21"])
def test_perp_modulus_coefficient_outside_the_prime_exits_65(tmp_path, capsys, modulus):
    # mod 2 these are the fixture's x^3 + x + 1, so the file would verify
    # and build its graph, but it would not round-trip: every command that
    # reads the file refuses a coefficient outside 0..p-1
    fixture = Path(dbrg.__file__).resolve().parents[2] / "bench" / "data" / "dual_hyperoval_q8.perp"
    text = fixture.read_text()
    assert text.startswith("q=2^3 modulus=1,1,0,1 n=3 k=1\n")
    perp = tmp_path / "bad.perp"
    head = f"q=2^3 modulus={modulus} n=3 k=1"
    perp.write_text(head + text[text.index("\n"):])
    gd = str(tmp_path / "gd")
    for argv in (["perp", "verify", str(perp)], ["roundtrip", str(perp)],
                 ["construct", "gen-delorme", "--perp", str(perp), "--out", gd]):
        assert main(argv) == 65
        captured = capsys.readouterr()
        assert captured.err == (f"invalid input: line 1: bad header {head!r}: modulus "
                                f"({modulus.replace(',', ', ')}) has a coefficient outside 0..1\n")
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.perp"]


def test_feas_enumerate_json_bytes(tmp_path, capsys):
    from dbrg.feasibility import enumerate_feasible, rows_to_json

    path = tmp_path / "rows.json"
    assert main(["feas", "enumerate", "--max-side", "200", "--json", str(path)]) == 0
    assert last_json(capsys)["rows"] == len(enumerate_feasible(200))
    assert path.read_text() == rows_to_json(enumerate_feasible(200))


def _command(args: list[str], cwd: Path, unbuffered: bool, stderr=subprocess.PIPE,
             **kwargs) -> subprocess.CompletedProcess:
    """``python -m dbrg.cli args`` in a new process in ``cwd``, with
    ``PYTHONUNBUFFERED`` set or unset."""
    src = str(Path(dbrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "dbrg.cli", *args], cwd=cwd, env=env,
                          stderr=stderr, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("args", [["feas", "enumerate", "--max-side", "100"],
                                  ["construct", "cone", "--q", "2", "--out", "c2"]])
def test_a_stdout_that_fails_exits_66(tmp_path, args, sink, unbuffered):
    # a buffered stdout fails only in the flush after main returns, which
    # an interpreter at exit reports as "Exception ignored" and exit 120
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full")
        with open(sink, "w") as out:
            proc = _command(args, tmp_path, unbuffered, stdout=out)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _command(args, tmp_path, unbuffered, stdout=write)
        finally:
            os.close(write)
    assert proc.returncode == 66, proc.stderr
    assert proc.stderr.startswith("I/O error: [Errno ") and "Exception" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [["verify", "missing.graph"],
                                  ["construct", "cone", "--q", "2", "--out", "missing/c2"],
                                  ["feas", "enumerate", "--max-side", "100"]])
def test_a_stderr_that_fails_exits_66(tmp_path, args, unbuffered):
    # the "I/O error" message of a failed read, write or stdout fails in
    # turn: an OSError that left main or run would make the interpreter
    # exit 1 or 120
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        proc = _command(args, tmp_path, unbuffered, stderr=full, stdout=full)
    assert proc.returncode == 66


def test_ending_by_os_exit_loses_no_output(tmp_path, capsys, monkeypatch):
    # each command in a new process, stdout a pipe and buffered, against
    # main() in this one: the same summary line and byte-identical files
    commands = [
        (["construct", "cone", "--q", "2", "--out", "c2"], ["c2.graph", "c2.json"]),
        (["verify", "c2.graph"], []),
        (["perp", "search", "--n", "3", "--k", "1", "--q", "4", "--d", "2", "--out", "s.perp"],
         ["s.perp"]),
        (["feas", "enumerate", "--max-side", "1300", "--out", "rows.csv", "--json", "rows.json"],
         ["rows.csv", "rows.json"]),
    ]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    monkeypatch.chdir(here)
    for args, files in commands:
        proc = _command(args, fresh, unbuffered=False, stdout=subprocess.PIPE)
        code = main(args)
        assert (proc.returncode, proc.stderr) == (code, "")
        line = proc.stdout.splitlines()[-1]
        assert json.loads(line) and line == capsys.readouterr().out.splitlines()[-1]
        for name in files:
            assert (fresh / name).read_bytes() == (here / name).read_bytes(), name
