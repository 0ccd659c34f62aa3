"""Graph and perp-system files: round trip and mutation fuzz of the parsers.

A serialized file parses back to text that is byte-identical.  Any edit
of a valid file either parses or raises ValueError, and through the CLI
``verify``, ``perp verify`` and ``roundtrip`` give a verdict (0 or 2) or
exit 65 for invalid contents, never an uncaught exception.  The chunked
graph reader, from a string or an open file, gives what a line-at-a-time
reference reader gives: the same graph, or the same message naming the
same first faulty line.
"""

import io
import re
import tracemalloc
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dbrg import bigraph
from dbrg.bigraph import BipartiteGraph, parse_graph, serialize_graph
from dbrg.constructions import cone_graph
from dbrg.cli import main
from dbrg.perpsys import PerpSystem, parse_perp, perp_search, perp_verify, serialize_perp

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# parameters with a quick search; (3, 1, 4, 2) and (3, 1, 4, 4) are over GF(4)
SEARCHED = [(3, 1, 2, 2), (3, 1, 3, 3), (4, 1, 2, 4), (3, 1, 4, 2), (3, 1, 4, 4)]


@st.composite
def bigraphs(draw):
    nb, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, nb - 1), st.integers(0, nc - 1))
    return BipartiteGraph(nb, nc, draw(st.lists(pairs, max_size=nb * nc)))


@cache
def searched_perp_text(params) -> str:
    out = perp_search(*params)
    assert out.status == "found"
    return serialize_perp(out.system)


@SETTINGS
@given(bigraphs())
def test_graph_file_round_trips_byte_identically(g):
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text


@pytest.mark.parametrize("params", SEARCHED)
def test_searched_perp_file_round_trips_byte_identically(params):
    text = searched_perp_text(params)
    res = perp_verify(*parse_perp(text))
    assert isinstance(res, PerpSystem) and serialize_perp(res) == text


# an edit: (position key, kind, character).  Hypothesis favours small
# integers, so the key is scattered over the text by a multiplier rather
# than used as an offset; half the characters are small digits, so some
# edited files still parse
CHARS = st.one_of(st.sampled_from("0123"), st.sampled_from("456789 =,;^\n\r\t-+BCqnkmodulsx"))
EDITS = st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(["insert", "delete", "replace"]),
                           CHARS), min_size=1, max_size=3)


def mutate(text: str, edits) -> str:
    for where, kind, ch in edits:
        i = where * 40503 % max(len(text), 1)
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exit_codes(path, text: str, commands) -> set[int]:
    path.write_text(text)
    return {main([*command, str(path)]) for command in commands}


@SETTINGS
@given(bigraphs(), EDITS)
def test_edited_graph_file_parses_or_exits_65(workdir, g, edits):
    text = mutate(serialize_graph(g), edits)
    try:
        parse_graph(text)
    except ValueError:
        parsed = False
    else:
        parsed = True
    codes = exit_codes(workdir / "g.txt", text, [["verify"], ["roundtrip"]])
    # a file that parses is judged; roundtrip may also reject its header
    assert codes <= {0, 2, 65} if parsed else codes == {65}


def integer(word: str) -> int:
    """ASCII digits after an optional minus sign; int() alone would also
    read "1_0", "+0" and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", word):
        raise ValueError(f"not an integer: {word!r}")
    return int(word)


def reference_parse_graph(text: str) -> BipartiteGraph:
    """The graph-file reader as a loop over lines, one at a time."""
    if not text:
        raise ValueError("empty graph file")
    lines = io.StringIO(text, newline=None)
    head = lines.readline().rstrip("\n")
    header = head.split()
    try:
        if len(header) != 2 or not (header[0].startswith("B=") and header[1].startswith("C=")):
            raise ValueError("not 'B=<nB> C=<nC>'")
        nb, nc = integer(header[0][2:]), integer(header[1][2:])
    except ValueError as exc:
        raise ValueError(f"line 1: bad header {head!r}") from exc
    try:
        bigraph._check_class_sizes(nb, nc)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None
    edges, seen = [], set()
    for no, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {no}: expected '<b> <c>', got {line.strip()!r}")
        try:
            b, c = integer(parts[0]), integer(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {no}: non-integer edge {line.strip()!r}") from exc
        if not (0 <= b < nb and 0 <= c < nc):
            raise ValueError(f"line {no}: edge ({b},{c}) out of range for B={nb} C={nc}")
        edges.append((b, c, no))
    for b, c, no in edges:
        if (b, c) in seen:
            raise ValueError(f"line {no}: duplicate edge '{b} {c}'")
        seen.add((b, c))
    return BipartiteGraph(nb, nc, [(b, c) for b, c, _ in edges])


def as_text_file(text: str) -> io.TextIOWrapper:
    """``text`` as an open text file in universal-newline mode, as ``open`` gives it."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def parse_graph_file(text: str) -> BipartiteGraph:
    return parse_graph(as_text_file(text))


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.nB, g.nC, g.edges


@SETTINGS
@given(bigraphs(), EDITS, st.sampled_from(["\n", "\r\n", "\r"]))
def test_chunked_reader_matches_line_reader(g, edits, newline):
    # blocks of 8 characters and then to a line feed put a block boundary
    # every line or two of a small file
    text = mutate(serialize_graph(g), edits).replace("\n", newline)
    with mock.patch.object(bigraph, "_BLOCK", 8):
        want = parse_outcome(reference_parse_graph, text)
        assert parse_outcome(parse_graph, text) == want
        assert parse_outcome(parse_graph_file, text) == want


# faults for the block reader: each turns the line "<b> <c>" into text
# that the one-call conversion of a block must refuse, to be read line by
# line, or that np.fromstring would read otherwise than the line reader
FAULTS = {
    "leading zeros": lambda b, c: f"00{b} {c}",
    "CR LF": lambda b, c: f"{b} {c}\r",
    "blank line": lambda b, c: f"\n{b} {c}",
    "tab": lambda b, c: f"{b}\t{c}",
    "trailing spaces": lambda b, c: f"{b} {c}  ",
    "leading space": lambda b, c: f" {b} {c}",
    "two spaces": lambda b, c: f"{b}  {c}",
    "plus": lambda b, c: f"+{b} {c}",
    "underscore": lambda b, c: f"{b}_0 {c}",
    "minus zero": lambda b, c: f"-0 {c}",
    "minus": lambda b, c: f"{b} -{c}",
    "20 digits": lambda b, c: f"{b} {c:020d}",
    "19 digits": lambda b, c: f"{b:019d} {c}",
    "20-digit number": lambda b, c: f"{b} {10**19 + c}",
    "beyond uint64": lambda b, c: f"{2**64 + b} {c}",
    "non-ASCII digit": lambda b, c: f"{b} {c}\u0661",
    "fullwidth digit": lambda b, c: f"\uff11 {c}",
    "three words": lambda b, c: f"{b} {c} {c}",
    "one word": lambda b, c: f"{b}",
    "out of range": lambda b, c: f"{b} 9",
}


@SETTINGS
@given(bigraphs(), st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(sorted(FAULTS))),
                            max_size=3), st.integers(1, 24), st.booleans())
def test_block_reader_matches_line_reader_with_faults(g, faults, block, final_newline):
    # small blocks split a file at many line feeds; every fault must give
    # the same graph, or the same first message and line, as the reference
    lines = serialize_graph(g).splitlines()
    for where, fault in faults:
        if g.edges:
            i = where % len(g.edges)
            lines[1 + i] = FAULTS[fault](*g.edges[i])
    text = "\n".join(lines) + ("\n" if final_newline else "")
    with mock.patch.object(bigraph, "_BLOCK", block):
        want = parse_outcome(reference_parse_graph, text)
        assert parse_outcome(parse_graph, text) == want
        assert parse_outcome(parse_graph_file, text) == want


def test_plain_file_is_converted_a_block_at_a_time():
    # no line of a written file goes through the line-by-line path: the
    # header's two integers are the only words it converts alone
    text = serialize_graph(cone_graph(3).graph)
    with mock.patch.object(bigraph, "_integer", wraps=bigraph._integer) as words:
        g = parse_graph(text)
    assert words.call_count == 2 and serialize_graph(g) == text
    with mock.patch.object(bigraph, "_integer", wraps=bigraph._integer) as words:
        parse_graph(text[:-1])  # without its final line feed, the last block goes line by line
    assert 2 < words.call_count < 2 + 2 * bigraph._BLOCK // 4


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_first_faulty_line_wins_across_kinds(newline):
    first_faulty_line_wins(parse_graph, newline)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_first_faulty_line_wins_reading_an_open_file(newline):
    first_faulty_line_wins(parse_graph_file, newline)


def first_faulty_line_wins(parse, newline):
    def text(lines):
        return newline.join(["B=2 C=2", "0 0", *lines]) + newline

    out_of_range, non_integer = "2 0", "0 x"
    with pytest.raises(ValueError, match=r"^line 3: edge \(2,0\) out of range"):
        parse(text([out_of_range, "1 1", non_integer]))
    with pytest.raises(ValueError, match=r"^line 3: non-integer edge '0 x'"):
        parse(text([non_integer, "1 1", out_of_range]))
    # a third word on a line is a fault, also where the words of a chunk
    # fill its b and c places with integers
    with pytest.raises(ValueError, match=r"^line 3: expected '<b> <c>', got '1 0 1'"):
        parse(text(["1 0 1"]))
    # a negative integer, or one beyond int64, is out of range
    with pytest.raises(ValueError, match=r"^line 4: edge \(1,-1\) out of range"):
        parse(text(["1 1", "1 -1", "1 0"]))
    with pytest.raises(ValueError, match=r"^line 4: edge \(1,100000000000000000000\) out of"):
        parse(text(["1 1", f"1 {10**20}", non_integer]))
    # int() reads each of these as 1, but an integer is ASCII digits after
    # an optional minus sign; the lines before them are integer pairs in range
    for word in ("0_1", "+1", "\uff11", "\u0661"):  # fullwidth and Arabic-Indic 1
        with pytest.raises(ValueError, match=rf"^line 4: non-integer edge '1 {re.escape(word)}'"):
            parse(text(["1 1", f"1 {word}", "1 0"]))
    # the header is exactly two words, B= and C= followed by integers
    for head in ("B=1_1 C=2", "B=2 C=+2", "B=\uff12 C=2", "B=2 C=2 extra", "2 2"):
        with pytest.raises(ValueError, match=rf"^line 1: bad header '{re.escape(head)}'"):
            parse(newline.join([head, "0 0"]) + newline)
    # both faults in the second chunk of lines, behind a blank line; repeated
    # edges are named only once every line has been read
    good = [f"{i % 2} {i // 2 % 2}" for i in range(bigraph._CHUNK + 30)]
    lines = good[:1000] + [""] + good[1000:1028] + [out_of_range] + good[1028:1100] + [non_integer]
    with pytest.raises(ValueError, match=r"^line 1032: edge \(2,0\) out of range"):
        parse(text(lines))


def test_parse_peak_memory_is_bounded_by_a_chunk():
    # the cone q=3 file has 29161 lines; parsing it with the line-at-a-time
    # reader peaked at 4.22 MB of traced memory (Python 3.11, numpy 2.4),
    # and collecting every word before converting peaks near 8.9 MB
    text = serialize_graph(cone_graph(3).graph)
    assert text.count("\n") == 29161
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert serialize_graph(g) == text
    assert peak < 4_200_000


def test_parse_from_an_open_file_holds_no_copy_of_it(tmp_path):
    # read from the file, the cone q=3 graph peaked at 2.56 MB of traced
    # memory (Python 3.11, numpy 2.4); the string above adds its UCS-4 copy
    text = serialize_graph(cone_graph(3).graph)
    path = tmp_path / "cone3.graph"
    path.write_text(text)
    with open(path) as lines:
        parse_graph(lines)
    with open(path) as lines:
        tracemalloc.start()
        try:
            g = parse_graph(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert serialize_graph(g) == text
    assert peak < 3_000_000


@SETTINGS
@given(st.sampled_from(SEARCHED), EDITS)
def test_edited_perp_file_parses_or_exits_65(workdir, params, edits):
    text = mutate(searched_perp_text(params), edits)
    try:
        parsed = parse_perp(text)
    except ValueError:
        parsed = None
    codes = exit_codes(workdir / "s.perp", text, [["perp", "verify"], ["roundtrip"]])
    if parsed is None:
        assert codes == {65}
    else:
        try:
            perp_verify(*parsed)
        except ValueError:
            assert 65 in codes
        assert codes <= {0, 2, 65}


@pytest.mark.parametrize("members,message", [
    ("1,0,0;0,1,0\n1,0,0;0,0_1,0\n", "line 3: coordinate '0_1' is not written in the digits "
                                      "'0123456789'"),
    ("1,0,0;+0,1,0\n", "line 2: coordinate '+0' is not written in the digits '0123456789'"),
    ("1,0,0;0,1,0\n1,0,0;1,0,0\n", "line 3: linearly dependent rows span dimension 1"),
    ("1,0,0;0,0,0\n1,0,0;0,1,0\n", "line 2: linearly dependent rows span dimension 1"),
    ("1,0,0;0,1,0\n\n1,1,0;0,1,0\n", "line 4: repeats the member on line 2"),
    ("1,0,0;0,1,0\n1,0,0\n", "line 3: dimension 1, not 2 as on line 2"),
])
def test_perp_file_member_faults_name_their_line(workdir, capsys, members, message):
    # rows spanning less than their count, the same plane twice, or a member
    # of another dimension: the family check in perp_verify would reject
    # each without naming a line
    text = "q=2^1 modulus=0,1 n=3 k=1\n" + members
    with pytest.raises(ValueError) as err:
        parse_perp(text)
    assert str(err.value) == message
    capsys.readouterr()
    assert exit_codes(workdir / "m.perp", text, [["perp", "verify"], ["roundtrip"]]) == {65}
    assert capsys.readouterr().err == f"invalid input: {message}\n" * 2


@pytest.mark.parametrize("word", ["0_0", "0b0", "+0", "0B0", "\uff10"])
def test_perp_coordinates_over_gf8_are_base_2_digits(workdir, capsys, word):
    # int(word, 2) reads each of these as 0, and the file would verify, but
    # it would not round-trip: a coordinate of GF(8) is written as the
    # base-2 digits of its polynomial coefficients, and nothing else
    lines = searched_perp_text((3, 1, 8, 2)).splitlines(keepends=True)
    assert lines[1] == "1,0,0;0,1,0\n"
    lines[1] = f"1,{word},0;0,1,0\n"
    message = f"line 2: coordinate {word!r} is not written in the digits '01'"
    with pytest.raises(ValueError) as err:
        parse_perp("".join(lines))
    assert str(err.value) == message
    capsys.readouterr()
    assert exit_codes(workdir / "g8.perp", "".join(lines), [["perp", "verify"], ["roundtrip"]]) == {65}
    assert capsys.readouterr().err == f"invalid input: {message}\n" * 2
