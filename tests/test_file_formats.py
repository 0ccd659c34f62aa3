"""Graph and perp-system files: round trip and mutation fuzz of the parsers.

A serialized file parses back to text that is byte-identical.  Any edit
of a valid file either parses or raises ValueError, and through the CLI
``verify``, ``perp verify`` and ``roundtrip`` give a verdict (0 or 2) or
exit 65 for invalid contents, never an uncaught exception.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from dbrg.bigraph import BipartiteGraph, parse_graph, serialize_graph
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
