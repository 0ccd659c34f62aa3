"""Intersection-array text: round trip and fuzz of the parser."""

from hypothesis import given, settings, strategies as st

from dbrg.params import IntersectionArray

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

lines = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).map(tuple)
arrays = st.builds(IntersectionArray, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                   lines, lines)
# text near the format, so the parser's later branches are reached too
near_format = st.text(alphabet="{};|/,-+ 0123456789\n\t", max_size=40)


@SETTINGS
@given(arrays)
def test_parse_inverts_str(a):
    assert IntersectionArray.parse(str(a)) == a


@SETTINGS
@given(st.one_of(st.text(max_size=40), near_format))
def test_parse_accepts_or_raises_value_error(text):
    try:
        a = IntersectionArray.parse(text)
    except ValueError:
        return
    assert IntersectionArray.parse(str(a)) == a
