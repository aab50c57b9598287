"""SVG text escaping in the report renderer."""

from xml.sax.saxutils import escape

from hypothesis import given, settings
from hypothesis import strategies as st

from conceptscope.report import _escape

# The characters escape() rewrites or could confuse with an entity, mixed
# with any other character, non-ASCII included.
text_st = st.text(alphabet=st.one_of(st.sampled_from("&<>\"';#"), st.characters()),
                  max_size=40)


@settings(max_examples=500, deadline=None)
@given(text_st)
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_escape_replaces_ampersand_first():
    assert _escape("a<&>b") == "a&lt;&amp;&gt;b"
    assert _escape("&lt;") == "&amp;lt;"
