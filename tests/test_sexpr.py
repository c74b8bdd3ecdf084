import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill import gloss as G
from gapfill import prefsem as P
from gapfill import sexpr


class Bad(Exception):
    pass


class TestReadAll:
    def test_lists_strings_and_symbols(self):
        text = '(GLOSS ((OP1 "a b") (OP2 *OR*)))  x'
        assert sexpr.read_all(text, Bad) == [
            ["GLOSS", [["OP1", ('"', "a b")], ["OP2", "*OR*"]]], "x"]

    def test_comments_run_to_end_of_line(self):
        assert sexpr.read_all('; (note\n(a ; b)\n c)', Bad) == [["a", "c"]]

    def test_strings_have_no_escapes(self):
        assert sexpr.read_all(r'"a\" b', Bad) == [('"', "a\\"), "b"]
        assert sexpr.read_all('"a;(b"c', Bad) == [('"', "a;(b"), "c"]
        with pytest.raises(Bad, match="unterminated string at offset 5"):
            sexpr.read_all(r'"a\" "b', Bad)

    def test_lexical_errors_name_offsets(self):
        with pytest.raises(Bad, match="unexpected '\\)' at offset 4"):
            sexpr.read_all("(a) )", Bad)
        with pytest.raises(Bad, match="offset 0 is never closed"):
            sexpr.read_all("(a (b)\n", Bad)

    def test_depth_has_no_limit(self):
        depth = 50000
        datum = sexpr.read_all("(" * depth + "x" + ")" * depth, Bad)[0]
        for _ in range(depth - 1):
            datum = datum[0]
        assert datum == ["x"]


# Text built mostly from s-expression pieces, so the readers get past the
# lexer often; plain unicode text covers the rest.
PIECES = ["(", ")", '"', ";", "\n", " ", "GLOSS", "OP1", "OP2", "*OR*", '"a"',
          '"*empty*"', '"+plural"', "x", "y", "/", "C", ":R", "1", "2.5", "nan"]
TEXTS = st.one_of(st.text(), st.lists(st.sampled_from(PIECES), max_size=40).map("".join))

READERS = [
    (G.parse_gloss, G.GlossError),
    (lambda t: G.parse_gloss_file(io.StringIO(t)), G.GlossError),
    (P.parse_interlingua, P.InterlinguaError),
    (lambda t: P.parse_interlingua_file(io.StringIO(t)), P.InterlinguaError),
]


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_readers_return_or_raise_their_own_error(text):
    for read, error in READERS:
        try:
            read(text)
        except error:
            pass
