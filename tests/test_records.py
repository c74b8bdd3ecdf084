"""The record rule of the line-format readers, fuzzed at one place.

Every reader that iterates records() gets the same mutations of its file:
the result either loads or raises the reader's own error, formats with a
writer come back the same after one write, and comment and whitespace-only
lines are skipped everywhere.
"""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill import fixtures, gloss, lattice, postedit, prefsem, skipparse, translit
from gapfill.records import records


def _instances_text():
    _docs, instances = postedit.prepare(fixtures.article_corpus(), fixtures.noun_lexicon())
    buf = io.StringIO()
    postedit.write_instances(instances, buf)
    return buf.getvalue()


# name -> (text, reader, error, writer or None, number of header lines)
FORMATS = {
    "lattice": (fixtures.read_text("s8.lat"), lattice.read_lattice, lattice.LatticeError,
                lattice.write_lattice, 1),
    "pairs": (fixtures.read_text("translit_pairs.tsv"), translit.read_pairs,
              translit.TranslitError, None, 0),
    "table": (fixtures.read_text("translit_table.tsv"), translit.read_table,
              translit.TranslitError, translit.write_table, 0),
    "grammar": (fixtures.read_text("toy.cfg"), skipparse.load_grammar,
                skipparse.GrammarError, None, 0),
    "suspicion": (fixtures.read_text("suspicion.tsv"), skipparse.read_suspicion,
                  skipparse.GrammarError, skipparse.write_suspicion, 0),
    "ontology": (fixtures.read_text("ontology.ont"), prefsem.load_ontology,
                 prefsem.OntologyError, None, 0),
    "lexicon": (fixtures.read_text("noun_lexicon.tsv"), postedit.load_noun_lexicon,
                postedit.PosteditError, None, 0),
    "instances": (_instances_text(), postedit.read_instances, postedit.PosteditError,
                  postedit.write_instances, 1),
    "plurals": ("# irregulars\nchild\tkids\nox\toxen\ncactus\tcacti\n",
                gloss.load_plural_table, gloss.GlossError, None, 0),
}


def _read(name, text):
    return FORMATS[name][1](io.StringIO(text))


def _write(name, obj):
    buf = io.StringIO()
    FORMATS[name][3](obj, buf)
    return buf.getvalue()


def _same(a, b):
    return pickle.dumps(a) == pickle.dumps(b)


def test_records_skip_blank_and_comment_lines():
    text = " a \n\n  # note\n\t \nb # c\n#\n"
    assert list(records(io.StringIO(text), start=2)) == [(2, "a"), (6, "b # c")]


# Pieces a mutation puts into a line: field separators, quotes, escapes,
# comment marks, Unicode spaces and plain text.
PIECES = ["\t", " ", "#", '"', "\\", "\xa0", "\x85", "\n", "x", "-", "1", "nan", "->",
          ":", "*", "@", "^", "+plural", "lex", "concept", "DEF", "\u00e9"]


@st.composite
def mutations(draw, text):
    """text with one to three line edits: a piece put at a line's start, at
    its end or in place of one character, a new line, or a line deleted or
    cut short."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        k = draw(st.integers(0, len(lines[i])))
        piece = draw(st.lists(st.sampled_from(PIECES), min_size=1, max_size=3).map("".join))
        op = draw(st.integers(0, 5))
        if op == 0:
            lines[i] = piece + lines[i]
        elif op == 1:
            lines[i] += piece
        elif op == 2:
            lines.insert(i, piece)
        elif op == 3 and len(lines) > 1:
            del lines[i]
        elif op == 4:
            lines[i] = lines[i][:k]
        else:
            lines[i] = lines[i][:k] + piece + lines[i][k + 1:]
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_files_load_or_raise_their_error(name, data):
    text, _reader, error, writer, _header = FORMATS[name]
    try:
        obj = _read(name, data.draw(mutations(text)))
    except error:
        return
    if writer is not None:
        once = _write(name, obj)
        assert _write(name, _read(name, once)) == once


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_comment_and_blank_lines_are_skipped(name):
    text, _reader, _error, _writer, header = FORMATS[name]
    lines = text.splitlines(keepends=True)
    noisy = "".join(lines[:header] + ["# a note\n", " \t \n", "  # indented\n"] + lines[header:])
    assert _same(_read(name, noisy), _read(name, text))


@pytest.mark.parametrize("name", ["grammar", "ontology"])
def test_trailing_comments(name):
    text = FORMATS[name][0]
    commented = "".join(line + "  # note\n" for line in text.splitlines())
    assert _same(_read(name, commented), _read(name, text))
