"""Bundled fixtures: demo glosses, corpora, tables, and derived artifacts.

Source fixtures (gloss files, corpora, the aligned pair list, the word
list, the grammar, the ontology) are data; the derived artifacts
(compiled lattices, trained models, the trained correspondence table)
are rebuilt deterministically from them by rebuild(), and the shipped
copies are tested to match.  The demo seeds are fixed constants chosen
so the bundled random-extractor outputs are reproducible.
"""

from __future__ import annotations

import io
from pathlib import Path

from . import extract, gloss, lattice, ngram, postedit, prefsem, skipparse, translit
from .records import record_lines

DATA = Path(__file__).parent / "data"

# Default random-walk seeds for the demos (GAPFILL_SEED overrides).
S3_RANDOM_SEED = 87
S8_RANDOM_SEED = 1157

DERIVED = ("s3.lat", "s8.lat", "s3.lm", "s8.lm", "letters.lm",
           "translit_table.tsv", "suspicion.tsv")


def path(name: str) -> Path:
    return DATA / name


def _read(name: str, reader):
    """reader(f) over the bundled file, read as UTF-8 whatever the locale."""
    with path(name).open(encoding="utf-8") as f:
        return reader(f)


def read_text(name: str) -> str:
    return _read(name, lambda f: f.read())


def corpus_lines(name: str):
    return _read(name, record_lines)


def build_demo_lattice(which: str) -> lattice.Lattice:
    g = gloss.parse_gloss(read_text("%s.gloss" % which))
    return gloss.apply_morphology(gloss.compile_gloss(g))


def build_demo_model(which: str) -> ngram.NGramModel:
    return ngram.good_turing(ngram.train(corpus_lines("%s_corpus.txt" % which), 2))


def demo_lattice(which: str) -> lattice.Lattice:
    return _read("%s.lat" % which, lattice.read_lattice)


def demo_model(which: str) -> ngram.NGramModel:
    return _read("%s.lm" % which, ngram.load)


def translit_pairs():
    return _read("translit_pairs.tsv", translit.read_pairs)


def translit_table() -> translit.TransliterationTable:
    return _read("translit_table.tsv", translit.read_table)


def build_translit_table() -> translit.TransliterationTable:
    return translit.train_table(translit_pairs())


def letter_words():
    return corpus_lines("letter_words.txt")


def build_letter_model() -> ngram.NGramModel:
    return translit.train_letter_model(letter_words())


def letter_model() -> ngram.NGramModel:
    return _read("letters.lm", ngram.load)


def toy_grammar() -> skipparse.Grammar:
    return _read("toy.cfg", skipparse.load_grammar)


def suspicion_table() -> skipparse.SuspicionTable:
    return skipparse.suspicion_train(corpus_lines("skip_parsed.txt"),
                                     corpus_lines("skip_unparsed.txt"),
                                     toy_grammar())


def mixed_corpus():
    return corpus_lines("skip_mixed.txt")


def ontology() -> prefsem.Ontology:
    return _read("ontology.ont", prefsem.load_ontology)


def goal_expression() -> prefsem.InterlinguaExpr:
    return prefsem.parse_interlingua(read_text("goal.il"))


def noun_lexicon() -> postedit.NounLexicon:
    return _read("noun_lexicon.tsv", postedit.load_noun_lexicon)


def article_corpus():
    return corpus_lines("article_corpus.txt")


def _text(writer, obj) -> str:
    """What writer(obj, fp) writes, as a string."""
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def rebuild(outdir=None):
    """Regenerate every derived artifact from its sources.

    Returns {filename: text}.  With outdir set, also writes the files.
    """
    out = {}
    for which in ("s3", "s8"):
        out["%s.lat" % which] = _text(lattice.write_lattice, build_demo_lattice(which))
        out["%s.lm" % which] = _text(ngram.save, build_demo_model(which))
    out["letters.lm"] = _text(ngram.save, build_letter_model())
    out["translit_table.tsv"] = _text(translit.write_table, build_translit_table())
    out["suspicion.tsv"] = _text(skipparse.write_suspicion, suspicion_table())
    if outdir is not None:
        for name, text in out.items():
            (Path(outdir) / name).write_text(text, encoding="utf-8")
    return out


# ---------------------------------------------------------------------------
# demo presentation

def render_sentence(spelled: str) -> str:
    """Attach punctuation to the previous word and capitalize the start."""
    words = spelled.split(" ")
    pieces = []
    for w in words:
        if pieces and w in (".", ",", "!", "?", ";", ":"):
            pieces[-1] += w
        else:
            pieces.append(w)
    text = " ".join(pieces)
    return text[:1].upper() + text[1:]


def demo_pair(which: str, seed=None):
    """(random line, random score, bigram line, bigram score) for a demo.

    Lines are formatted the way the listings print them: s8 as a full
    sentence, s3 as a quoted fragment inside ellipses.
    """
    lat = demo_lattice(which)
    model = demo_model(which)
    seed = (S3_RANDOM_SEED if which == "s3" else S8_RANDOM_SEED) if seed is None else seed
    rand = extract.random_path(lat, seed)
    rand_text = rand.spelled()
    rand_score = ngram.sentence_logprob(model, rand_text.split()) + rand.weight
    best = extract.nbest(lat, model, 1)
    best_text, best_score = best.top()
    if which == "s3":
        fmt = lambda t: '"...%s..."' % t
    else:
        fmt = lambda t: '"%s"' % render_sentence(t)
    return fmt(rand_text), rand_score, fmt(best_text), best_score
