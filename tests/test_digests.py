"""Pinned output bytes: sha256 digests of seeded outputs, kept in digests.json.

A change that alters one of these outputs must say so and why; only then
rewrite the table, with `PYTHONPATH=src python tests/test_digests.py`.
"""

import functools
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from gapfill import extract, fixtures, gloss, lattice, ngram, skipparse, translit

from conftest import (ODD_SENTENCES, WORDS, random_corpus, random_gloss_text, random_lattice,
                      random_noisy_sentence)

TABLE = Path(__file__).with_name("digests.json")


def _word_model(corpus, order):
    return ngram.good_turing(ngram.train(corpus, order))


def _random(seed, n_sentences):
    return random_corpus(random.Random(seed), n_sentences)


SAVED_MODELS = {
    "words-o2-rand40-s1": lambda: _word_model(_random(1, 40), 2),
    "words-o3-rand40-s2": lambda: _word_model(_random(2, 40), 3),
    "words-o4-rand40-s3": lambda: _word_model(_random(3, 40), 4),
    "words-o2-rand200-s4": lambda: _word_model(_random(4, 200), 2),
    "words-o3-rand200-s5": lambda: _word_model(_random(5, 200), 3),
    "words-o4-rand200-s6": lambda: _word_model(_random(6, 200), 4),
    "words-o3-s8": lambda: _word_model(fixtures.corpus_lines("s8_corpus.txt"), 3),
    "words-o3-article": lambda: _word_model(fixtures.corpus_lines("article_corpus.txt"), 3),
    "words-o4-article": lambda: _word_model(fixtures.corpus_lines("article_corpus.txt"), 4),
    "words-o3-mixed": lambda: _word_model(_random(7, 30) + ODD_SENTENCES, 3),
    "letters-o4": lambda: translit.train_letter_model(fixtures.letter_words()),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _written(writer, obj):
    """The text writer(obj, fp) writes."""
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def saved_digest(build):
    return _sha(_written(ngram.save, build()))


def _glosses(name):
    if name == "random20":
        rng = random.Random(5)
        return [random_gloss_text(rng) for _ in range(20)]
    return [fixtures.read_text("%s.gloss" % name)]


def _lattice_bytes(name):
    """write_lattice bytes of each gloss compiled, then morphed."""
    out = []
    for text in _glosses(name):
        lat = gloss.compile_gloss(gloss.parse_gloss(text))
        out += [_written(lattice.write_lattice, lat),
                _written(lattice.write_lattice, gloss.apply_morphology(lat))]
    return "".join(out)


def _nbest_ranked(order, beam):
    """nbest ranked lists over every morphed gloss lattice, under a word
    model trained on the s8 corpus plus seeded random sentences."""
    model = _word_model(fixtures.corpus_lines("s8_corpus.txt") + _random(8, 60), order)
    ranked = []
    for name in LATTICE_GLOSSES:
        for text in _glosses(name):
            lat = gloss.apply_morphology(gloss.compile_gloss(gloss.parse_gloss(text)))
            ranked.append(extract.nbest(lat, model, 5, beam=beam).ranked)
    return repr(ranked)


def _back_transliterated():
    table, model = fixtures.translit_table(), fixtures.letter_model()
    return repr([translit.back_transliterate(romaji, table, model, n=3)
                 for romaji, _english, _units in fixtures.translit_pairs()])


def _scored_sentences():
    """ODD_SENTENCES, the mixed skip corpus and seeded random sentences."""
    return ODD_SENTENCES + fixtures.mixed_corpus() + _random(9, 80)


def _sentence_scores(model_name):
    """repr of sentence_logprob over _scored_sentences under a bundled
    model; a letter model scores each sentence's characters."""
    model = fixtures.demo_model(model_name) if model_name != "letters" else fixtures.letter_model()
    scores = []
    for sent in _scored_sentences():
        if model.mode == "letters":
            sent = ngram.letters(sent if isinstance(sent, str) else " ".join(sent))
        elif isinstance(sent, tuple):
            sent = list(sent)
        scores.append(ngram.sentence_logprob(model, sent))
    return repr(scores)


def _oov_token(rng):
    """A lattice token the model may not know: a word, a NAME or NUM
    class mark, or a plural morph."""
    kind = rng.random()
    if kind < 0.6:
        return lattice.word(rng.choice(WORDS + ["Tanaka", "1994", "zebra", "quasar", "<unk>"]))
    if kind < 0.8:
        return lattice.class_mark("NAME", rng.choice(["Perkin", "Tanaka", ""]))
    if kind < 0.9:
        return lattice.class_mark("NUM", "1994")
    return lattice.morph("+plural")


def _nbest_oov_context():
    """nbest ranked lists over seeded lattices of _oov_token labels, under
    models trained on a corpus that holds the literal token <unk>: an
    out-of-vocabulary word scores as <unk> but stays itself in the
    context."""
    corpus = _random(10, 60) + ["a <unk> plan", "the <unk> law of <unk>", "<unk> company"] * 2
    rng = random.Random(11)
    ranked = []
    for order, beam in ((2, None), (3, None), (3, 3)):
        model = _word_model(corpus, order)
        for _ in range(25):
            lat = random_lattice(rng, max_states=10, token=_oov_token)
            ranked.append(extract.nbest(lat, model, 4, beam=beam).ranked)
            ranked.append(extract.nbest(lat, model, 2, beam=beam, lm_weight=0.5,
                                        trans_weight=0.5).ranked)
    return repr(ranked)


def _skip_parses(sentences):
    """Every SkipResult field over the sentences, under the default budget
    and under a tight one that some searches exhaust."""
    grammar, table = fixtures.toy_grammar(), fixtures.suspicion_table()
    out = []
    for budget in (None, skipparse.SkipBudget(max_skips=4, max_candidates=6)):
        for sent in sentences:
            r = skipparse.skip_parse(sent.split(), grammar, table, budget)
            out.append((r.ok, r.kept, r.skipped, r.tree, r.explored, r.budget_exhausted))
    return repr(out)


def _skip_sentences(name):
    """The mixed skip corpus, or seeded sentences of the conftest generators."""
    if name == "mixed":
        return fixtures.mixed_corpus()
    rng = random.Random(12)
    return _random(13, 60) + [random_noisy_sentence(rng) for _ in range(150)]


LATTICE_GLOSSES = ("s3", "s8", "full", "random20")

OUTPUTS = {
    **{"lattice.write/" + name: functools.partial(_lattice_bytes, name)
       for name in LATTICE_GLOSSES},
    "extract.nbest/bigram-exact": functools.partial(_nbest_ranked, 2, None),
    "extract.nbest/trigram-exact": functools.partial(_nbest_ranked, 3, None),
    "extract.nbest/trigram-beam": functools.partial(_nbest_ranked, 3, 4),
    "translit.back_transliterate/pairs60": _back_transliterated,
    **{"ngram.sentence_logprob/" + name: functools.partial(_sentence_scores, name)
       for name in ("s3", "s8", "letters")},
    "extract.nbest/oov-context": _nbest_oov_context,
    **{"skipparse.skip_parse/" + name: functools.partial(
        lambda n: _skip_parses(_skip_sentences(n)), name) for name in ("mixed", "random")},
}


def current_table():
    table = {"ngram.save/" + name: saved_digest(build)
             for name, build in sorted(SAVED_MODELS.items())}
    table.update((name, _sha(output())) for name, output in OUTPUTS.items())
    return table


def test_table_names_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(
        ["ngram.save/" + name for name in SAVED_MODELS] + list(OUTPUTS))


@pytest.mark.parametrize("name", sorted(SAVED_MODELS))
def test_saved_model_bytes_are_pinned(name):
    table = json.loads(TABLE.read_text())
    assert saved_digest(SAVED_MODELS[name]) == table["ngram.save/" + name]


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_bytes_are_pinned(name):
    table = json.loads(TABLE.read_text())
    assert _sha(OUTPUTS[name]()) == table[name]


if __name__ == "__main__":
    TABLE.write_text(json.dumps(current_table(), indent=2, sort_keys=True) + "\n")
