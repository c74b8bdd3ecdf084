"""Pinned output bytes: sha256 digests of seeded outputs, kept in digests.json.

A change that alters one of these outputs must say so and why; only then
rewrite the table, with `PYTHONPATH=src python tests/test_digests.py`.
"""

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from gapfill import fixtures, ngram, translit

from conftest import ODD_SENTENCES, random_corpus

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


def saved_digest(build):
    buf = io.StringIO()
    ngram.save(build(), buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def current_table():
    return {"ngram.save/" + name: saved_digest(build)
            for name, build in sorted(SAVED_MODELS.items())}


def test_table_names_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(
        "ngram.save/" + name for name in SAVED_MODELS)


@pytest.mark.parametrize("name", sorted(SAVED_MODELS))
def test_saved_model_bytes_are_pinned(name):
    table = json.loads(TABLE.read_text())
    assert saved_digest(SAVED_MODELS[name]) == table["ngram.save/" + name]


if __name__ == "__main__":
    TABLE.write_text(json.dumps(current_table(), indent=2, sort_keys=True) + "\n")
