"""Shared randomized-case generators for property tests."""

import random

import pytest

from gapfill import fixtures
from gapfill import lattice as L
from gapfill import ngram


WORDS = ["plan", "company", "new", "old", "law", "agency", "time", "market"]
EXTRA = ["reform", "gun", "Tanaka", "1994", "the", "a", "of", "in"]


def random_lattice(rng: random.Random, max_states=12, empty_rate=0.15,
                   weighted=True, token=None) -> L.Lattice:
    """Random valid DAG lattice: forward edges only, every state on a
    start-final path by construction.  Non-empty labels are random words,
    or token(rng) when given."""
    n = rng.randint(3, max_states)
    edges = []
    for i in range(n - 1):
        edges.append((i, rng.randint(i + 1, n - 1)))
    for j in range(1, n):
        edges.append((rng.randint(0, j - 1), j))
    for _ in range(rng.randint(0, n)):
        i = rng.randint(0, n - 2)
        edges.append((i, rng.randint(i + 1, n - 1)))
    transitions = []
    for (i, j) in edges:
        if rng.random() < empty_rate:
            tok = L.empty()
        else:
            tok = token(rng) if token else L.word(rng.choice(WORDS))
        w = 0.0
        if weighted and rng.random() < 0.3:
            w = round(rng.uniform(-2.0, 1.0), 3)
        transitions.append((i, j, tok, w))
    lat = L.build(range(n), 0, n - 1, transitions)
    assert L.validate(lat) is None
    return lat


NOUNS = ["plan", "company", "law", "agency", "market", "policy", "child"]


def random_gloss_text(rng: random.Random, max_phrases=4) -> str:
    """Gloss text of noun phrases joined by words: each phrase is an
    optional article, one noun or a choice of nouns, and a plural marker
    that is optional, mandatory or absent."""
    slots = []
    for k in range(rng.randint(1, max_phrases)):
        if k:
            slots.append('"%s"' % rng.choice(["of", "in", "new", "old"]))
        slots.append('(*OR* "a" "the" "*empty*")')
        nouns = rng.sample(NOUNS, rng.randint(1, 3))
        slots.append('"%s"' % nouns[0] if len(nouns) == 1
                     else "(*OR* %s)" % " ".join('"%s"' % w for w in nouns))
        plural = rng.choice(['(*OR* "+plural" "*empty*")', '"+plural"', None])
        if plural:
            slots.append(plural)
    return "(GLOSS (%s))" % " ".join("(OP%d %s)" % (i + 1, s) for i, s in enumerate(slots))


# Lattice files that read field by field but break one structural rule:
# a self-loop, a state no path from start reaches, and a state no path
# to final leaves.
INVALID_LATTICES = {
    "cycle": "LATTICE v1 3 0 2\n0 1 a 0.0\n1 1 b 0.0\n1 2 c 0.0\n",
    "unreachable": "LATTICE v1 3 0 1\n0 1 a 0.0\n2 1 b 0.0\n",
    "dead-end": "LATTICE v1 3 0 1\n0 1 a 0.0\n0 2 b 0.0\n",
}


SKIP_VOCAB = ["the", "a", "dog", "cat", "bird", "barks", "sleeps", "sees", "police",
              "agency", "changes", "plans", "big", "new", "in", "market", "law"]
SKIP_NOISE = ["!", "um", "zebra"]


def random_noisy_sentence(rng: random.Random, max_words=9) -> str:
    """Toy-grammar words with noise tokens mixed in, and now and then a
    BEGIN-NP ... END-NP bracket around a stretch of them."""
    toks = [rng.choice(SKIP_VOCAB) if rng.random() < 0.8 else rng.choice(SKIP_NOISE)
            for _ in range(rng.randint(2, max_words))]
    if rng.random() < 0.3:
        i = rng.randint(0, len(toks) - 1)
        j = rng.randint(i + 1, len(toks))
        toks[i:j] = ["BEGIN-NP"] + toks[i:j] + ["END-NP"]
    return " ".join(toks)


# The corpus holds the literal token <unk>, so under its bigram model
# p(b | <unk>) = -0.030 is a seen bigram while p(b | zebra) = -0.654 backs
# off to the unigram.
UNK_CORPUS = ["a <unk> b", "a c b", "a b", "c a"] * 3 + ["b c"]


def random_corpus(rng: random.Random, n_sentences=20):
    vocab = WORDS + EXTRA
    corpus = []
    for _ in range(n_sentences):
        length = rng.randint(1, 7)
        corpus.append(" ".join(rng.choice(vocab) for _ in range(length)))
    return corpus


# Sentences that exercise train's edge cases: literal pads, tuple
# sentences, a blank line (dropped), a whitespace-only line (an empty
# sentence), numerals and capitalized words.
ODD_SENTENCES = [
    "<s> plan </s>",
    ("Tanaka", "<s>", "1994"),
    "",
    "   ",
    "The company paid 3,000 or 40%",
    ("new", "law", "</s>", "2.5"),
    "Reform of the Agency in 1994",
    "the agency of Tanaka",
]


def random_model(rng: random.Random, order=None) -> ngram.NGramModel:
    order = order or rng.choice([2, 2, 3])
    return ngram.good_turing(ngram.train(random_corpus(rng), order))


@pytest.fixture
def rng():
    return random.Random(20260808)


def deep_or_text(depth):
    """(GLOSS (*OR* (*OR* ... "a" "b") "b")) with `depth` nested *OR*s."""
    return "(GLOSS %s%s%s)" % ("(*OR* " * depth, '"a"', ' "b")' * depth)


def s3_model_with_unigram_renamed(token):
    """The bundled s3.lm with the unigram line of `token` naming another
    word instead, and the header's vocab count left alone."""
    lines = fixtures.path("s3.lm").read_text().splitlines(keepends=True)
    start = lines.index("\\1-grams\n") + 1
    i = next(i for i in range(start, len(lines)) if lines[i].split()[1] == token)
    lines[i] = lines[i].replace(" %s" % token, " renamed", 1)
    return "".join(lines)
