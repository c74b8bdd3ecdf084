"""Seeded input generators for the benchmark workloads.

Every generator takes a random.Random and returns plain data (text or
token lists), so the program under test receives only generated inputs.
The generators read vocabularies from the bundled data files as text and
never call gapfill, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "gapfill" / "data"

# ---------------------------------------------------------------------------
# glosses and the word corpus over their vocabulary

DETERMINERS = ["a", "an", "the", "*empty*"]
NOUNS = ["company", "firm", "plan", "market", "agency", "venture", "factory",
         "plant", "device", "law", "reform", "office", "product", "stock",
         "subsidiary", "government", "policy", "price", "report", "man"]
ADJECTIVES = ["new", "old", "joint", "major", "small", "big"]
VERB_PHRASES = ["plans", "intends", "will have as a purpose", "has as a goal",
                "is going", "expects", "will try", "hopes"]
INFINITIVES = ["to establish", "establishing", "launching", "a launching",
               "to launch", "to open", "opening", "to build"]
PREPOSITIONS = ["in", "at", "on", "by", "for"]
MONTHS = ["February", "March", "April", "May", "June", "July"]
SINGLE = ADJECTIVES + ["will", "also", "and", "its", "with", "."]

# A part is a list of alternatives; an alternative is a list of words,
# where "+plural" marks the preceding word and "*empty*" is optional.
# Every k-part gloss has these shares of part kinds (in shuffled order),
# about 3.3 arcs per part, so glosses of one size cost about the same.
PART_KINDS = (("single", 30), ("det", 15), ("noun", 20), ("prep", 15), ("verb", 20))


def _part(rng, kind):
    if kind == "single":
        return [[rng.choice(SINGLE + MONTHS)]]
    if kind == "det":
        return [[d] for d in DETERMINERS]
    if kind == "noun":
        a, b = rng.sample(NOUNS, 2)
        return ("noun", a, b)
    if kind == "prep":
        return [[p] for p in rng.sample(PREPOSITIONS, 3)]
    pool = VERB_PHRASES if rng.random() < 0.5 else INFINITIVES
    return [p.split() for p in rng.sample(pool, rng.randint(2, 4))]


def _render_value(part):
    if isinstance(part, tuple):  # noun choice with an optional plural mark
        _kind, a, b = part
        return '((OP1 (*OR* "%s" "%s")) (OP2 (*OR* "+plural" "*empty*")))' % (a, b)
    if len(part) == 1:
        return '"%s"' % " ".join(part[0])
    return "(*OR* %s)" % " ".join('"%s"' % " ".join(alt) for alt in part)


def gloss_parts(rng, k):
    kinds = [kind for kind, share in PART_KINDS for _ in range(round(k * share / 100))]
    kinds = (kinds + ["single"] * k)[:k]
    rng.shuffle(kinds)
    return [_part(rng, kind) for kind in kinds]


def render_gloss(parts):
    """The ((GLOSS ((OP1 v) ... (OPk v)))) text of a list of parts."""
    body = " ".join("(OP%d %s)" % (i, _render_value(p)) for i, p in enumerate(parts, 1))
    return "((GLOSS (%s)))" % body


def denoted(parts):
    """Token sequences the rendered gloss denotes, counted independently
    of gloss.denoted_count."""
    n = 1
    for p in parts:
        n *= 4 if isinstance(p, tuple) else len(p)
    return n


def sample_sentence(rng, parts):
    """One reading of a gloss, with plurals spelled by adding -s."""
    words = []
    for p in parts:
        if isinstance(p, tuple):
            noun = rng.choice(p[1:])
            words.append(noun + "s" if rng.random() < 0.3 else noun)
        else:
            words.extend(w for w in rng.choice(p) if w != "*empty*")
    return " ".join(words)


def word_corpus(rng, n_sentences):
    """Sentences sampled from random 8- to 16-part glosses."""
    return [sample_sentence(rng, gloss_parts(rng, rng.randint(8, 16)))
            for _ in range(n_sentences)]


def setup_inputs(workload, seed):
    """What a workload's set-up reads besides the bundled data: the
    generate workload trains its two word models on a seeded corpus."""
    if workload == "generate":
        return word_corpus(random.Random("generate-corpus-%d" % seed), 600)
    return None


# ---------------------------------------------------------------------------
# interlingua readings over the bundled ontology

def ontology_names():
    """(concepts, relations) named in the bundled ontology file."""
    concepts, relations = [], []
    for line in (DATA / "ontology.ont").read_text().splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) >= 2 and parts[0] == "concept":
            concepts.append(parts[1])
        elif len(parts) >= 2 and parts[0] == "relation":
            relations.append(parts[1])
    return concepts, relations


def interlingua_readings(rng, concepts, relations, count):
    """count readings of one skeleton: same roles and reentrancies,
    different concept choices, as alternative readings of one sentence.
    A reentrant filler names the holder or one of its ancestors, which
    are always printed before the reference."""
    parent = [None]
    roles = []  # (holder, relation, filler): ("new", i) | ("ref", i) | ("lit", v)
    for _ in range(rng.randint(2, 5)):
        holder = rng.randrange(len(parent))
        r = rng.random()
        if r < 0.6:
            roles.append((holder, rng.choice(relations), ("new", len(parent))))
            parent.append(holder)
        elif r < 0.8:
            chain = [holder]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            roles.append((holder, rng.choice(relations), ("ref", rng.choice(chain))))
        else:
            roles.append((holder, rng.choice(relations), ("lit", rng.randint(1, 12))))
    readings = []
    for _ in range(count):
        chosen = [rng.choice(concepts) for _ in parent]
        readings.append(_render_reading(0, chosen, roles))
    return readings


def _render_reading(inst, concepts, roles):
    parts = ["(x-%d / %s" % (inst, concepts[inst])]
    for holder, rel, (kind, val) in roles:
        if holder != inst:
            continue
        if kind == "new":
            filler = _render_reading(val, concepts, roles)
        else:
            filler = "x-%d" % val if kind == "ref" else str(val)
        parts.append(" :%s %s" % (rel, filler))
    return "".join(parts) + ")"


# ---------------------------------------------------------------------------
# romanized katakana

def table_units():
    return sorted({line.split("\t", 1)[0]
                   for line in (DATA / "translit_table.tsv").read_text().splitlines()
                   if line and not line.startswith("#")})


def bundled_pairs():
    """(romaji, english) for the bundled aligned pairs."""
    out = []
    for line in (DATA / "translit_pairs.tsv").read_text().splitlines():
        if line and not line.startswith("#"):
            romaji, english, _alignment = line.split("\t")
            out.append((romaji, english))
    return out


def greedy_units(word, units):
    """Greedy longest-match split into units, or None where it fails."""
    longest = max(map(len, units))
    out, i = [], 0
    while i < len(word):
        for n in range(min(longest, len(word) - i), 0, -1):
            if word[i:i + n] in units:
                out.append(word[i:i + n])
                i += n
                break
        else:
            return None
    return out


def romaji(rng, units, unit_set):
    """1-3 words of 2-12 units each; returns (text, units after greedy
    segmentation), or None when the text does not segment."""
    words, n_units = [], 0
    for _ in range(rng.randint(1, 3)):
        word = "".join(rng.choice(units) for _ in range(rng.randint(2, 12)))
        split = greedy_units(word, unit_set)
        if split is None:
            return None
        words.append(word)
        n_units += len(split)
    return " ".join(words), n_units


# ---------------------------------------------------------------------------
# toy-grammar sentences and word salad

def toy_grammar():
    """(rules {lhs: [rhs, ...]}, words by tag) read from toy.cfg."""
    rules, by_tag = {}, {}
    for line in (DATA / "toy.cfg").read_text().splitlines():
        parts = line.split("#", 1)[0].split()
        if len(parts) >= 3 and parts[1] == "->":
            rules.setdefault(parts[0], []).append(parts[2:])
        elif len(parts) == 3 and parts[0] == "lex":
            for tag in parts[2].split(","):
                by_tag.setdefault(tag, []).append(parts[1])
    return rules, by_tag


def cfg_sentence(rng, rules, by_tag, symbol="S"):
    if symbol not in rules:
        return [rng.choice(by_tag[symbol])]
    out = []
    for sym in rng.choice(rules[symbol]):
        out.extend(cfg_sentence(rng, rules, by_tag, sym))
    return out


FILLERS = ["um", "eh", "zz", "hm", "uh", "!"]
MARKERS = ("BEGIN-NP", "END-NP")
MAX_TOKENS = 14


TEMPLATES_PER_LENGTH = 2
TEMPLATE_LENGTHS = range(3, 12)


@functools.lru_cache(maxsize=None)
def sentence_templates():
    """({length: [word-class sequence, ...]}, {word class: [word, ...]}).

    A word class is the set of tags a word has in toy.cfg; words of one
    class are the same to the parser.  The sequences are the classes of
    the first TEMPLATES_PER_LENGTH distinct toy-grammar sentences of each
    length in TEMPLATE_LENGTHS drawn from a fixed generator, so a
    sentence made from a template costs the same to parse whichever
    words fill it, and a mix of lengths has a fixed cost whatever the
    seed."""
    rules, by_tag = toy_grammar()
    word_class = {}
    for tag, words in sorted(by_tag.items()):
        for w in words:
            word_class.setdefault(w, []).append(tag)
    word_class = {w: tuple(sorted(tags)) for w, tags in word_class.items()}
    members = {}
    for w, c in sorted(word_class.items()):
        members.setdefault(c, []).append(w)
    rng = random.Random("toy-sentence-templates")
    out = {n: [] for n in TEMPLATE_LENGTHS}
    while any(len(t) < TEMPLATES_PER_LENGTH for t in out.values()):
        classes = tuple(word_class[w] for w in cfg_sentence(rng, rules, by_tag))
        slot = out.get(len(classes))
        if slot is not None and len(slot) < TEMPLATES_PER_LENGTH and classes not in slot:
            slot.append(classes)
    return out, members


def noisy_sentence(rng, rules, by_tag, n_noise, marker=None, length=None):
    """A toy-grammar sentence of at least 3 words with n_noise inserted
    tokens, at most MAX_TOKENS in all.  With `length`, the sentence fills
    one of that length's sentence_templates().  The noise is fillers and
    '!' by default, a BEGIN-NP/END-NP pair around a random span
    (marker="pair", n_noise=2) or one stray marker (marker="stray",
    n_noise=1)."""
    if length is not None:
        templates, members = sentence_templates()
        words = [rng.choice(members[c]) for c in rng.choice(templates[length])]
    else:
        while True:
            words = cfg_sentence(rng, rules, by_tag)
            if 3 <= len(words) <= MAX_TOKENS - n_noise:
                break
    toks = list(words)
    if marker == "pair":
        i = rng.randint(0, len(toks) - 1)
        j = rng.randint(i + 1, len(toks))
        toks.insert(j, MARKERS[1])
        toks.insert(i, MARKERS[0])
    elif marker == "stray":
        toks.insert(rng.randint(0, len(toks)), rng.choice(MARKERS))
    else:
        for _ in range(n_noise):
            toks.insert(rng.randint(0, len(toks)), rng.choice(FILLERS))
    return toks


# The acceptance-7 vocabulary by part of speech; "!" and "um" are not in
# the lexicon.  Words of one class have the same tags in toy.cfg.
SALAD_CLASSES = {
    "V": ["barks", "sleeps", "sees"],
    "N": ["dog", "cat", "bird", "market", "law"],
    "DET": ["the", "a"],
    "ADJ": ["big", "new"],
    "P": ["in"],
    "OOV": ["!", "um"],
}


def salad_template(length):
    """The class sequence of every word salad of this length: one or two
    verbs first, then a determiner, adjective, filler or preposition
    before each noun pair.  No verb follows a noun, and the toy grammar
    needs a noun phrase before a verb, so no subset of a salad parses:
    the skip search tries every candidate the guardrails allow and finds
    nothing.  One template per length makes a salad's parsing work depend
    on its length alone."""
    out = ["V"] * (1 + length % 2)
    fillers = itertools.cycle(["DET", "ADJ", "OOV", "P"])
    while len(out) < length:
        out.append(next(fillers))
        out.extend(["N", "N"][:length - len(out)])
    return out


def word_salad(rng, length):
    return [rng.choice(SALAD_CLASSES[c]) for c in salad_template(length)]


# ---------------------------------------------------------------------------
# article corpus whose labels follow a known rule

ARTICLE_SG = ["dog", "cat", "bird", "plan", "report", "market", "apple", "egg",
              "office", "idea", "agency", "device"]
ARTICLE_PL = ["dogs", "cats", "birds", "plans", "reports", "markets", "ideas"]
ARTICLE_VERBS = ["saw", "liked", "made", "found", "changed"]


def article_corpus(rng, n_docs):
    """Plural heads take no article, a head seen earlier in the document
    is definite, anything else is indefinite (a/an by first letter)."""
    docs = []
    for _ in range(n_docs):
        seen = set()
        words = []
        for _s in range(rng.randint(1, 4)):
            for slot in ("subj", "obj"):
                noun = rng.choice(ARTICLE_SG + ARTICLE_PL)
                if noun in seen and noun not in ARTICLE_PL:
                    words.append("the")
                elif noun not in ARTICLE_PL:
                    words.append("an" if noun[0] in "aeiou" else "a")
                words.append(noun)
                words.append(rng.choice(ARTICLE_VERBS) if slot == "subj" else ".")
                seen.add(noun)
        docs.append(" ".join(words))
    return docs
