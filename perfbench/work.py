"""The four workloads: inputs, set-up, the timed item, and its checks.

A workload is a class with:

* ``items(seed)``: the seeded input stream, as ``Item`` records;
* ``setup(inputs)``: build or load what the items need from
  ``gen.setup_inputs`` and the bundled data (timed as setup_s);
* ``run(state, payload)``: one item, the only code on the clock;
* ``check(state, item, output)``: output checks against independent
  references, off the clock.  Returns a dict of facts (numbers, summed
  over the run); a false ``ok`` fails the item;
* ``QUALITY``, ``probe(items)``, ``quality(done)``: the workload's quality
  figure, from a pass's summed facts.

``items(seed)`` is an endless generator: the loop takes the next item off
the clock, just before timing it, so no input repeats within a run.
Items come in shuffled blocks with fixed proportions of each kind and
size, so every prefix of the stream (and so every run, however many
items it completes) has nearly the same mix.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from dataclasses import dataclass, field

import gen
from gapfill import extract, fixtures, gloss, lattice, ngram, postedit, prefsem, skipparse, translit

NBEST = 5
BEAM = 50
BRUTE_FORCE_LIMIT = 1000   # generate: oracle-check lattices with at most this many paths
TRANSLIT_ORACLE_LIMIT = 5000  # translit: oracle-check lattices with at most this many paths
SKIP_ORACLE_MAX_TOKENS = 10
SCORE_TOLERANCE = 1e-9


@dataclass
class Item:
    payload: object
    buckets: dict = field(default_factory=dict)  # size buckets for per-layer metrics


def _blocks(rng, plan):
    """Endless entries of plan, one shuffled copy (block) after another."""
    while True:
        block = list(plan)
        rng.shuffle(block)
        yield from block


def _check_ranking(got, oracle):
    """(ok, tie_swap) for an n-best list against the oracle's full ranking.

    ok: scores equal the oracle's top scores rank by rank, and every
    returned sentence carries its oracle score.  tie_swap: the sentences
    still differ from the oracle's top n, which can only happen among
    candidates whose scores tie; the oracle breaks such ties by spelling.
    """
    want = oracle[:len(got)]
    scores = dict(oracle)
    ok = (len(got) == min(NBEST, len(oracle))
          and all(abs(g[1] - w[1]) <= SCORE_TOLERANCE for g, w in zip(got, want))
          and all(s in scores and abs(scores[s] - v) <= SCORE_TOLERANCE for s, v in got))
    return ok, ok and [s for s, _v in got] != [s for s, _v in want]


def _oracle_ranking(lat, model, limit, **weights):
    """Every distinct sentence of the lattice, ranked by the enumeration
    oracle (score descending, then spelling)."""
    return list(extract.brute_force_nbest(lat, model, limit, limit=limit, **weights).ranked)


# ---------------------------------------------------------------------------
# generate: interlingua ranking, gloss compile, two n-best extractions

class Generate:
    name = "generate"
    QUALITY = "beam_top1_agreement"
    K_PLAN = (8, 8, 8, 16, 16, 16, 32, 32, 64, 64)

    @staticmethod
    def setup(corpus):
        return {
            "onto": fixtures.ontology(),
            "bigram": ngram.good_turing(ngram.train(corpus, 2)),
            "trigram": ngram.good_turing(ngram.train(corpus, 3)),
        }

    @staticmethod
    def items(seed):
        rng = random.Random("generate-items-%d" % seed)
        concepts, relations = gen.ontology_names()
        for k in _blocks(rng, Generate.K_PLAN):
            parts = gen.gloss_parts(rng, k)
            readings = gen.interlingua_readings(rng, concepts, relations, rng.randint(3, 5))
            yield Item((readings, gen.render_gloss(parts), gen.denoted(parts)),
                       {"k": "k%d" % k})

    @staticmethod
    def run(state, payload):
        readings, text, _denoted = payload
        ranked = prefsem.rank([prefsem.parse_interlingua(r) for r in readings], state["onto"])
        g = gloss.parse_gloss(text)
        compiled = gloss.compile_gloss(g)
        lat = gloss.apply_morphology(compiled)
        bi = extract.nbest(lat, state["bigram"], NBEST)
        tri = extract.nbest(lat, state["trigram"], NBEST, beam=BEAM)
        return ranked, g, compiled, lat, bi, tri

    @staticmethod
    def check(state, item, output):
        ranked, g, compiled, lat, bi, tri = output
        scores = [s.value for _e, s in ranked]
        ok = all(s > 0.0 for s in scores) and scores == sorted(scores, reverse=True)
        paths = lattice.path_count(compiled)
        ok = ok and paths == item.payload[2] == gloss.denoted_count(g)
        facts = {"arcs": len(lat.transitions)}
        if lattice.path_count(lat) <= BRUTE_FORCE_LIMIT:
            agree, facts["tie_swap"] = _check_ranking(
                bi.ranked, _oracle_ranking(lat, state["bigram"], BRUTE_FORCE_LIMIT))
            ok = ok and agree
        exact = extract.nbest(lat, state["trigram"], NBEST)
        facts.update(ok=ok, agree=tri.ranked[0][0] == exact.ranked[0][0])
        return facts

    @staticmethod
    def models(state):
        return [("bigram", state["bigram"]), ("trigram", state["trigram"])]

    @staticmethod
    def probe(items):
        return list(itertools.islice(items, len(Generate.K_PLAN)))

    @staticmethod
    def quality(done):
        return done.sums["agree"] / done.n


# ---------------------------------------------------------------------------
# translit: back-transliteration of distinct romaji

def _unit_bucket(n):
    for hi, label in ((6, "u2-6"), (12, "u7-12"), (24, "u13-24")):
        if n <= hi:
            return label
    return "u25-36"


class Translit:
    name = "translit"
    QUALITY = "translit_top1"
    PAIRS_WITHIN = 100  # the bundled pairs are shuffled into this prefix
    ORACLE_EVERY = 50   # the oracle checks the pairs and every 50th other input

    @staticmethod
    def setup(_inputs):
        return {"table": fixtures.translit_table(), "lm": fixtures.letter_model()}

    @staticmethod
    def items(seed):
        rng = random.Random("translit-items-%d" % seed)
        units = gen.table_units()
        unit_set = frozenset(units)
        pairs = gen.bundled_pairs()
        seen = {r for r, _e in pairs}

        def synthetic():
            for i in itertools.count():
                made = None
                while made is None or made[0] in seen:
                    made = gen.romaji(rng, units, unit_set)
                seen.add(made[0])
                yield Item((made[0], None, i % Translit.ORACLE_EVERY == 0),
                           {"u": _unit_bucket(made[1])})

        fresh = synthetic()
        head = [Item((r, e, True), {"u": _unit_bucket(sum(len(gen.greedy_units(w, unit_set))
                                                        for w in r.split()))})
                for r, e in pairs]
        head += itertools.islice(fresh, Translit.PAIRS_WITHIN - len(head))
        rng.shuffle(head)
        yield from head
        yield from fresh

    @staticmethod
    def run(state, payload):
        return translit.back_transliterate(payload[0], state["table"], state["lm"], n=NBEST)

    @staticmethod
    def check(state, item, output):
        text, english, sampled = item.payload
        scores = [v for _s, v in output]
        facts = {"ok": bool(output) and scores == sorted(scores, reverse=True)
                 and all(math.isfinite(v) for v in scores)}
        if english is not None:
            facts["pair_hit"] = output[0][0] == english
        if sampled:
            table = state["table"]
            lat = translit.candidate_lattice(translit.segment(text, table), table)
            facts["lattice_arcs"] = len(lat.transitions)
            if lattice.path_count(lat) <= TRANSLIT_ORACLE_LIMIT:
                oracle = _oracle_ranking(lat, state["lm"], TRANSLIT_ORACLE_LIMIT,
                                         lm_weight=0.5, trans_weight=0.5)
                agree, facts["tie_swap"] = _check_ranking(output, oracle)
                facts["ok"] = facts["ok"] and agree
        return facts

    @staticmethod
    def models(state):
        return [("letters.lm", state["lm"])]

    @staticmethod
    def probe(items):
        return [it for it in itertools.islice(items, Translit.PAIRS_WITHIN)
                if it.payload[1] is not None]

    @staticmethod
    def quality(done):
        return done.sums["pair_hit"] / len(gen.bundled_pairs())


# ---------------------------------------------------------------------------
# skipparse: noisy toy-grammar sentences and word salad

def _length_bucket(n):
    return "n3-6" if n <= 6 else "n7-10" if n <= 10 else "n11-14"


def _min_skips(tokens, grammar, max_skips):
    """Exhaustive reference: the fewest skips (up to max_skips) whose kept
    tokens parse under the guardrails, or None."""
    n = len(tokens)
    for k in range(0, min(max_skips, n) + 1):
        for subset in itertools.combinations(range(n), k):
            if k and not skipparse.respects_constraints(tokens, subset, grammar):
                continue
            if skipparse.chart_parse([tokens[i] for i in range(n) if i not in subset],
                                     grammar).ok:
                return k
    return None


def _leaves(tree):
    if len(tree) == 2 and isinstance(tree[1], str):
        return [tree[1]]
    return [w for child in tree[1:] for w in _leaves(child)]


class SkipParse:
    name = "skipparse"
    QUALITY = "parse_rate"
    # Eight sentences (0-3 inserted tokens) and two word salads per block;
    # the proportions put p50 among one-filler sentences and p90 among
    # the salads, away from the edges between kinds.
    PLAN = ("clean", "pair", "stray", "filler1", "filler1", "filler1", "filler2",
            "filler3", "salad", "salad")
    FILLERS = {"clean": 0, "filler1": 1, "filler2": 2, "filler3": 3}
    # Sentence lengths in words, dealt per kind from a shuffled deck like
    # the salad lengths, so that every stretch of the stream has nearly
    # the same lengths (the toy grammar's own spread of 3-11 words).
    LENGTHS = (3, 4, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 10, 11)

    @staticmethod
    def setup(_inputs):
        return {"grammar": fixtures.toy_grammar(), "table": fixtures.suspicion_table()}

    @staticmethod
    def items(seed):
        rng = random.Random("skipparse-items-%d" % seed)
        rules, by_tag = gen.toy_grammar()
        decks = {}

        def deal(kind, deck):
            if not decks.get(kind):
                decks[kind] = list(deck)
                rng.shuffle(decks[kind])
            return decks[kind].pop()

        for kind in _blocks(rng, SkipParse.PLAN):
            if kind == "salad":
                toks = gen.word_salad(rng, deal(kind, range(8, 15)))
            elif kind in ("pair", "stray"):
                toks = gen.noisy_sentence(rng, rules, by_tag, 2 if kind == "pair" else 1,
                                          marker=kind, length=deal(kind, SkipParse.LENGTHS))
            else:
                toks = gen.noisy_sentence(rng, rules, by_tag, SkipParse.FILLERS[kind],
                                          length=deal(kind, SkipParse.LENGTHS))
            yield Item((toks, kind), {"n": _length_bucket(len(toks))})

    @staticmethod
    def run(state, payload):
        return skipparse.skip_parse(payload[0], state["grammar"], state["table"])

    @staticmethod
    def check(state, item, res):
        toks, kind = item.payload
        grammar = state["grammar"]
        ok = not res.budget_exhausted
        if res.ok:
            kept = [toks[i] for i in res.kept if not grammar.is_marker(toks[i])]
            ok = ok and _leaves(res.tree) == kept and set(res.kept).isdisjoint(res.skipped)
        # Construction guarantees: salad and stray markers never parse;
        # dropping the inserted fillers always restores the sentence.
        if kind in ("salad", "stray"):
            ok = ok and not res.ok
        elif kind in SkipParse.FILLERS:
            ok = ok and res.ok and len(res.skipped) <= SkipParse.FILLERS[kind]
        if len(toks) <= SKIP_ORACLE_MAX_TOKENS and kind not in ("salad", "stray"):
            best = _min_skips(toks, grammar, skipparse.SkipBudget().max_skips)
            ok = ok and (res.ok if best is not None else not res.ok)
            ok = ok and (best is None or len(res.skipped) == best)
        return {"ok": ok, "parsed": res.ok, "explored": res.explored}

    @staticmethod
    def models(_state):
        return []

    @staticmethod
    def probe(items):
        return list(itertools.islice(items, len(SkipParse.PLAN)))

    @staticmethod
    def quality(done):
        return done.sums["parsed"] / done.n


# ---------------------------------------------------------------------------
# train_load: train an artefact, save it, load it back

ORDER_BUCKET = {"lm2": "o2", "lm3": "o3", "letter4": "o4"}
CORPUS_SIZES = (200, 650, 1100, 1550, 2000)


def _size_bucket(n):
    return "c200-799" if n < 800 else "c800-1399" if n < 1400 else "c1400-2000"


def _saved(save, obj):
    buf = io.StringIO()
    save(obj, buf)
    return buf.getvalue()


def _postedit_item(state, corpus):
    split = int(len(corpus) * 0.7)
    _docs, train = postedit.prepare(corpus[:split], state["lexicon"])
    heldout_docs, heldout = postedit.prepare(corpus[split:], state["lexicon"])
    tree = postedit.train_tree(train)
    accuracy = postedit.evaluate(tree, heldout)
    inserted = [postedit.insert_articles(doc, tree, state["lexicon"]) for doc in heldout_docs]
    text = _saved(postedit.save_tree, tree)
    return accuracy, heldout_docs, inserted, text, postedit.load_tree(io.StringIO(text))


class TrainLoad:
    name = "train_load"
    QUALITY = "postedit_accuracy"
    PLAN = ("lm2", "lm2", "lm2", "lm3", "lm3", "letter4", "table", "suspicion",
            "postedit", "postedit")
    BANK = 3000  # sentences the word-LM corpora are sliced from

    @staticmethod
    def setup(_inputs):
        return {
            "lexicon": fixtures.noun_lexicon(),
            "pairs": fixtures.translit_pairs(),
            "letter_words": fixtures.letter_words(),
            "grammar": fixtures.toy_grammar(),
        }

    @staticmethod
    def items(seed):
        rng = random.Random("train_load-items-%d" % seed)
        bank = None
        rules, by_tag = gen.toy_grammar()
        sizes = {"lm2": [], "lm3": []}
        for kind in _blocks(rng, TrainLoad.PLAN):
            buckets = {}
            if kind in ("lm2", "lm3"):
                if bank is None:
                    bank = gen.word_corpus(random.Random("train_load-bank-%d" % seed),
                                           TrainLoad.BANK)
                if not sizes[kind]:
                    sizes[kind] = list(CORPUS_SIZES)
                    rng.shuffle(sizes[kind])
                n = sizes[kind].pop()
                start = rng.randrange(len(bank) - n)
                heldout = [rng.choice(bank) for _ in range(10)] + ["Tanaka 1994 zzz", ""]
                payload = (bank[start:start + n], heldout)
                buckets["c"] = _size_bucket(n)
            elif kind == "letter4":
                payload = None
            elif kind == "table":
                payload = rng.randint(40, 60)  # how many bundled pairs to train on
            elif kind == "suspicion":
                parsed = [" ".join(gen.cfg_sentence(rng, rules, by_tag))
                          for _ in range(rng.randint(20, 60))]
                unparsed = [" ".join(gen.noisy_sentence(rng, rules, by_tag, rng.randint(1, 3)))
                            for _ in range(rng.randint(20, 60))]
                payload = (parsed, unparsed)
            else:
                payload = gen.article_corpus(rng, rng.randint(100, 300))
            if kind in ORDER_BUCKET:
                buckets["o"] = ORDER_BUCKET[kind]
            yield Item((kind, payload), buckets)

    @staticmethod
    def run(state, payload):
        kind, data = payload
        if kind in ("lm2", "lm3", "letter4"):
            if kind == "letter4":
                model = translit.train_letter_model(state["letter_words"])
            else:
                model = ngram.good_turing(ngram.train(data[0], int(kind[-1])))
            text = _saved(ngram.save, model)
            return model, text, ngram.load(io.StringIO(text))
        if kind == "table":
            table = translit.train_table(state["pairs"][:data])
            text = _saved(translit.write_table, table)
            return table, text, translit.read_table(io.StringIO(text))
        if kind == "suspicion":
            table = skipparse.suspicion_train(data[0], data[1], state["grammar"])
            text = _saved(skipparse.write_suspicion, table)
            return table, text, skipparse.read_suspicion(io.StringIO(text))
        return _postedit_item(state, data)

    @staticmethod
    def check(state, item, output):
        kind, data = item.payload
        if kind == "postedit":
            accuracy, docs, inserted, text, loaded = output
            ok = _saved(postedit.save_tree, loaded) == text
            # Insertion adds only articles and keeps every other token.
            ok = ok and all([t for t in out if t not in ("a", "an", "the")] == doc
                            for doc, out in zip(docs, inserted))
            return {"ok": ok, "accuracy": accuracy}
        built, text, loaded = output
        if kind == "table":
            return {"ok": _saved(translit.write_table, loaded) == text}
        if kind == "suspicion":
            return {"ok": _saved(skipparse.write_suspicion, loaded) == text}
        ok = _saved(ngram.save, loaded) == text
        if kind == "letter4":
            probes = [ngram.letters(w) for w in state["letter_words"][:20]] + [["z", "q"]]
        else:
            probes = [s.split() for s in data[1]]
        ok = ok and all(ngram.sentence_logprob(built, p) == ngram.sentence_logprob(loaded, p)
                        for p in probes)
        return {"ok": ok, "warnings": built.warnings}

    @staticmethod
    def models(_state):
        return []

    @staticmethod
    def probe(items):
        return [it for it in itertools.islice(items, len(TrainLoad.PLAN))
                if it.payload[0] == "postedit"]

    @staticmethod
    def quality(done):
        return done.mean("accuracy")


WORKLOADS = {w.name: w for w in (Generate, Translit, SkipParse, TrainLoad)}
