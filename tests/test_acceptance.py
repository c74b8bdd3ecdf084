"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to see them).  Expected values come from
independent oracles computed inside this module, never from the code
under test."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from gapfill import cli, extract, fixtures, gloss
from gapfill import lattice as L
from gapfill import ngram as N
from gapfill import postedit as PE
from gapfill import prefsem as P
from gapfill import skipparse as S
from gapfill import translit as T

from conftest import random_corpus, random_lattice
from test_postedit import synthesize_corpus


def _report(num, name):
    print("ACCEPTANCE %d (%s): PASS" % (num, name))


def _oracle_nbest(lat, model, n, lm_weight=1.0, trans_weight=1.0):
    """Independent reference: enumerate every path, score its spelling
    with the sentence model, collapse duplicate spellings keeping the
    max, sort by score then spelling."""
    best = {}
    for path in L.enumerate_paths(lat, 10 ** 6):
        spelled = path.spelled()
        toks = N.letters(spelled) if model.mode == "letters" else spelled.split()
        score = lm_weight * N.sentence_logprob(model, toks) + trans_weight * path.weight
        if spelled not in best or score > best[spelled]:
            best[spelled] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def test_1_extractor_exactness():
    rng = random.Random(1001)
    t0 = time.monotonic()
    cases = 0
    while cases < 1000:
        lat = random_lattice(rng, max_states=12)
        if L.path_count(lat) > 5000:
            continue
        model = N.good_turing(N.train(random_corpus(rng, 20), rng.choice((2, 3))))
        mine = extract.nbest(lat, model, 5)
        oracle = _oracle_nbest(lat, model, 5)
        assert [s for s, _ in mine.ranked] == [s for s, _ in oracle]
        for (_, a), (_, b) in zip(mine.ranked, oracle):
            assert abs(a - b) <= 1e-9
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "took %.1fs" % elapsed
    _report(1, "extractor exactness, %d cases in %.1fs" % (cases, elapsed))


def test_2_demo_reproduction(capsys):
    t0 = time.monotonic()
    assert cli.dispatch(["demo", "s8"]) == 0
    out8 = capsys.readouterr().out
    assert cli.dispatch(["demo", "s3"]) == 0
    out3 = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    assert '"The new company plans to establish in February."\n' in out8
    assert '"...planned economy times are old..."\n' in out3
    assert cli.dispatch(["demo", "s8"]) == 0
    assert capsys.readouterr().out == out8
    assert elapsed < 5.0, "took %.1fs" % elapsed
    with capsys.disabled():
        _report(2, "showcase demo reproduction in %.2fs" % elapsed)


HAND_TABLES = [
    {1: 8, 2: 4, 3: 2, 4: 1},
    {1: 16, 2: 8, 3: 4, 4: 2, 5: 1},
    {1: 4, 2: 2},
    {1: 10, 2: 5, 3: 2, 4: 2, 5: 1},
    {1: 6, 2: 3, 3: 1},
]


def _counter_with_freqs(n_r):
    c = Counter()
    k = 0
    for r, count in sorted(n_r.items()):
        for _ in range(count):
            c["g%d" % k] = r
            k += 1
    return c


def test_3_good_turing_identities():
    for n_r in HAND_TABLES:
        fof = N.FreqOfFreq(_counter_with_freqs(n_r))
        n_tokens = sum(r * c for r, c in n_r.items())
        telescoped = Fraction(0)
        for r in sorted(n_r):
            exact = Fraction((r + 1) * n_r.get(r + 1, 0), n_r[r])
            assert abs(fof.raw_adjusted(r) - float(exact)) <= 1e-12
            telescoped += n_r[r] * exact
        assert telescoped == n_tokens - n_r[1]
        assert abs(sum(n_r[r] * fof.raw_adjusted(r) for r in n_r)
                   - (n_tokens - n_r[1])) <= 1e-12

    corpora = [
        ["the dog ran", "the cat ran", "a dog sat", "the dog sat fast",
         "a cat ran far", "the bird flew", "dogs ran", "the dog ran fast"],
        ["one market fell", "the market fell", "the market rose",
         "the price rose", "a price fell", "the trade rose", "trade fell hard"],
        ["he said yes", "she said no", "he said no", "they said yes",
         "he saw her", "she saw him", "they saw us", "we said so"],
        ["plan a plan", "plan the plan", "a plan is a plan",
         "the plan is the plan", "plans are plans", "no plan is no plan"],
        ["april is cold", "may is warm", "june is hot", "july is hot",
         "march was cold", "august was hot", "april was wet"],
    ]
    rng = random.Random(33)
    checked_hist = 0
    for corpus in corpora:
        table = N.train(corpus, 2)
        model = N.good_turing(table)
        for k in (1, 2):
            fof = N.FreqOfFreq(table.counts[k])
            assert fof.n_1 > 0 and len(fof.ranks) >= 2, "table not informative"
            assert abs(model.unseen_mass[k] - fof.n_1 / fof.total) <= 1e-12
        for _ in range(20):
            h = (rng.choice(model.vocab),)
            total = sum(10 ** model.logprob_model(w, h) for w in model.vocab)
            assert abs(total - 1.0) <= 1e-6
            checked_hist += 1
    assert checked_hist == 100
    _report(3, "Good-Turing identities and normalization")


def test_4_preference_tiers():
    onto = fixtures.ontology()
    cases = [
        ("SAY-EVENT", "AGENT", "PERSON", 1.0),
        ("SAY-EVENT", "AGENT", "EMPLOYEE", 1.0),
        ("EAT-EVENT", "PATIENT", "WORM", 1.0),
        ("COMPANY-BUSINESS", "Q-MOD", "NEW-VIRGIN", 1.0),
        ("SAY-EVENT", "SENSER", "ORGANIZATION", 0.8),
        ("SAY-EVENT", "AGENT", "ORGANIZATION", 0.25),
        ("EAT-EVENT", "PATIENT", "COMPANY-BUSINESS", 0.05),
        ("SAY-EVENT", "AGENT", "MACHINE", 0.05),
        ("ANYTHING", "UNDECLARED-REL", "ANYTHING", 0.05),
        ("SAY-EVENT", "AGENT", "ROCK", 0.01),
        ("EAT-EVENT", "TEMPORAL-LOCATING", "ROCK", 0.01),
        ("SAY-EVENT", "PHENOMENON", "ROCK", 0.01),
    ]
    assert len(cases) == 12
    for head, rel, filler, expect in cases:
        assert P.tier(onto, P.RelationTriple(head, rel, filler)) == expect, (head, rel, filler)
    assert {t for (_h, _r, _f, t) in cases} == set(P.TIERS)

    rng = random.Random(404)
    concepts = sorted(onto.concepts)
    rels = sorted(onto.relations) + ["UNDECLARED-REL"]
    for _ in range(1000):
        n_triples = rng.randint(1, 6)
        expr = P.InterlinguaExpr({}, [], "")
        expr.instances["r-0"] = rng.choice(concepts)
        expr.root = "r-0"
        for i in range(n_triples):
            iid = "r-%d" % (i + 1)
            expr.instances[iid] = rng.choice(concepts)
            expr.roles.append(("r-0", rng.choice(rels), ("id", iid)))
        s = P.score(expr, onto)
        assert s.value > 0.0
        assert s.value >= 0.01 ** len(s.factors)
        prod = 1.0
        for t in s.tiers():
            prod *= t
        assert abs(s.value - prod) <= 1e-12
        range_only = [t for (tr, kind, t) in s.factors if kind.startswith("range")]
        if len(range_only) == len(s.factors):
            assert s.value >= 0.01 ** n_triples
    _report(4, "preference tiers, products, and the never-zero floor")


def test_5_interlingua_parsing():
    expr = fixtures.goal_expression()
    triples = P.extract_relations(expr)
    # The bundled listing has seven role edges; c-710 fills three of them.
    assert len(triples) == 7
    tuples = [(t.head, t.relation, t.filler) for t in triples]
    assert ("FOUND-LAUNCH", "TEMPORAL-LOCATING", "CALENDAR-MONTH") in tuples
    assert ("CALENDAR-MONTH", "MONTH-INDEX", 2) in tuples
    assert ("HAVE-AS-A-GOAL", "SENSER", "COMPANY-BUSINESS") in tuples
    assert ("FOUND-LAUNCH", "AGENT", "COMPANY-BUSINESS") in tuples
    assert ("HAVE-AS-A-GOAL", "THEME", "COMPANY-BUSINESS") in tuples
    assert sum(1 for t in triples if t.filler == "COMPANY-BUSINESS") == 3
    _report(5, "interlingua parsing with reentrancy")


def test_6_transliteration():
    assert len(fixtures.translit_pairs()) >= 50
    table = fixtures.translit_table()
    lm = fixtures.letter_model()
    assert T.back_transliterate("kurinton", table, lm, n=1)[0][0] == "clinton"
    assert T.back_transliterate("suteppaa mootaa", table, lm, n=1)[0][0] == "stepper motor"
    for text in ("kurinton", "suteppaa mootaa", "tanku", "kamera", "haiku",
                 "sutoppu", "erebeetaa", "naifu", "pen", "miruku"):
        lat = T.candidate_lattice(T.segment(text, table), table)
        if L.path_count(lat) > 5000:
            continue
        mine = T.back_transliterate(text, table, lm, n=5)
        oracle = _oracle_nbest(lat, lm, 5, lm_weight=0.5, trans_weight=0.5)
        assert [s for s, _ in mine] == [s for s, _ in oracle]
        for (_, a), (_, b) in zip(mine, oracle):
            assert abs(a - b) <= 1e-9
    _report(6, "transliteration showcase and oracle agreement")


def _oracle_min_skips(tokens, grammar):
    n = len(tokens)
    for k in range(0, n + 1):
        for subset in itertools.combinations(range(n), k):
            if k and not S.respects_constraints(tokens, subset, grammar):
                continue
            if S.chart_parse([tokens[i] for i in range(n) if i not in subset],
                             grammar).ok:
                return k
    return None


def test_7_skip_parsing():
    grammar = fixtures.toy_grammar()
    table = fixtures.suspicion_table()
    rng = random.Random(707)
    vocab = ["the", "a", "dog", "cat", "bird", "barks", "sleeps", "sees",
             "!", "um", "big", "new", "in", "market", "law"]
    agreements = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        toks = [rng.choice(vocab) for _ in range(n)]
        budget = S.SkipBudget(max_skips=n, max_candidates=10 ** 7)
        res = S.skip_parse(toks, grammar, table, budget)
        best = _oracle_min_skips(toks, grammar)
        if best is None:
            assert not res.ok
        else:
            assert res.ok and len(res.skipped) == best
        agreements += 1
    assert agreements == 200

    sentences = fixtures.mixed_corpus()
    plain = sum(S.chart_parse(s.split(), grammar).ok for s in sentences)
    skipped = sum(S.skip_parse(s.split(), grammar, table).ok for s in sentences)
    assert skipped > plain
    _report(7, "skip-parse minimality (200/200) and parse-rate gain %d->%d of %d"
            % (plain, skipped, len(sentences)))


def test_8_posteditor():
    lexicon = fixtures.noun_lexicon()
    rng = random.Random(808)
    corpus = synthesize_corpus(rng, n_docs=300)
    split = int(len(corpus) * 0.7)
    _d, train_inst = PE.prepare(corpus[:split], lexicon)
    _d, heldout = PE.prepare(corpus[split:], lexicon)
    tree = PE.train_tree(train_inst)
    acc = PE.evaluate(tree, heldout)
    assert acc >= 0.95

    _d, real_inst = PE.prepare(fixtures.article_corpus(), lexicon)
    for inst in (train_inst, heldout, real_inst):
        t = PE.train_tree(inst)
        majority = max(Counter(i.label for i in inst).values()) / len(inst)
        assert PE.evaluate(t, inst) >= majority
    for _ in range(25):
        sample = [rng.choice(real_inst) for _ in range(rng.randint(1, 40))]
        t = PE.train_tree(sample)
        majority = max(Counter(i.label for i in sample).values()) / len(sample)
        assert PE.evaluate(t, sample) >= majority
    _report(8, "posteditor learnability, held-out accuracy %.3f" % acc)


def test_9_structural_invariants():
    t0 = time.monotonic()
    rng = random.Random(909)

    for _ in range(500):
        lat = random_lattice(rng, max_states=9)
        n = L.path_count(lat)
        if n <= 4000:
            assert len(L.enumerate_paths(lat, 4000)) == n

    for _ in range(500):
        g = _random_gloss(rng, depth=0)
        lat = gloss.compile_gloss(g)
        assert L.path_count(lat) == gloss.denoted_count(g)

    plural_ready = 0
    while plural_ready < 500:
        g = _random_gloss(rng, depth=0, morphs=True)
        try:
            lat = gloss.apply_morphology(gloss.compile_gloss(g))
        except gloss.GlossError:
            continue  # a morph landed with no word before it
        assert L.validate(lat) is None
        assert all(t[2].kind != "morph" for t in lat.transitions)
        assert all(not piece.startswith("+")
                   for p in L.enumerate_paths(lat, 4000)
                   for piece in p.spelled().split())
        plural_ready += 1

    import io as _io
    checked = 0
    while checked < 500:
        model = N.good_turing(N.train(random_corpus(rng, rng.randint(5, 30)),
                                      rng.choice((2, 3))))
        buf = _io.StringIO()
        N.save(model, buf)
        buf.seek(0)
        again = N.load(buf)
        for _ in range(25):
            sent = [rng.choice(model.vocab + ("zzz", "Qxy", "77"))
                    for _ in range(rng.randint(0, 6))]
            assert N.sentence_logprob(model, sent) == N.sentence_logprob(again, sent)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, "took %.1fs" % elapsed
    _report(9, "structural invariants in %.1fs" % elapsed)


def _random_gloss(rng, depth, morphs=False):
    r = rng.random()
    if depth >= 3 or r < 0.45:
        if morphs and rng.random() < 0.2:
            choice = rng.choice(["+plural", "*empty*"])
            if choice == "+plural":
                return gloss.Seq([gloss.Leaf(L.word(rng.choice(
                    ["plan", "policy", "law", "company", "man", "box"]))),
                    gloss.Leaf(L.morph("+plural"))])
            return gloss.Leaf(L.empty())
        return gloss.Leaf(L.word(rng.choice(["a", "the", "plan", "law", "new"])))
    if r < 0.75:
        return gloss.Seq([_random_gloss(rng, depth + 1, morphs)
                          for _ in range(rng.randint(1, 3))])
    return gloss.Alt([_random_gloss(rng, depth + 1, morphs)
                      for _ in range(rng.randint(2, 3))])
