import io

import pytest

from gapfill import postedit as PE
from gapfill.fixtures import article_corpus, noun_lexicon


@pytest.fixture(scope="module")
def lexicon():
    return noun_lexicon()


class TestPrepare:
    def test_definite_article_becomes_instance(self, lexicon):
        docs, inst = PE.prepare(["the dog barked"], lexicon)
        assert docs == [["dog", "barked"]]
        [i] = inst
        assert i.label == "DEF" and i.features["head"] == "dog"

    def test_head_seen_earlier(self, lexicon):
        _docs, inst = PE.prepare(["a dog saw the dog"], lexicon)
        assert [i.label for i in inst] == ["INDEF", "DEF"]
        assert inst[0].features["head_seen"] == "no"
        assert inst[1].features["head_seen"] == "yes"

    def test_bare_plural_is_none_instance(self, lexicon):
        _docs, inst = PE.prepare(["dogs bark"], lexicon)
        [i] = inst
        assert i.label == "NONE"
        assert i.features["head_plural"] == "yes"
        assert i.features["sent_initial"] == "yes"

    def test_determiner_blocks_none_slot(self, lexicon):
        _docs, inst = PE.prepare(["my dog barked"], lexicon)
        assert inst == []

    def test_adjectives_join_the_phrase(self, lexicon):
        docs, inst = PE.prepare(["the big dog barked"], lexicon)
        assert docs == [["big", "dog", "barked"]]
        [i] = inst
        assert i.features["head"] == "dog"
        assert i.features["next_word"] == "big"

    def test_stripping_is_lossless(self, lexicon):
        corpus = article_corpus()
        docs, inst = PE.prepare(corpus, lexicon)
        by_doc = {}
        for i in inst:
            if i.article:
                by_doc.setdefault(i.features.get("__doc__", None), None)
        # Reconstruct each document from its stripped tokens plus the
        # recorded (position, article) pairs.
        offset = 0
        for doc_idx, line in enumerate(corpus):
            original = line.split()
            stripped = docs[doc_idx]
            # collect instances of this doc by re-running prepare per doc
            _d, doc_inst = PE.prepare([line], lexicon)
            rebuilt = list(stripped)
            for i in sorted((i for i in doc_inst if i.article),
                            key=lambda i: i.position, reverse=True):
                rebuilt.insert(i.position, i.article)
            assert rebuilt == original

    def test_empty_corpus_is_error(self, lexicon):
        with pytest.raises(PE.PosteditError):
            PE.prepare([], lexicon)


class TestTrainTree:
    def test_single_label_gives_single_leaf(self):
        inst = [PE.ArticleInstance("DEF", {"head": "dog"})] * 3
        tree = PE.train_tree(inst)
        assert tree.is_leaf and tree.majority() == "DEF"

    def test_perfectly_separable_set(self):
        inst = []
        for head, label in [("dog", "DEF"), ("cat", "INDEF")] * 10:
            inst.append(PE.ArticleInstance(label, {"head": head, "noise": "x"}))
        tree = PE.train_tree(inst)
        assert PE.evaluate(tree, inst) == 1.0
        assert tree.feature == "head"

    def test_conflicting_labels_take_majority(self):
        inst = [PE.ArticleInstance("DEF", {"f": "v"}),
                PE.ArticleInstance("DEF", {"f": "v"}),
                PE.ArticleInstance("NONE", {"f": "v"})]
        tree = PE.train_tree(inst)
        assert tree.is_leaf and tree.majority() == "DEF"

    def test_deterministic_structure(self, lexicon):
        _docs, inst = PE.prepare(article_corpus(), lexicon)
        a, b = PE.train_tree(inst), PE.train_tree(inst)
        bufa, bufb = io.StringIO(), io.StringIO()
        PE.save_tree(a, bufa)
        PE.save_tree(b, bufb)
        assert bufa.getvalue() == bufb.getvalue()

    def test_training_accuracy_beats_majority_baseline(self, lexicon, rng):
        _docs, inst = PE.prepare(article_corpus(), lexicon)
        tree = PE.train_tree(inst)
        from collections import Counter
        majority = max(Counter(i.label for i in inst).values()) / len(inst)
        assert PE.evaluate(tree, inst) >= majority
        for _ in range(20):
            sample = [rng.choice(inst) for _ in range(rng.randint(1, 30))]
            t = PE.train_tree(sample)
            maj = max(Counter(i.label for i in sample).values()) / len(sample)
            assert PE.evaluate(t, sample) >= maj


class TestClassifyInsert:
    def test_pure_leaf_instance_returns_its_label(self):
        inst = [PE.ArticleInstance("INDEF", {"head": "dog"}),
                PE.ArticleInstance("DEF", {"head": "cat"})]
        tree = PE.train_tree(inst)
        assert PE.classify(tree, {"head": "dog"}) == "INDEF"
        assert PE.classify(tree, {"head": "unseen-head"}) in PE.LABELS

    def test_an_before_vowel(self, lexicon):
        inst = [PE.ArticleInstance("INDEF", {"head": "apple", "head_plural": "no",
                                             "prev_word": PE.MISSING, "next_word": "apple",
                                             "head_seen": "no", "sent_initial": "yes"})]
        tree = PE.train_tree(inst)
        out = PE.insert_articles(["apple", "fell"], tree, lexicon)
        assert out[:2] == ["an", "apple"]

    def test_no_noun_slots_means_unchanged(self, lexicon):
        inst = [PE.ArticleInstance("DEF", {"head": "dog"})]
        tree = PE.train_tree(inst)
        assert PE.insert_articles(["ran", "quickly"], tree, lexicon) == ["ran", "quickly"]

    def test_round_trip_on_unique_feature_vectors(self, lexicon):
        corpus = ["the dog barked", "dogs bark", "a cat slept"]
        docs, inst = PE.prepare(corpus, lexicon)
        tree = PE.train_tree(inst, max_depth=12)
        for line, stripped in zip(corpus, docs):
            rebuilt = PE.insert_articles(stripped, tree, lexicon)
            assert rebuilt == line.split()


class TestEvaluate:
    def test_training_subset_of_pure_region(self):
        inst = [PE.ArticleInstance("DEF", {"head": "dog"}),
                PE.ArticleInstance("NONE", {"head": "cat"})]
        tree = PE.train_tree(inst)
        assert PE.evaluate(tree, inst[:1]) == 1.0

    def test_constant_tree_scores_majority_fraction(self):
        inst = [PE.ArticleInstance("DEF", {}), PE.ArticleInstance("DEF", {}),
                PE.ArticleInstance("NONE", {})]
        tree = PE.train_tree(inst)  # no features -> constant majority tree
        assert tree.is_leaf
        assert PE.evaluate(tree, inst) == pytest.approx(2 / 3)

    def test_empty_heldout_is_error(self):
        tree = PE.train_tree([PE.ArticleInstance("DEF", {"head": "x"})])
        with pytest.raises(PE.PosteditError):
            PE.evaluate(tree, [])


def synthesize_corpus(rng, n_docs=300):
    """Articles follow a deterministic rule expressible in the features:
    plural heads take no article, a head seen earlier in the document is
    definite, anything else is indefinite."""
    sg = ["dog", "cat", "bird", "plan", "report", "market", "apple", "egg"]
    pl = ["dogs", "cats", "birds", "plans", "reports", "markets"]
    verbs = ["saw", "liked", "made", "found"]
    docs = []
    for _ in range(n_docs):
        seen = set()
        words = []
        for _s in range(rng.randint(1, 3)):
            subj = rng.choice(sg + pl)
            obj = rng.choice(sg + pl)
            for noun, is_subj in ((subj, True), (obj, False)):
                if noun in pl:
                    art = None
                elif noun in seen:
                    art = "the"
                else:
                    art = "an" if noun[0] in "aeiou" else "a"
                if is_subj:
                    if art:
                        words.append(art)
                    words.append(noun)
                    words.append(rng.choice(verbs))
                else:
                    if art:
                        words.append(art)
                    words.append(noun)
                    words.append(".")
                seen.add(noun)
        docs.append(" ".join(words))
    return docs


class TestSyntheticLearnability:
    def test_heldout_accuracy(self, lexicon, rng):
        corpus = synthesize_corpus(rng)
        split = int(len(corpus) * 0.7)
        _d, train_inst = PE.prepare(corpus[:split], lexicon)
        _d, test_inst = PE.prepare(corpus[split:], lexicon)
        tree = PE.train_tree(train_inst)
        assert PE.evaluate(tree, test_inst) >= 0.95


class TestTreeFile:
    def test_save_load_round_trip(self, lexicon):
        _docs, inst = PE.prepare(article_corpus(), lexicon)
        tree = PE.train_tree(inst)
        buf = io.StringIO()
        PE.save_tree(tree, buf)
        buf.seek(0)
        again = PE.load_tree(buf)
        for i in inst:
            assert PE.classify(tree, i.features) == PE.classify(again, i.features)

    @pytest.mark.parametrize("text", [
        "node head\n",  # no default=
        "node head deflt=x DEF:1\n  value x\n    leaf DEF:1\n",
        "leaf DEF:1.5\n",  # count not an integer
        "leaf THE:1\n",  # unknown label
        "leaf\n",  # no counts
        "node head default=x DEF:1\n  value x\n",  # value with no subtree
        "node head default=x DEF:1\n  value\n    leaf DEF:1\n",
        "node head default=y DEF:1\n  value x\n    leaf DEF:1\n",  # default names no value
        "node head default=x DEF:1\n  value x\n   leaf DEF:1\n",  # bad indentation
        "leaf DEF:1\nleaf DEF:2\n",  # trailing content
        "branch DEF:1\n",
    ])
    def test_malformed_tree_is_error(self, text):
        with pytest.raises(PE.PosteditError):
            PE.load_tree(io.StringIO(text))

    def test_deep_tree_loads(self):
        depth = 1500
        lines = []
        for d in range(depth):
            pad = "  " * (2 * d)
            lines.append("%snode f%d default=x DEF:1 INDEF:0 NONE:0\n%s  value x\n" % (pad, d, pad))
        lines.append("  " * (2 * depth) + "leaf DEF:0 INDEF:1 NONE:0\n")
        text = "".join(lines)
        tree = PE.load_tree(io.StringIO(text))
        assert PE.classify(tree, {}) == "INDEF"
        saved = io.StringIO()
        PE.save_tree(tree, saved)
        assert saved.getvalue() == text
        again = io.StringIO()
        PE.save_tree(PE.load_tree(io.StringIO(saved.getvalue())), again)
        assert again.getvalue() == text

    def test_instances_file_round_trip(self, lexicon):
        _docs, inst = PE.prepare(article_corpus(), lexicon)
        buf = io.StringIO()
        PE.write_instances(inst, buf)
        buf.seek(0)
        again = PE.read_instances(buf)
        assert [(i.label, i.features) for i in again] == \
               [(i.label, {f: i.features.get(f, PE.MISSING) for f in PE.FEATURES})
                for i in inst]
