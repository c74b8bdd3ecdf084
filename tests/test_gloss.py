import io
import time

import pytest

from gapfill import gloss as G
from gapfill import lattice as L
from gapfill.fixtures import read_text


def spellings(lat, limit=100000):
    return sorted({p.spelled() for p in L.enumerate_paths(lat, limit)})


class TestParse:
    def test_article_disjunction(self):
        g = G.parse_gloss('(GLOSS ((OP1 (*OR* "a" "the")) (OP2 "plan")))')
        assert isinstance(g, G.Seq) and len(g.children) == 2
        alt, leaf = g.children
        assert isinstance(alt, G.Alt) and len(alt.children) == 2
        assert isinstance(leaf, G.Leaf) and leaf.token.text == "plan"

    def test_four_way_alternants_with_markers(self):
        g = G.parse_gloss('(GLOSS ((OP1 (*OR* "a" "an" "the" "*empty*"))))')
        [alt] = g.children
        kinds = [c.token.kind for c in alt.children]
        assert kinds == ["word", "word", "word", "empty"]

    def test_single_leaf(self):
        g = G.parse_gloss('(GLOSS ((OP1 "of")))')
        assert isinstance(g, G.Seq)
        [leaf] = g.children
        assert leaf.token.text == "of"

    def test_multiword_leaf_splits_into_word_tokens(self):
        g = G.parse_gloss('(GLOSS ((OP1 "national police agency")))')
        [seq] = g.children
        assert isinstance(seq, G.Seq)
        assert [c.token.text for c in seq.children] == ["national", "police", "agency"]

    def test_bundled_full_gloss_parses(self):
        g = G.parse_gloss(read_text("full.gloss"))
        assert isinstance(g, G.Seq)

        found = []

        def walk(node):
            if isinstance(node, G.Leaf):
                found.append(node.token.text)
            else:
                for c in node.children:
                    walk(c)

        walk(g)
        assert "national" in found and "police" in found and "agency" in found

    def test_errors(self):
        with pytest.raises(G.GlossError):
            G.parse_gloss('(GLOSS ((OP1 "a")')  # unbalanced
        with pytest.raises(G.GlossError):
            G.parse_gloss('(GLOSS ((OP1 "a") (OP3 "b")))')  # skipped OP2
        with pytest.raises(G.GlossError):
            G.parse_gloss('(GLOSS ((OP1 "+past")))')  # unregistered marker
        with pytest.raises(G.GlossError):
            G.parse_gloss('(GLOSS ((OP1 (*OR* "a"))))')  # one alternative

    def test_comment_lines_ignored(self):
        recs = G.parse_gloss_file(io.StringIO('; note\n(GLOSS ((OP1 "of")))\n'))
        assert len(recs) == 1


class TestCompile:
    def test_seq_alt_spellings(self):
        g = G.parse_gloss('(GLOSS ((OP1 (*OR* "a" "the")) (OP2 "plan")))')
        assert spellings(G.compile_gloss(g)) == ["a plan", "the plan"]

    def test_nested_blocks_product_sum(self):
        text = ('(GLOSS ((OP1 (*OR* "a" "b" "c" "d"))'
                ' (OP2 (*OR* "e" "f")) (OP3 (*OR* "g" "h"))))')
        lat = G.compile_gloss(G.parse_gloss(text))
        assert L.path_count(lat) == 16

    def test_full_gloss_contains_expected_path(self):
        lat = G.compile_gloss(G.parse_gloss(read_text("full.gloss")))
        assert L.path_count(lat) == 65536
        start = "the national police agency"
        hits = _sample_spellings(lat, start)
        assert hits and all(s.startswith(start) for s in hits)

    def test_compile_deterministic_by_path_sets(self):
        text = read_text("s8.gloss")
        a = G.compile_gloss(G.parse_gloss(text))
        b = G.compile_gloss(G.parse_gloss(text))
        assert spellings(a) == spellings(b)

    def test_deep_nesting_compiles_without_recursion(self):
        a, b = G.Leaf(L.word("a")), G.Leaf(L.word("b"))
        node, expected = a, 1
        for depth in range(3000):
            if depth % 2:
                node, expected = G.Seq([G.Alt([a, b]), node]), 2 * expected
            else:
                node, expected = G.Alt([node, b]), expected + 1
        assert L.path_count(G.compile_gloss(node)) == expected

    def test_long_flat_gloss_compiles_quickly(self):
        k = 400
        text = "(GLOSS (%s))" % " ".join(
            '(OP%d (*OR* "w%d" "*empty*"))' % (i, i) for i in range(1, k + 1))
        g = G.parse_gloss(text)
        t0 = time.perf_counter()
        lat = G.compile_gloss(g)
        assert time.perf_counter() - t0 < 5.0
        assert L.path_count(lat) == G.denoted_count(g) == 2 ** k
        assert lat.states == frozenset(range(len(lat.states)))


def _sample_spellings(lat, prefix):
    """Spellings of paths whose spelled text starts with the prefix,
    found by best-effort DFS without full enumeration."""
    out = []
    stack = [(lat.start, ())]
    while stack and len(out) < 5:
        s, toks = stack.pop()
        text = L.spell(toks)
        if len(text) >= len(prefix) and not text.startswith(prefix):
            continue
        if len(text) < len(prefix) and not prefix.startswith(text):
            continue
        if s == lat.final:
            out.append(text)
            continue
        for t in lat.out_edges(s):
            stack.append((t[1], toks + (t[2],)))
    return out


class TestCountProperty:
    def test_recursive_count_matches_enumeration(self):
        cases = [
            '(GLOSS ((OP1 (*OR* "a" "the")) (OP2 "plan")))',
            '(GLOSS ((OP1 (*OR* "a" "b" "c")) (OP2 (*OR* "d" "e")) (OP3 "f")))',
            '(GLOSS ((OP1 ((OP1 "x") (OP2 (*OR* "y" "z")))) (OP2 (*OR* "p" "*empty*"))))',
            '(GLOSS ((OP1 (*OR* "national police agency" "agency"))))',
        ]
        for text in cases:
            g = G.parse_gloss(text)
            lat = G.compile_gloss(g)
            n = G.denoted_count(g)
            assert L.path_count(lat) == n
            assert len(L.enumerate_paths(lat, 1000)) == n


class TestMorphology:
    def _compile(self, text):
        return G.compile_gloss(G.parse_gloss(text))

    def test_plural_rewrite(self):
        lat = self._compile('(GLOSS ((OP1 "plan") (OP2 "+plural")))')
        out = G.apply_morphology(lat)
        assert spellings(out) == ["plans"]

    def test_empty_is_epsilon(self):
        lat = self._compile('(GLOSS ((OP1 "plan") (OP2 "*empty*")))')
        out = G.apply_morphology(lat)
        assert spellings(out) == ["plan"]

    def test_y_to_ies(self):
        lat = self._compile('(GLOSS ((OP1 "policy") (OP2 "+plural")))')
        assert spellings(G.apply_morphology(lat)) == ["policies"]

    def test_plural_applies_to_every_preceding_word(self):
        lat = self._compile(
            '(GLOSS ((OP1 (*OR* "plan" "objective")) (OP2 (*OR* "+plural" "*empty*"))))')
        out = G.apply_morphology(lat)
        assert spellings(out) == ["objective", "objectives", "plan", "plans"]

    def test_no_morph_tokens_remain_and_validates(self):
        lat = self._compile(read_text("s8.gloss"))
        out = G.apply_morphology(lat)
        assert out.validated
        assert all(t[2].kind != "morph" for t in out.transitions)

    def test_morph_without_preceding_word_is_error(self):
        lat = L.build([0, 1], 0, 1, [(0, 1, L.morph("+plural"), 0.0)])
        L.validate(lat)
        with pytest.raises(G.GlossError):
            G.apply_morphology(lat)


class TestPluralize:
    # Hand-checked word list: suffix rules plus the irregular table.
    CASES = [
        ("plan", "plans"), ("law", "laws"), ("way", "ways"), ("boy", "boys"),
        ("policy", "policies"), ("agency", "agencies"), ("company", "companies"),
        ("box", "boxes"), ("church", "churches"), ("bush", "bushes"),
        ("buzz", "buzzes"), ("gas", "gases"), ("man", "men"), ("child", "children"),
        ("knife", "knives"), ("analysis", "analyses"), ("sword", "swords"),
        ("amendment", "amendments"), ("Agency", "Agencies"), ("Man", "Men"),
    ]

    def test_hand_checked_list(self):
        for singular, plural in self.CASES:
            assert G.pluralize(singular) == plural

    def test_custom_table_wins(self):
        assert G.pluralize("plan", {"plan": "planz"}) == "planz"
