import io
import random
import tracemalloc

import pytest

from gapfill import prefsem as P
from gapfill.fixtures import goal_expression, ontology


@pytest.fixture(scope="module")
def onto():
    return ontology()


class TestOntology:
    def test_subsumes_reflexive(self, onto):
        assert onto.subsumes("PERSON", "PERSON")

    def test_subsumes_transitive(self, onto):
        assert onto.subsumes("THING", "EMPLOYEE")
        assert onto.subsumes("ANIMATE", "WORM")
        assert not onto.subsumes("EMPLOYEE", "PERSON")

    def test_disjoint_propagates_down(self, onto):
        assert onto.disjoint("EMPLOYEE", "ORGANIZATION")
        assert onto.disjoint("COMPANY-BUSINESS", "EMPLOYEE")
        assert not onto.disjoint("PERSON", "ANIMAL")

    def test_isa_cycle_is_load_error(self):
        text = "concept A\nconcept B\nisa A B\nisa B A\n"
        with pytest.raises(P.OntologyError):
            P.load_ontology(io.StringIO(text))

    def test_isa_cycle_names_the_cycle(self):
        text = "concept A\nconcept B\nisa A B\nisa B A\n"
        with pytest.raises(P.OntologyError, match="^isa cycle: A -> B -> A$"):
            P.load_ontology(io.StringIO(text))

    def test_deep_isa_chain_loads(self):
        n = 1500
        text = "".join("concept C%d\n" % i for i in range(n))
        # C0, the first concept in sorted order, is the bottom of the chain.
        text += "".join("isa C%d C%d\n" % (i, i + 1) for i in range(n - 1))
        onto = P.load_ontology(io.StringIO(text))
        assert onto.subsumes("C%d" % (n - 1), "C0")
        assert not onto.subsumes("C0", "C%d" % (n - 1))

    def test_undeclared_concept_is_load_error(self):
        with pytest.raises(P.OntologyError):
            P.load_ontology(io.StringIO("concept A\nisa A GHOST\n"))

    def test_isa_three_cycle_reads_child_to_parent(self):
        text = "concept A\nconcept B\nconcept C\nisa A B\nisa B C\nisa C A\n"
        with pytest.raises(P.OntologyError, match="^isa cycle: A -> B -> C -> A$"):
            P.load_ontology(io.StringIO(text))

    def test_deep_chain_loads_in_little_memory(self):
        n = 4000
        text = "".join("concept C%d\n" % i for i in range(n))
        text += "".join("isa C%d C%d\n" % (i, i + 1) for i in range(n - 1))
        text += "disjoint C%d X\nconcept X\n" % (n - 1)
        tracemalloc.start()
        try:
            onto = P.load_ontology(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert onto.disjoint("C0", "X") and onto.disjoint("X", "C0")
        assert not onto.disjoint("C0", "C%d" % (n - 1))


class FrozensetOntology:
    """The ancestor-frozenset taxonomy the bit sets replaced, kept as the
    oracle: a depth-first walk from each concept in sorted order, and
    disjointness over every pair of ancestors."""

    def __init__(self, concepts, isa_edges, disjoint_pairs):
        self.parents = {}
        for child, parent in isa_edges:
            self.parents.setdefault(child, set()).add(parent)
        self.ancestors = {}
        for c in sorted(concepts):
            self._walk(c)
        self.declared = frozenset(frozenset(p) for p in disjoint_pairs)

    def _walk(self, c):
        if c not in self.ancestors:
            anc = {c}
            for p in sorted(self.parents.get(c, ())):
                anc |= self._walk(p)
            self.ancestors[c] = frozenset(anc)
        return self.ancestors[c]

    def subsumes(self, a, b):
        return a == P.UNIVERSAL or a in self.ancestors.get(b, frozenset((b,)))

    def disjoint(self, a, b):
        if P.UNIVERSAL in (a, b):
            return False
        return any(frozenset((x, y)) in self.declared
                   for x in self.ancestors.get(a, frozenset((a,)))
                   for y in self.ancestors.get(b, frozenset((b,))))


def random_taxonomy(rng):
    """Concepts, isa edges (always towards a lower number, so acyclic)
    and disjoint pairs, some of them a concept with itself."""
    n = rng.randint(1, 16)
    names = ["K%02d" % i for i in rng.sample(range(100), n)]
    edges = [(names[i], names[j]) for i in range(1, n) for j in range(i)
             if rng.random() < 0.25]
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 4))]
    return names, edges, pairs


class TestOntologyAgainstFrozensets:
    def check(self, onto, oracle, names):
        for a in names:
            for b in names:
                assert onto.subsumes(a, b) is oracle.subsumes(a, b), (a, b)
                assert onto.disjoint(a, b) is oracle.disjoint(a, b), (a, b)

    def test_loaded_random_taxonomies(self):
        rng = random.Random(29)
        for _ in range(300):
            names, edges, pairs = random_taxonomy(rng)
            text = "".join("concept %s\n" % c for c in names)
            text += "".join("isa %s %s\n" % e for e in edges)
            text += "".join("disjoint %s %s\n" % p for p in pairs)
            onto = P.load_ontology(io.StringIO(text))
            self.check(onto, FrozensetOntology(names, edges, pairs),
                       names + [P.UNIVERSAL, "UNDECLARED"])

    def test_edges_and_pairs_outside_the_concepts(self):
        # Built directly, an ontology may name concepts it does not
        # declare: only the declared ones and their ancestors are walked.
        rng = random.Random(31)
        for _ in range(100):
            names, edges, pairs = random_taxonomy(rng)
            declared = names[: len(names) // 2]
            onto = P.Ontology(declared, edges, pairs, {})
            self.check(onto, FrozensetOntology(declared, edges, pairs),
                       names + [P.UNIVERSAL, "UNDECLARED"])


class TestInterlinguaParsing:
    def test_goal_expression_reentrancy(self):
        expr = goal_expression()
        assert len(expr.instances) == 5
        fillers = [f for (_h, _r, (k, f)) in expr.roles if k == "id"]
        assert fillers.count("c-710") == 3

    def test_minimal_instance(self):
        expr = P.parse_interlingua("(x / CAT)")
        assert expr.instances == {"x": "CAT"}
        assert expr.roles == []

    def test_undefined_reference_is_error(self):
        with pytest.raises(P.InterlinguaError):
            P.parse_interlingua("(x / CAT :FRIEND y-1)")

    def test_duplicate_definition_is_error(self):
        with pytest.raises(P.InterlinguaError):
            P.parse_interlingua("(x / CAT :FRIEND (x / DOG))")

    def test_literals(self):
        expr = P.parse_interlingua('(x / MONTH :INDEX 2 :NAME "february")')
        assert expr.roles[0][2] == ("literal", 2)
        assert expr.roles[1][2] == ("literal", "february")


class TestExtractRelations:
    def test_goal_expression_triples(self):
        triples = P.extract_relations(goal_expression())
        assert len(triples) == 7
        as_tuples = [(t.head, t.relation, t.filler) for t in triples]
        assert ("FOUND-LAUNCH", "TEMPORAL-LOCATING", "CALENDAR-MONTH") in as_tuples
        assert ("CALENDAR-MONTH", "MONTH-INDEX", 2) in as_tuples
        assert sum(1 for t in triples if t.filler == "COMPANY-BUSINESS") == 3

    def test_roleless_expression(self):
        assert P.extract_relations(P.parse_interlingua("(x / CAT)")) == []

    def test_document_order(self):
        triples = P.extract_relations(goal_expression())
        assert [t.relation for t in triples] == [
            "SENSER", "Q-MOD", "PHENOMENON", "TEMPORAL-LOCATING",
            "MONTH-INDEX", "AGENT", "THEME"]


class TestTier:
    def triple(self, head, rel, filler):
        return P.RelationTriple(head, rel, filler)

    def test_basic_satisfied(self, onto):
        assert P.tier(onto, self.triple("SAY-EVENT", "AGENT", "PERSON")) == 1.0
        assert P.tier(onto, self.triple("SAY-EVENT", "AGENT", "EMPLOYEE")) == 1.0

    def test_relaxed_but_disjoint_from_basic(self, onto):
        assert P.tier(onto, self.triple("SAY-EVENT", "AGENT", "ORGANIZATION")) == 0.25

    def test_relaxed_not_disjoint(self, onto):
        # ORGANIZATION satisfies SENSER's relaxed set and is not declared
        # disjoint from ANIMATE.
        assert P.tier(onto, self.triple("SAY-EVENT", "SENSER", "ORGANIZATION")) == 0.8

    def test_neither_but_compatible(self, onto):
        assert P.tier(onto, self.triple("SAY-EVENT", "AGENT", "MACHINE")) == 0.05

    def test_disjoint_from_both(self, onto):
        assert P.tier(onto, self.triple("EAT-EVENT", "TEMPORAL-LOCATING", "ROCK")) == 0.01
        assert P.tier(onto, self.triple("SAY-EVENT", "AGENT", "ROCK")) == 0.01

    def test_eat_patient_worm(self, onto):
        assert P.tier(onto, self.triple("EAT-EVENT", "PATIENT", "WORM")) == 1.0

    def test_universal_relation(self, onto):
        assert P.tier(onto, self.triple("COMPANY-BUSINESS", "Q-MOD", "NEW-VIRGIN")) == 1.0

    def test_undeclared_relation_scores_005(self, onto):
        assert P.tier(onto, self.triple("CAT", "FROB", "DOG")) == 0.05

    def test_undeclared_relation_is_diagnosed_not_fatal(self, onto):
        expr = P.parse_interlingua("(e / SAY-EVENT :FROB (p / PERSON))")
        s = P.score(expr, onto)
        assert s.value == 0.05
        assert [kind for (_t, kind, _v) in s.factors] == ["range-undeclared"]

    def test_literal_fillers(self, onto):
        assert P.tier(onto, P.RelationTriple("CALENDAR-MONTH", "MONTH-INDEX", 2, True)) == 1.0

    def test_output_always_a_known_tier(self, onto):
        rng = random.Random(7)
        concepts = sorted(onto.concepts)
        rels = sorted(onto.relations) + ["UNDECLARED"]
        for _ in range(500):
            t = self.triple(rng.choice(concepts), rng.choice(rels), rng.choice(concepts))
            assert P.tier(onto, t) in P.TIERS


class TestScore:
    def test_product_of_tiers(self, onto):
        expr = P.parse_interlingua(
            "(e / SAY-EVENT :SENSER (o / ORGANIZATION) :AGENT (r / ORGANIZATION))")
        s = P.score(expr, onto)
        assert s.value == pytest.approx(0.8 * 0.25, abs=1e-15)

    def test_empty_product_is_one(self, onto):
        assert P.score(P.parse_interlingua("(x / WORM)"), onto).value == 1.0

    def test_floor_bound(self, onto):
        expr = P.parse_interlingua(
            "(e / SAY-EVENT :AGENT (a / ROCK) :AGENT2 (b / ROCK))")
        s = P.score(expr, onto)
        k = len(s.factors)
        assert s.value >= 0.01 ** k > 0.0

    def test_goal_expression_score(self, onto):
        s = P.score(goal_expression(), onto)
        tiers = s.tiers()
        prod = 1.0
        for t in tiers:
            prod *= t
        assert s.value == pytest.approx(prod, abs=1e-15)
        assert s.value > 0

    def test_domain_constraints_score_the_head(self):
        onto = P.load_ontology(io.StringIO(
            "concept PERSON\nconcept ROBOT\nconcept ROCK\nconcept WORDS\n"
            "disjoint PERSON ROCK\n"
            "relation SPEAKS basic WORDS domain PERSON domain-relaxable-to ROBOT\n"))
        for head, value in (("PERSON", 1.0), ("ROBOT", 0.8), ("ROCK", 0.01)):
            s = P.score(P.parse_interlingua("(h / %s :SPEAKS (w / WORDS))" % head), onto)
            assert [(kind, t) for _triple, kind, t in s.factors] == \
                [("range", 1.0), ("domain", value)]
            assert s.value == value

    def test_rank_descending_and_stable(self, onto):
        good = P.parse_interlingua("(e / SAY-EVENT :AGENT (p / PERSON))")
        mid = P.parse_interlingua("(e / SAY-EVENT :AGENT (o / ORGANIZATION))")
        bad = P.parse_interlingua("(e / SAY-EVENT :AGENT (r / ROCK))")
        ranked = P.rank([bad, good, mid], onto)
        assert [r[1].value for r in ranked] == sorted(
            (r[1].value for r in ranked), reverse=True)
        assert ranked[0][0] is good and ranked[-1][0] is bad

    def test_monotone_in_tier_upgrade(self, onto):
        worse = P.parse_interlingua("(e / SAY-EVENT :AGENT (o / ORGANIZATION) :THEME (t / WORM))")
        better = P.parse_interlingua("(e / SAY-EVENT :AGENT (p / PERSON) :THEME (t / WORM))")
        assert P.score(better, onto).value >= P.score(worse, onto).value


class TestRoundTrip:
    def test_format_parse_preserves_relations(self, onto):
        expr = goal_expression()
        again = P.parse_interlingua(P.format_interlingua(expr))
        assert P.extract_relations(again) == P.extract_relations(expr)

    def test_deep_expression_round_trips(self):
        depth = 2000
        text = "".join("(x%d / THING :PART " % i for i in range(depth))
        text += "(x%d / THING :BACK x0)" % depth + ")" * depth
        expr = P.parse_interlingua(text)
        assert len(expr.instances) == depth + 1
        printed = P.format_interlingua(expr)
        again = P.parse_interlingua(printed)
        assert (again.instances, again.roles, again.root) == \
               (expr.instances, expr.roles, expr.root)
        assert P.format_interlingua(again) == printed

    def test_random_expressions_round_trip(self, onto):
        rng = random.Random(13)
        concepts = sorted(onto.concepts)
        rels = ["AGENT", "THEME", "PATIENT", "Q-MOD"]
        for _ in range(100):
            expr = P.parse_interlingua(_random_expr_text(rng, concepts, rels))
            again = P.parse_interlingua(P.format_interlingua(expr))
            assert P.extract_relations(again) == P.extract_relations(expr)


def _random_expr_text(rng, concepts, rels, max_nodes=5):
    counter = [0]
    defined = []

    def node(depth):
        iid = "i-%d" % counter[0]
        counter[0] += 1
        defined.append(iid)
        parts = ["(%s / %s" % (iid, rng.choice(concepts))]
        for _ in range(rng.randint(0, 2)):
            role = rng.choice(rels)
            r = rng.random()
            if defined and r < 0.3:
                parts.append(" :%s %s" % (role, rng.choice(defined)))
            elif r < 0.5:
                parts.append(" :%s %d" % (role, rng.randint(0, 9)))
            elif counter[0] < max_nodes and depth < 3:
                parts.append(" :%s %s" % (role, node(depth + 1)))
        return "".join(parts) + ")"

    return node(0)
