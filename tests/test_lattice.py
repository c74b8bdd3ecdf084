import io
import random
import time
import tracemalloc

import pytest

from gapfill import lattice as L

from conftest import INVALID_LATTICES, random_lattice


def chain(*words):
    trans = [(i, i + 1, L.word(w), 0.0) for i, w in enumerate(words)]
    lat = L.build(range(len(words) + 1), 0, len(words), trans)
    assert L.validate(lat) is None
    return lat


def diamond():
    lat = L.build([0, 1, 2, 3], 0, 3, [
        (0, 1, L.word("x"), 0.0),
        (0, 2, L.word("y"), 0.0),
        (1, 3, L.word("tail"), 0.0),
        (2, 3, L.word("tail"), 0.0),
    ])
    assert L.validate(lat) is None
    return lat


class TestTokens:
    def test_word_rejects_whitespace_and_empty(self):
        with pytest.raises(L.LatticeError):
            L.word("two words")
        with pytest.raises(L.LatticeError):
            L.word("")

    def test_morph_tags_are_registered(self):
        assert L.morph("+plural").kind == "morph"
        with pytest.raises(L.LatticeError):
            L.morph("+past")

    def test_class_marks(self):
        t = L.class_mark("NAME", "Perkin")
        assert (t.text, t.surface) == ("NAME", "Perkin")
        with pytest.raises(L.LatticeError):
            L.class_mark("VERB")


class TestBuild:
    def test_minimal_single_transition(self):
        lat = chain("a")
        assert L.path_count(lat) == 1
        [p] = L.enumerate_paths(lat, 1)
        assert p.spelled() == "a"

    def test_transition_to_unknown_state_is_error(self):
        with pytest.raises(L.LatticeError):
            L.build([0, 1], 0, 1, [(0, 2, L.word("a"), 0.0)])
        with pytest.raises(L.LatticeError):
            L.build([0, 1], 0, 1, [(-1, 1, L.word("a"), 0.0)])
        for start, final in ((2, 1), (-1, 1), (0, 2), (0, -1)):
            with pytest.raises(L.LatticeError):
                L.build([0, 1], start, final, [])

    def test_duplicate_state_id_is_error(self):
        # States must be exactly 0..n-1 in order.
        for states in ([0, 0, 1], [0, 2], ["a", "b"], [1, 0]):
            with pytest.raises(L.LatticeError):
                L.build(states, states[0], states[0], [])

    def test_out_edges_and_written_ids_follow_numeric_order(self):
        # State 0 fans out over identical arcs to 1..10: ties break on
        # the target as a number, so 2 comes before 10.
        trans = [(0, i, L.word("a"), 0.0) for i in range(1, 11)]
        trans += [(i, 11, L.word("b"), 0.0) for i in range(1, 11)]
        lat = L.build(range(12), 0, 11, trans)
        assert L.validate(lat) is None
        assert [t[1] for t in lat.out_edges(0)] == list(range(1, 11))
        buf = io.StringIO()
        L.write_lattice(lat, buf)
        assert buf.getvalue().splitlines()[1:] == \
            ["%d %d %s 0.0" % (s, d, t.text) for (s, d, t, _w) in trans]

    def test_diamond_has_two_paths(self):
        assert L.path_count(diamond()) == 2


class TestValidate:
    def test_ok_lattice(self):
        assert L.validate(chain("a", "b")) is None

    def test_self_loop_reports_cycle(self):
        with pytest.raises(L.LatticeError, match="^cycle: "):
            L.build([0, 1], 0, 1, [(0, 1, L.word("a"), 0.0), (1, 1, L.word("b"), 0.0)])

    def test_orphan_state_reports_unreachable(self):
        with pytest.raises(L.LatticeError, match="^unreachable: state 2 "):
            L.build([0, 1, 2], 0, 1, [(0, 1, L.word("a"), 0.0)])


class TestPathCount:
    def test_chain(self):
        assert L.path_count(chain("a", "b", "c")) == 1

    def test_block_product_4_2_2(self):
        blocks = [4, 2, 2]
        state = 0
        trans = []
        for size in blocks:
            for k in range(size):
                trans.append((state, state + 1, L.word("w%d_%d" % (state, k)), 0.0))
            state += 1
        lat = L.build(range(state + 1), 0, state, trans)
        assert L.validate(lat) is None
        assert L.path_count(lat) == 16

    def test_diamond_sharing_tail(self):
        assert L.path_count(diamond()) == 2


class TestEnumerate:
    def test_single_path(self):
        [p] = L.enumerate_paths(chain("a", "b"), 5)
        assert p.spelled() == "a b"
        assert p.weight == 0.0

    def test_block_lattice_no_duplicates(self):
        state = 0
        trans = []
        for size in (4, 2, 2):
            for k in range(size):
                trans.append((state, state + 1, L.word("w%d%d" % (state, k)), 0.0))
            state += 1
        lat = L.build(range(state + 1), 0, state, trans)
        L.validate(lat)
        paths = L.enumerate_paths(lat, 100)
        assert len(paths) == 16 == L.path_count(lat)
        assert len({p.tokens for p in paths}) == 16

    def test_limit_refusal(self):
        with pytest.raises(L.LatticeError):
            L.enumerate_paths(diamond(), 1)

    def test_deterministic_spelled_order(self):
        paths = L.enumerate_paths(diamond(), 10)
        assert [p.spelled() for p in paths] == sorted(p.spelled() for p in paths)


class TestCombinators:
    def test_concat_counts_multiply(self):
        a, b = diamond(), chain("p", "q")
        ab = L.concat(a, b)
        assert L.path_count(ab) == 2 * 1
        c = L.union(chain("m"), L.union(chain("n"), chain("o")))
        assert L.path_count(L.concat(a, c)) == 6

    def test_union_counts_add_for_disjoint_alphabets(self):
        u = L.union(diamond(), L.union(chain("p", "q"), chain("r", "s", "t")))
        assert L.path_count(u) == 2 + 1 + 1

    def test_concat_with_empty_token_lattice_keeps_spellings(self):
        eps = L.build([0, 1], 0, 1, [(0, 1, L.empty(), 0.0)])
        L.validate(eps)
        lat = L.concat(chain("a", "b"), eps)
        assert [p.spelled() for p in L.enumerate_paths(lat, 5)] == ["a b"]

    def test_outputs_validate(self, rng):
        for _ in range(25):
            a = random_lattice(rng, max_states=6)
            b = random_lattice(rng, max_states=6)
            assert L.validate(L.concat(a, b)) is None
            assert L.validate(L.union(a, b)) is None


class TestSpell:
    def test_empty_elided_class_restored_fragments_glued(self):
        toks = (L.word("a"), L.empty(), L.class_mark("NAME", "Perkin"), L.word("plan"))
        assert L.spell(toks) == "a Perkin plan"
        frag = (L.fragment("c"), L.fragment("li"), L.fragment(""), L.fragment("nton"))
        assert L.spell(frag) == "clinton"
        mixed = (L.fragment("ab"), L.fragment(" "), L.fragment("cd"))
        assert L.spell(mixed) == "ab cd"


class TestProperties:
    def test_enumerate_agrees_with_path_count(self, rng):
        for _ in range(120):
            lat = random_lattice(rng)
            n = L.path_count(lat)
            if n <= 10000:
                assert len(L.enumerate_paths(lat, 10000)) == n

    def test_count_algebra(self, rng):
        for _ in range(40):
            a = random_lattice(rng, max_states=6)
            b = random_lattice(rng, max_states=6)
            assert L.path_count(L.concat(a, b)) == L.path_count(a) * L.path_count(b)
            assert L.path_count(L.union(a, b)) == L.path_count(a) + L.path_count(b)

    def test_path_weight_is_sum_of_transition_weights(self, rng):
        # Independent recursive walk, summing weights transition by
        # transition; multisets of (token texts, weight) must agree.
        for _ in range(30):
            lat = random_lattice(rng, max_states=7)
            if L.path_count(lat) > 2000:
                continue
            walked = []
            stack = [(lat.start, (), ())]
            while stack:
                s, toks, ws = stack.pop()
                if s == lat.final:
                    walked.append((toks, sum(ws)))
                for t in lat.out_edges(s):
                    stack.append((t[1], toks + (t[2],), ws + (t[3],)))
            enumerated = [(p.tokens, p.weight) for p in L.enumerate_paths(lat, 2000)]
            assert len(walked) == len(enumerated)
            walked.sort(key=lambda tw: (tuple(t.sort_key() for t in tw[0]), tw[1]))
            enumerated.sort(key=lambda tw: (tuple(t.sort_key() for t in tw[0]), tw[1]))
            for (tw, ww), (te, we) in zip(walked, enumerated):
                assert tw == te
                assert abs(ww - we) < 1e-12


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(20):
            lat = random_lattice(rng, max_states=8)
            buf = io.StringIO()
            L.write_lattice(lat, buf)
            buf.seek(0)
            again = L.read_lattice(buf)
            a = [(p.spelled(), round(p.weight, 12)) for p in L.enumerate_paths(lat, 5000)] \
                if L.path_count(lat) <= 5000 else L.path_count(lat)
            b = [(p.spelled(), round(p.weight, 12)) for p in L.enumerate_paths(again, 5000)] \
                if L.path_count(again) <= 5000 else L.path_count(again)
            assert a == b

    def test_token_escaping(self):
        lat = L.build([0, 1, 2, 3, 4], 0, 4, [
            (0, 1, L.word('say"quote'), 0.0),
            (1, 2, L.class_mark("NUM", "3,000"), -0.5),
            (2, 3, L.morph("+plural"), 0.0),
            (3, 4, L.fragment("ab c"), 0.25),
        ])
        L.validate(lat)
        buf = io.StringIO()
        L.write_lattice(lat, buf)
        buf.seek(0)
        again = L.read_lattice(buf)
        assert [t[2] for t in again.transitions] == [t[2] for t in lat.transitions]

    def test_field_regex_matches_reference_splitter(self):
        # The alphabet holds every character class the two could disagree
        # on: quotes, escapes, ASCII and Unicode whitespace, and neither.
        alphabet = ['"', "\\", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\xa0", "\x85",
                    "#", "\u00e9", "a", "1"]
        rng = random.Random(22)
        for _ in range(20000):
            line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert L._FIELD.findall(line) == _split_fields(line), repr(line)

    def test_bad_header_is_error(self):
        with pytest.raises(L.LatticeError):
            L.read_lattice(io.StringIO("LATTICE v9 1 0 0\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_is_error(self, weight):
        text = "LATTICE v1 3 0 2\n0 1 w:a 0.0\n1 2 w:c %s\n" % weight
        with pytest.raises(L.LatticeError):
            L.read_lattice(io.StringIO(text))

    @pytest.mark.parametrize("kind", sorted(INVALID_LATTICES))
    def test_structurally_invalid_file_names_the_kind(self, kind):
        with pytest.raises(L.LatticeError, match=r"\b%s: " % kind):
            L.read_lattice(io.StringIO(INVALID_LATTICES[kind]))

    @pytest.mark.parametrize("text, message", [
        (INVALID_LATTICES["cycle"], "cycle: 1 -> 1"),
        # 1 -> 2 -> 3 -> 1 with a tail 3 -> 4 that is on no cycle
        ("LATTICE v1 5 0 4\n0 1 a 0.0\n1 2 b 0.0\n2 3 c 0.0\n3 1 d 0.0\n3 4 e 0.0\n",
         "cycle: 1 -> 2 -> 3 -> 1"),
    ], ids=["self-loop", "3-cycle-with-tail"])
    def test_cycle_message_follows_the_arcs(self, text, message):
        with pytest.raises(L.LatticeError) as e:
            L.read_lattice(io.StringIO(text))
        assert str(e.value) == message


    def test_more_states_than_arcs_can_reach_fails_at_once(self):
        text = "LATTICE v1 1000000 0 1\n0 1 a 0.0\n"
        assert len(text) == 33
        tracemalloc.start()
        try:
            began = time.perf_counter()
            with pytest.raises(L.LatticeError, match="^bad lattice header: 1000000 states need at least 999999 arcs"):
                L.read_lattice(io.StringIO(text))
            spent = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spent < 0.1 and peak < 1e6


def _split_fields(line):
    """Reference for lattice._FIELD, one character at a time: a whitespace
    split in which double quotes group and, inside quotes, a backslash
    escapes the next character."""
    fields, buf, quoted = [], [], False
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and quoted and i + 1 < len(line):
            buf.append(c)
            buf.append(line[i + 1])
            i += 2
            continue
        if c == '"':
            quoted = not quoted
            buf.append(c)
        elif c.isspace() and not quoted:
            if buf:
                fields.append("".join(buf))
                buf = []
        else:
            buf.append(c)
        i += 1
    if buf:
        fields.append("".join(buf))
    return fields
