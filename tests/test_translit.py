import io

import pytest

from gapfill import extract as X
from gapfill import lattice as L
from gapfill import ngram as N
from gapfill import translit as T
from gapfill.fixtures import (build_letter_model, build_translit_table,
                              letter_model, translit_pairs, translit_table)


@pytest.fixture(scope="module")
def table():
    return translit_table()


@pytest.fixture(scope="module")
def lm():
    return letter_model()


class TestTrainTable:
    def test_relative_frequency_pre_smoothing(self):
        pairs = T.read_pairs(io.StringIO(
            "kurabu\tclub\tku:c ra:lu bu:b\n"
            "kuizu\tquiz\tku:c i:i zu:z\n"  # placeholder; replaced below
        ))
        # ku -> c twice word-initially, ku -> ku once: P(c | ku, INITIAL) = 2/3
        pairs = T.read_pairs(io.StringIO(
            "kurabu\tclub\tku:c ra:lu bu:b\n"
            "kurippu\tclip\tku:c ri:li p:p pu:\n"
            "kuuha\tkuha\tku:ku u: ha:ha\n"
        ))
        table = T.train_table(pairs, eps=0.0)
        row = table.row("ku", T.INITIAL)
        assert 10 ** row["c"] == pytest.approx(2 / 3, abs=1e-12)
        assert 10 ** row["ku"] == pytest.approx(1 / 3, abs=1e-12)

    def test_single_observation_gets_probability_one(self):
        pairs = T.read_pairs(io.StringIO("pen\tpen\tpe:pe n:n\n"))
        table = T.train_table(pairs, eps=0.0)
        assert 10 ** table.row("pe", T.INITIAL)["pe"] == pytest.approx(1.0, abs=1e-12)

    def test_rows_normalize(self, table):
        for (unit, pos) in table.rows:
            total = sum(10 ** lp for lp in table.rows[(unit, pos)].values())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_empty_training_set_is_error(self):
        with pytest.raises(T.TranslitError):
            T.train_table([])

    @pytest.mark.parametrize("lp", ["nan", "-inf"])
    def test_non_finite_table_entry_is_error(self, lp):
        with pytest.raises(T.TranslitError):
            T.read_table(io.StringIO("ka\tca\tANY\t-0.5\nka\tka\tANY\t%s\n" % lp))

    def test_alignment_must_cover_romaji(self):
        with pytest.raises(T.TranslitError):
            T.read_pairs(io.StringIO("pen\tpen\tpe:pe\n"))


class TestSegment:
    def test_kurinton(self, table):
        assert T.segment("kurinton", table) == [["ku", "ri", "n", "to", "n"]]

    def test_single_vowel(self, table):
        assert T.segment("a", table) == [["a"]]

    def test_unmatchable_residue_names_offset(self, table):
        with pytest.raises(T.TranslitError) as e:
            T.segment("kurinton!", table)
        assert "offset 8" in str(e.value)

    def test_two_words(self, table):
        words = T.segment("suteppaa mootaa", table)
        assert words == [["su", "te", "p", "paa"], ["moo", "taa"]]


class TestCandidateLattice:
    def test_block_sizes_multiply(self):
        entries = [
            ("ka", "ca", T.ANY, -0.1), ("ka", "ka", T.ANY, -0.2),
            ("sa", "sa", T.ANY, 0.0),
            ("ta", "ta", T.ANY, -0.1), ("ta", "tta", T.ANY, -0.2), ("ta", "t", T.ANY, -0.3),
        ]
        table = T.TransliterationTable(entries)
        lat = T.candidate_lattice([["ka", "sa", "ta"]], table)
        assert L.path_count(lat) == 6

    def test_path_weight_is_sum_of_unit_logprobs(self):
        entries = [("ka", "ca", T.ANY, -0.5), ("sa", "sa", T.ANY, -0.25)]
        table = T.TransliterationTable(entries)
        lat = T.candidate_lattice([["ka", "sa"]], table)
        [p] = L.enumerate_paths(lat, 10)
        assert p.weight == pytest.approx(-0.75, abs=1e-12)
        assert p.spelled() == "casa"

    def test_kurinton_contains_clinton(self, table):
        lat = T.candidate_lattice(T.segment("kurinton", table), table)
        spells = {p.spelled() for p in L.enumerate_paths(lat, 100000)}
        assert "clinton" in spells


class TestBackTransliterate:
    def test_clinton(self, table, lm):
        out = T.back_transliterate("kurinton", table, lm, n=5)
        assert out[0][0] == "clinton"

    def test_stepper_motor(self, table, lm):
        out = T.back_transliterate("suteppaa mootaa", table, lm, n=5)
        assert out[0][0] == "stepper motor"

    def test_matches_brute_force(self, table, lm):
        for text in ("kurinton", "suteppaa mootaa", "tanku", "kamera", "naifu"):
            words = T.segment(text, table)
            lat = T.candidate_lattice(words, table)
            if L.path_count(lat) > 5000:
                continue
            mine = T.back_transliterate(text, table, lm, n=5)
            oracle = X.brute_force_nbest(lat, lm, 5, lm_weight=0.5, trans_weight=0.5,
                                         limit=5000)
            assert mine == list(oracle.ranked)

    def test_lambda_zero_is_pure_correspondence(self, table, lm):
        words = T.segment("kurinton", table)
        lat = T.candidate_lattice(words, table)
        out = T.back_transliterate("kurinton", table, lm, n=50, lam=0.0)
        best = {}
        for p in L.enumerate_paths(lat, 100000):
            s = p.spelled()
            if s not in best or p.weight > best[s]:
                best[s] = p.weight
        expect = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
        assert [s for s, _ in out] == [s for s, _ in expect]
        for (_, a), (_, b) in zip(out, expect):
            assert a == pytest.approx(b, abs=1e-9)

    def test_lambda_one_is_pure_letter_model(self, table, lm):
        out = T.back_transliterate("kurinton", table, lm, n=20, lam=1.0)
        for s, score in out:
            toks = N.letters(s)
            assert score == pytest.approx(N.sentence_logprob(lm, toks), abs=1e-9)
        scores = [score for _, score in out]
        assert scores == sorted(scores, reverse=True)

    def test_lambda_out_of_range(self, table, lm):
        with pytest.raises(T.TranslitError):
            T.back_transliterate("a", table, lm, lam=1.5)

    def test_output_lowercase_and_capitalization_is_presentation(self, table, lm):
        out = T.back_transliterate("kurinton", table, lm, n=1)
        assert out[0][0] == out[0][0].lower()
        assert T.capitalize_words("stepper motor") == "Stepper Motor"
        assert T.capitalize_words("clinton") == "Clinton"


class TestBundledArtifacts:
    def test_pairs_file_is_big_enough(self):
        assert len(translit_pairs()) >= 50

    def test_shipped_table_matches_training(self, table):
        rebuilt = build_translit_table()
        assert list(rebuilt.entries()) == list(table.entries())

    def test_shipped_letter_model_matches_training(self, lm):
        rebuilt = build_letter_model()
        for text in ("clinton", "stepper motor", "xyzzy"):
            toks = N.letters(text)
            assert N.sentence_logprob(rebuilt, toks) == N.sentence_logprob(lm, toks)
