import functools
import io
import os

import pytest

from gapfill import cli, fixtures, postedit, skipparse

from conftest import INVALID_LATTICES, deep_or_text, s3_model_with_unigram_renamed


def run(capsys, *argv):
    status = cli.dispatch(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def stdin(data):
    """Stand-in for sys.stdin: strict UTF-8 text over bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@pytest.fixture(scope="module")
def article_tree():
    _docs, instances = postedit.prepare(fixtures.article_corpus(), fixtures.noun_lexicon())
    return postedit.train_tree(instances)


class TestStatusCodes:
    def test_no_args_usage(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_extract_missing_args_usage(self, capsys):
        assert run(capsys, "extract")[0] == 2

    def test_missing_file_is_io_error(self, capsys):
        status, _out, err = run(capsys, "gloss", "compile", "/nonexistent/x.gloss")
        assert status == 3 and "cannot read" in err

    def test_bad_format_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gloss"
        bad.write_text("(GLOSS ((OP1 ")
        status, _out, _err = run(capsys, "gloss", "compile", str(bad))
        assert status == 4

    def test_undecodable_file_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gloss"
        bad.write_bytes(b'(GLOSS ((OP1 "a\xff")))\n')
        status, _out, err = run(capsys, "gloss", "compile", str(bad))
        assert status == 4 and str(bad) in err and "not UTF-8" in err

    def test_undecodable_file_names_line_and_byte(self, tmp_path, capsys):
        # The bad byte lies past the text decoder's first chunk.
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b c\n" * 5000 + b"x\xff y\n")
        status, out, err = run(capsys, "lm", "train", str(bad))
        assert (status, out) == (4, "")
        assert err == "gapfill: %s line 5001: not UTF-8 text (byte 1: invalid start byte)\n" % bad

    def test_undecodable_pipe_is_format_error(self, capsys):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as w:
            w.write(b"a b c\nx\xff y\n")
        try:
            path = "/dev/fd/%d" % read_end
            status, out, err = run(capsys, "lm", "train", path)
        finally:
            os.close(read_end)
        assert (status, out) == (4, "")
        assert err == "gapfill: %s: not UTF-8 text (invalid start byte)\n" % path

    def test_deep_gloss_compiles(self, tmp_path, capsys):
        deep = tmp_path / "deep.gloss"
        deep.write_text(deep_or_text(1200))
        status, out, _err = run(capsys, "gloss", "compile", str(deep))
        assert status == 0 and out.startswith("LATTICE v1 ")

    def test_non_finite_lattice_weight_is_format_error(self, tmp_path, capsys):
        lat = tmp_path / "nan.lat"
        lat.write_text("LATTICE v1 2 0 1\n0 1 w:a nan\n")
        status, _out, err = run(capsys, "extract", str(lat), "--model",
                                str(fixtures.path("s3.lm")))
        assert status == 4 and "non-finite weight" in err

    @pytest.mark.parametrize("kind", sorted(INVALID_LATTICES))
    def test_structurally_invalid_lattice_is_format_error(self, tmp_path, capsys, kind):
        lat = tmp_path / "bad.lat"
        lat.write_text(INVALID_LATTICES[kind])
        status, _out, err = run(capsys, "extract", str(lat), "--model",
                                str(fixtures.path("s3.lm")))
        assert status == 4 and "%s: " % kind in err

    def test_lattice_cycle_names_its_arcs(self, tmp_path, capsys):
        lat = tmp_path / "cycle.lat"
        lat.write_text(INVALID_LATTICES["cycle"])
        status, out, err = run(capsys, "extract", str(lat), "--model",
                               str(fixtures.path("s3.lm")))
        assert (status, out, err) == (4, "", "gapfill: %s: cycle: 1 -> 1\n" % lat)

    @pytest.mark.parametrize("tree", [
        "node head\n  value x\n    leaf DEF:1 INDEF:0 NONE:0\n",
        "leaf DEF:one INDEF:0 NONE:0\n",
    ])
    def test_malformed_tree_is_format_error(self, tmp_path, capsys, monkeypatch, tree):
        path = tmp_path / "bad.dt"
        path.write_text(tree)
        monkeypatch.setattr("sys.stdin", stdin("dog barks\n"))
        status, _out, err = run(capsys, "postedit", "run", str(path))
        assert status == 4 and "tree line 1" in err

    @pytest.mark.parametrize("command", ["lm score", "postedit run"])
    def test_undecodable_stdin_is_format_error(self, tmp_path, capsys, monkeypatch,
                                               article_tree, command):
        tree_path = tmp_path / "tree.dt"
        with tree_path.open("w") as f:
            postedit.save_tree(article_tree, f)
        model = {"lm score": fixtures.path("s8.lm"), "postedit run": tree_path}[command]
        monkeypatch.setattr("sys.stdin", stdin(b"the new company\nthe \xff plans\n"))
        status, _out, err = run(capsys, *command.split(), str(model))
        assert status == 4
        assert err == "gapfill: <stdin> line 2: not UTF-8 text (byte 4: invalid start byte)\n"

    @pytest.mark.parametrize("argv, message", [
        (["lm", "train", "{empty}"], "empty corpus"),
        (["extract", "{s8.lat}", "--model", "{s8.lm}", "--n", "0"], "n must be at least 1"),
        (["translit", "train", "{empty}"], "empty training set"),
        (["translit", "decode", "kurinton", "--table", "{translit_table.tsv}",
          "--lm", "{letters.lm}", "--lam", "2"], "lam must be in [0, 1]"),
        (["skipparse", "dog", "--grammar", "{toy.cfg}", "--parsed", "{empty}",
          "--unparsed", "{skip_unparsed.txt}"], "both corpora must be non-empty"),
        (["postedit", "train", "{empty}"], "empty corpus"),
        (["postedit", "eval", "{tree}", "{header}"], "empty held-out set"),
    ])
    def test_error_after_reading_is_domain_error(self, tmp_path, capsys, article_tree,
                                                 argv, message):
        files = {"empty": tmp_path / "empty.txt", "tree": tmp_path / "tree.dt",
                 "header": tmp_path / "header.tsv"}
        files["empty"].write_text("\n")
        with files["tree"].open("w") as f:
            postedit.save_tree(article_tree, f)
        with files["header"].open("w") as f:
            postedit.write_instances([], f)
        argv = [str(files.get(a[1:-1]) or fixtures.path(a[1:-1])) if a.startswith("{") else a
                for a in argv]
        assert run(capsys, *argv) == (5, "", "gapfill: %s\n" % message)

    def test_output_into_missing_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s3.lm"
        status, _out, err = run(capsys, "lm", "train", str(fixtures.path("s3_corpus.txt")),
                                "-o", str(out))
        assert status == 3 and "cannot write %s" % out in err

    @pytest.mark.parametrize("token", ["</s>", "<unk>"])
    def test_model_without_special_unigram_is_format_error(self, tmp_path, capsys,
                                                            monkeypatch, token):
        path = tmp_path / "bad.lm"
        path.write_text(s3_model_with_unigram_renamed(token))
        monkeypatch.setattr("sys.stdin", stdin("planned economy\n"))
        status, out, err = run(capsys, "lm", "score", str(path))
        assert (status, out) == (4, "") and "lacks the %s unigram" % token in err

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_model_order_below_two_is_format_error(self, tmp_path, capsys, monkeypatch,
                                                    order):
        path = tmp_path / "bad.lm"
        path.write_text(fixtures.path("s3.lm").read_text(encoding="utf-8")
                        .replace("order=2", "order=" + order, 1))
        monkeypatch.setattr("sys.stdin", stdin("planned economy\n"))
        status, out, err = run(capsys, "lm", "score", str(path))
        assert (status, out, err) == (4, "", "gapfill: %s: order must be at least 2\n" % path)

    def test_domain_error_status(self, tmp_path, capsys):
        multi = tmp_path / "multi.gloss"
        multi.write_text('(GLOSS ((OP1 "a")))\n(GLOSS ((OP1 "b")))\n')
        status, _out, _err = run(capsys, "gloss", "compile", str(multi))
        assert status == 5


class TestPipelines:
    def test_gloss_lm_extract_round_trip(self, tmp_path, capsys):
        lat_path = tmp_path / "s8.lat"
        status, out, err = run(capsys, "gloss", "compile",
                               str(fixtures.path("s8.gloss")), "-o", str(lat_path))
        assert status == 0, err
        model_path = tmp_path / "s8.lm"
        status, _out, err = run(capsys, "lm", "train",
                                str(fixtures.path("s8_corpus.txt")),
                                "--order", "2", "-o", str(model_path))
        assert status == 0, err
        status, out, _err = run(capsys, "extract", str(lat_path),
                                "--model", str(model_path), "--n", "1")
        assert status == 0
        assert out.splitlines()[0].split("\t")[1] == \
            "the new company plans to establish in February ."

    def test_lm_train_reports_smoothing_fallbacks(self, capsys):
        status, out, err = run(capsys, "lm", "train", str(fixtures.path("s8_corpus.txt")))
        assert status == 0
        # The warning goes to stderr; the model on stdout is the bundled one.
        assert err == "gapfill: warning: order 1 smoothing fallback sgt-slope\n"
        assert out == fixtures.path("s8.lm").read_text()

    def test_lm_train_skips_comment_lines(self, tmp_path, capsys):
        with_header = tmp_path / "corpus.txt"
        with_header.write_text("# header\n" + fixtures.path("s3_corpus.txt").read_text())
        for path in (fixtures.path("s3_corpus.txt"), with_header):
            status, out, _err = run(capsys, "lm", "train", str(path))
            assert (status, out) == (0, fixtures.path("s3.lm").read_text())

    def test_mandatory_plural_gloss_compiles(self, tmp_path, capsys):
        path = tmp_path / "plural.gloss"
        path.write_text('(GLOSS ((OP1 "a") (OP2 "dog") (OP3 "+plural") (OP4 "b")))\n')
        status, out, _err = run(capsys, "gloss", "compile", str(path))
        assert status == 0
        assert out == "LATTICE v1 4 0 3\n0 1 a 0.0\n2 3 b 0.0\n1 2 dogs 0.0\n"

    def test_gloss_compile_with_plural_table(self, tmp_path, capsys):
        gloss_path, table = tmp_path / "plural.gloss", tmp_path / "plurals.tsv"
        gloss_path.write_text('(GLOSS ((OP1 "a") (OP2 "dog") (OP3 "+plural") (OP4 "b")))\n')
        table.write_text("# irregular plurals\ndog\tdoggies\n")
        status, out, _err = run(capsys, "gloss", "compile", str(gloss_path),
                                "--morph", str(table))
        assert status == 0
        assert out == "LATTICE v1 4 0 3\n0 1 a 0.0\n2 3 b 0.0\n1 2 doggies 0.0\n"
        table.write_text("# irregular plurals\ndog\n")
        status, out, err = run(capsys, "gloss", "compile", str(gloss_path),
                               "--morph", str(table))
        assert (status, out) == (4, "")
        assert err == "gapfill: %s: plural table line 2: expected 2 tab-separated fields\n" \
            % table

    def test_extract_on_bundled_fixture(self, capsys):
        status, out, _err = run(capsys, "extract", str(fixtures.path("s8.lat")),
                                "--model", str(fixtures.path("s8.lm")), "--n", "1")
        assert status == 0
        assert out.splitlines()[0].split("\t")[1] == \
            "the new company plans to establish in February ."

    def test_prefsem_score(self, capsys):
        status, out, _err = run(capsys, "prefsem", "score",
                                str(fixtures.path("goal.il")),
                                "--ontology", str(fixtures.path("ontology.ont")))
        assert status == 0
        assert out.splitlines()[0].endswith("h-709")
        assert "<CALENDAR-MONTH, MONTH-INDEX, 2>" in out

    def test_translit_train_and_decode(self, tmp_path, capsys):
        table_path = tmp_path / "t.tsv"
        status, _out, err = run(capsys, "translit", "train",
                                str(fixtures.path("translit_pairs.tsv")),
                                "-o", str(table_path))
        assert status == 0, err
        assert table_path.read_text() == fixtures.path("translit_table.tsv").read_text()
        status, out, _err = run(capsys, "translit", "decode", "kurinton",
                                "--table", str(table_path),
                                "--lm", str(fixtures.path("letters.lm")), "--n", "1")
        assert status == 0
        assert out.splitlines()[0].split("\t")[1] == "clinton"

    def test_skipparse_command(self, capsys):
        status, out, _err = run(capsys, "skipparse", "the", "dog", "!", "barks",
                                "--grammar", str(fixtures.path("toy.cfg")),
                                "--suspicion", str(fixtures.path("suspicion.tsv")))
        assert status == 0
        assert "skipped:\t!" in out

    def test_skipparse_no_parse_within_skips(self, capsys):
        status, out, _err = run(capsys, "skipparse", "dog", "cat", "bird", "barks",
                                "--grammar", str(fixtures.path("toy.cfg")),
                                "--max-skips", "1")
        assert status == 0
        assert out == "no parse within 1 skips (explored 5 candidates)\n"

    def test_skipparse_budget_exhausted(self, capsys, monkeypatch):
        small = functools.partial(skipparse.SkipBudget, max_candidates=3)
        monkeypatch.setattr(skipparse, "SkipBudget", small)
        status, out, _err = run(capsys, "skipparse", "dog", "cat", "bird", "barks",
                                "--grammar", str(fixtures.path("toy.cfg")),
                                "--max-skips", "1")
        assert status == 0
        assert out == "no parse: budget of 3 candidates exhausted\n"

    def test_skipparse_trains_suspicion_on_the_fly(self, capsys):
        status, out, _err = run(capsys, "skipparse", "a", "cat", "um", "sleeps",
                                "--grammar", str(fixtures.path("toy.cfg")),
                                "--parsed", str(fixtures.path("skip_parsed.txt")),
                                "--unparsed", str(fixtures.path("skip_unparsed.txt")))
        assert status == 0
        assert "skipped:\tum" in out

    def test_skipparse_deep_tree(self, tmp_path, capsys):
        grammar = tmp_path / "deep.cfg"
        grammar.write_text("S -> N S\nS -> N\nlex dog N\n")
        status, out, _err = run(capsys, "skipparse", *["dog"] * 500, "--grammar", str(grammar))
        assert status == 0
        assert out.startswith("skipped:\t-\ntree:\t('S', ('N', 'dog'), ('S', ")

    def test_tree_text_is_repr(self):
        grammar = fixtures.toy_grammar()
        trees = [skipparse.chart_parse(line.split(), grammar).tree
                 for line in fixtures.corpus_lines("skip_parsed.txt") + fixtures.mixed_corpus()]
        trees = [t for t in trees if t is not None]
        assert len(trees) == 16
        trees += [("x",), (("x",), 'say "it\'s"', ("a", (1.5,)))]
        for tree in trees:
            assert cli._tree_text(tree) == repr(tree)

    def test_tree_text_of_deep_tree(self):
        tree = ("N", "dog")
        for _ in range(5000):
            tree = ("S", ("N", "dog"), tree)
        assert cli._tree_text(tree) == \
            "('S', ('N', 'dog'), " * 5000 + "('N', 'dog')" + ")" * 5000

    def test_skipparse_negative_max_skips_is_usage_error(self, capsys):
        status, out, err = run(capsys, "skipparse", "the", "um", "dog", "barks",
                               "--grammar", str(fixtures.path("toy.cfg")), "--max-skips", "-1")
        assert status == 2 and out == "" and "--max-skips" in err

    def test_prefsem_rank(self, tmp_path, capsys):
        exprs = tmp_path / "agents.il"
        exprs.write_text("(r / SAY-EVENT :AGENT (k / ROCK))\n"
                         "(p / SAY-EVENT :AGENT (q / PERSON))\n"
                         "(o / SAY-EVENT :AGENT (g / ORGANIZATION))\n")
        status, out, _err = run(capsys, "prefsem", "rank", str(exprs),
                                "--ontology", str(fixtures.path("ontology.ont")))
        assert status == 0
        assert out == "1.0\tp\n0.25\to\n0.01\tr\n"

    def test_postedit_eval(self, tmp_path, capsys, article_tree):
        _docs, instances = postedit.prepare(fixtures.article_corpus(), fixtures.noun_lexicon())
        tree_path, heldout = tmp_path / "tree.dt", tmp_path / "heldout.tsv"
        with tree_path.open("w") as f:
            postedit.save_tree(article_tree, f)
        with heldout.open("w") as f:
            postedit.write_instances(instances, f)
        status, out, _err = run(capsys, "postedit", "eval", str(tree_path), str(heldout))
        assert status == 0
        assert out == "accuracy\t%r\n" % postedit.evaluate(article_tree, instances)

    def test_postedit_train_and_run(self, tmp_path, capsys, monkeypatch):
        tree_path = tmp_path / "tree.dt"
        status, _out, err = run(capsys, "postedit", "train",
                                str(fixtures.path("article_corpus.txt")),
                                "-o", str(tree_path))
        assert status == 0, err
        monkeypatch.setattr("sys.stdin", stdin("dog barked\n"))
        status, out, _err = run(capsys, "postedit", "run", str(tree_path))
        assert status == 0
        assert out.strip().endswith("dog barked")

    def test_postedit_run_keeps_blank_lines(self, tmp_path, capsys, monkeypatch, article_tree):
        tree_path = tmp_path / "tree.dt"
        with tree_path.open("w") as f:
            postedit.save_tree(article_tree, f)
        monkeypatch.setattr("sys.stdin", stdin("\ndog barked\n"))
        status, out, _err = run(capsys, "postedit", "run", str(tree_path))
        assert status == 0 and out.startswith("\n") and out.strip().endswith("dog barked")

    def test_lm_score_skips_blank_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin("\nthe new company plans\n  \n"))
        status, out, _err = run(capsys, "lm", "score", str(fixtures.path("s8.lm")))
        assert status == 0 and out.count("\n") == 1
        assert out.endswith("\tthe new company plans\n")

    def test_lm_score_reads_universal_newlines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin(b"the new\rcompany plans\r\n"))
        status, out, _err = run(capsys, "lm", "score", str(fixtures.path("s8.lm")))
        assert status == 0
        assert [line.split("\t")[1] for line in out.splitlines()] == ["the new", "company plans"]

    def test_lm_score_deterministic(self, capsys, monkeypatch):
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", stdin("the new company plans\n"))
            status, out, _err = run(capsys, "lm", "score", str(fixtures.path("s8.lm")))
            assert status == 0
        # identical invocations print identical scores
        monkeypatch.setattr("sys.stdin", stdin("the new company plans\n"))
        _s, out1, _e = run(capsys, "lm", "score", str(fixtures.path("s8.lm")))
        monkeypatch.setattr("sys.stdin", stdin("the new company plans\n"))
        _s, out2, _e = run(capsys, "lm", "score", str(fixtures.path("s8.lm")))
        assert out1 == out2


class TestDemos:
    def test_demo_s8_lines(self, capsys):
        status, out, _err = run(capsys, "demo", "s8")
        assert status == 0
        lines = out.splitlines()
        assert '"The new companies will have as a purpose launching at February."' in lines
        assert '"The new company plans to establish in February."' in lines

    def test_demo_s3_lines(self, capsys):
        status, out, _err = run(capsys, "demo", "s3")
        assert status == 0
        lines = out.splitlines()
        assert '"...planned economy ages is threadbare..."' in lines
        assert '"...planned economy times are old..."' in lines

    def test_demo_translit_lines(self, capsys):
        status, out, _err = run(capsys, "demo", "translit")
        assert status == 0
        assert '"clinton"' in out and '"stepper motor"' in out

    def test_demos_are_bit_identical_across_runs(self, capsys):
        for name in ("s3", "s8", "translit"):
            _s, out1, _e = run(capsys, "demo", name)
            _s, out2, _e = run(capsys, "demo", name)
            assert out1 == out2

    def test_seed_env_override_changes_random_line_only(self, capsys, monkeypatch):
        monkeypatch.setenv("GAPFILL_SEED", "3")
        _s, seeded, _e = run(capsys, "demo", "s8")
        assert '"The new company plans to establish in February."' in seeded
        monkeypatch.delenv("GAPFILL_SEED")


class TestFixtureConstruction:
    def test_derived_artifacts_match_rebuild(self, tmp_path):
        rebuilt = fixtures.rebuild()
        assert fixtures.rebuild(tmp_path) == rebuilt
        assert sorted(rebuilt) == sorted(fixtures.DERIVED)
        for name, text in rebuilt.items():
            assert fixtures.path(name).read_text() == text, name
            assert (tmp_path / name).read_bytes() == fixtures.path(name).read_bytes(), name

    def test_bundled_models_supported_by_oracle(self):
        # The constructed corpora must make the bundled bigram models
        # prefer the showcase sentences over every other lattice path.
        from gapfill import extract as X
        for which, target in (("s8", "the new company plans to establish in February ."),
                              ("s3", "planned economy times are old")):
            lat = fixtures.demo_lattice(which)
            model = fixtures.demo_model(which)
            oracle = X.brute_force_nbest(lat, model, 1)
            assert oracle.ranked[0][0] == target
