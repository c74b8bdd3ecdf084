"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import work  # noqa: E402


# -- percentiles ------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 90) == 90
    assert spans.percentile(list(reversed(values)), 90) == 90
    assert spans.percentile([7.0], 90) == 7.0
    assert spans.median([3, 1, 2, 10]) == 2.5


def test_ten_beyond_the_90th_percentile():
    assert spans.samples_beyond(100, 90) == 10
    assert spans.samples_beyond(99, 90) == 9
    assert spans.reportable_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        spans.reportable_percentile(list(range(99)), 90)
    # The loop's minimum item count is what makes p90 reportable.
    assert spans.samples_beyond(run.MIN_ITEMS, 90) >= spans.MIN_BEYOND


# -- speed adjustment ---------------------------------------------------------

def test_speed_factor_scales_to_the_reference_probe():
    ref = run.PROBE_REF_S
    assert run.speed_factor(ref, ref) == pytest.approx(1.0)
    # A machine running at half speed doubles the probe; its times halve.
    assert run.speed_factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert run.speed_factor(ref, 3 * ref) == pytest.approx(0.5)


def test_in_flight_probes_sample_a_long_item_and_stop():
    import signal
    sampler = run.InFlightProbes()
    before = signal.getsignal(signal.SIGALRM)
    with sampler.armed():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(sampler.probes) >= 3
    assert 0 < sampler.spent(t0, t1) < t1 - t0
    assert sampler.spent(t1, t1 + 1.0) == 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


class _Instant:
    """A workload whose items and checks take no time (or `check_s`)."""

    def __init__(self, check_s=0.0):
        self.check_s = check_s

    def run(self, _state, payload):
        return payload

    def check(self, _state, _item, _out):
        time.sleep(self.check_s)
        return {"ok": True}


def test_a_quick_check_lets_the_next_item_reuse_the_probe(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "speed_probe", lambda: calls.append(1) or run.PROBE_REF_S)
    items = [work.Item(i) for i in range(5)]
    done = run.run_items(_Instant(), None, items, in_flight=False)
    assert done.n == 5 and len(calls) == 6
    calls.clear()
    run.run_items(_Instant(check_s=0.005), None, items, in_flight=False)
    assert len(calls) == 10


def test_speed_probe_leaves_the_collector_as_it_was():
    import gc
    assert gc.isenabled()
    assert run.speed_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        run.speed_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- self time ----------------------------------------------------------------

def _span(name, start, end, parent, item=0):
    return [name, start, end, parent, item]


def test_self_time_subtracts_nested_children():
    recorded = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),   # grandchild: counts against b only
        _span("b", 5.0, 6.0, 0),   # b again: a repeated span
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    totals, per_item = spans.summarize(recorded)
    assert totals["b"] == pytest.approx([3.0, 2, 4.0])
    assert per_item[0]["a"] == pytest.approx([6.0, 1, 10.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [_span("a", 0.0, 10.0, -1), _span("b", 2.0, 6.0, 0), _span("c", 4.0, 12.0, 0)]
    # Children cover [2, 10] inside the parent: 8 of its 10.
    assert spans.self_times(recorded)[0] == pytest.approx(2.0)


class _Layer:
    """Stands in for a gapfill module: functions that call each other
    through module attributes."""

    @staticmethod
    def outer(n):
        time.sleep(0.002)
        return [_Layer.inner() for _ in range(n)]

    @staticmethod
    def inner():
        time.sleep(0.001)
        return 1

    @staticmethod
    def recursive(n):
        return 0 if n == 0 else 1 + _Layer.recursive(n - 1)

    @staticmethod
    def broken():
        raise KeyError("x")


_Layer.__name__ = "fake.layer"


def test_tracer_records_nested_and_repeated_calls():
    tracer = spans.Tracer()
    targets = [(_Layer, "outer", None), (_Layer, "inner", None), (_Layer, "recursive", None)]
    with tracer.installed(targets):
        tracer.recording = True
        tracer.item = 3
        assert _Layer.outer(3) == [1, 1, 1]
        assert _Layer.recursive(5) == 5
        tracer.recording = False
        _Layer.inner()  # not recording: no span
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["layer.outer"] + ["layer.inner"] * 3 + ["layer.recursive"]
    assert all(s[spans.ITEM] == 3 for s in tracer.spans)
    totals, _ = spans.summarize(tracer.spans)
    own, calls, inclusive = totals["layer.outer"]
    assert calls == 1
    assert own == pytest.approx(inclusive - totals["layer.inner"][2])
    assert 0.002 <= own < inclusive


def test_tracer_counts_an_error_once():
    tracer = spans.Tracer()
    with tracer.installed([(_Layer, "broken", None), (_Layer, "outer", None)]):
        tracer.recording = True
        with pytest.raises(KeyError):
            _Layer.broken()
    assert tracer.errors == {"layer": 1}
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)


# -- wrapper removal ------------------------------------------------------------

def _public_functions():
    return {(module, fn): getattr(importlib.import_module("gapfill." + module), fn)
            for module, fns in run.TRACED for fn in fns}


def test_wrappers_are_removed_even_when_the_block_raises():
    before = _public_functions()
    tracer = spans.Tracer()
    targets = [(importlib.import_module("gapfill." + m), fn, None) for m, fn in before]
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(_public_functions()[k] is not f for k, f in before.items())
            raise RuntimeError
    assert _public_functions() == before


def test_traced_run_restores_the_program(capsys):
    before = _public_functions()
    assert run.main(["--workload", "translit", "--seed", "4", "--seconds", "0.01",
                     "--trace", "1"]) == 0
    assert _public_functions() == before
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2 * run.MIN_ITEMS
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert result["metrics"]["extract.nbest.letter4.calls"]["value"] == 1.0


# -- generators -------------------------------------------------------------------

def _first(workload, seed, n=12):
    return [(it.payload, it.buckets) for it in itertools.islice(workload.items(seed), n)]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    workload = work.WORKLOADS[name]
    assert _first(workload, 5) == _first(workload, 5)
    assert _first(workload, 5) != _first(workload, 6)
    assert gen.setup_inputs(name, 5) == gen.setup_inputs(name, 5)


def test_generate_corpus_depends_on_the_seed():
    assert gen.setup_inputs("generate", 1) != gen.setup_inputs("generate", 2)


def test_block_plans_fix_the_mix_of_every_prefix():
    ks = [it.buckets["k"] for it in itertools.islice(work.Generate.items(9), 40)]
    assert ks.count("k64") == 8 and ks.count("k8") == 12
    kinds = [it.payload[1] for it in itertools.islice(work.SkipParse.items(9), 20)]
    assert kinds.count("salad") == 4 and kinds.count("filler1") == 6


def test_skipparse_sentence_lengths_follow_the_deck():
    rules, by_tag = gen.toy_grammar()
    for n in (3, 7, 11):
        assert len(gen.noisy_sentence(random.Random(n), rules, by_tag, 3, length=n)) == n + 3
    deck = work.SkipParse.LENGTHS
    items = itertools.islice(work.SkipParse.items(4), 10 * len(deck))
    words = sorted(len(it.payload[0]) - 1 for it in items if it.payload[1] == "filler1")
    assert words == sorted(deck * 3)


def test_translit_inputs_are_distinct_and_start_with_the_pairs():
    head = list(itertools.islice(work.Translit.items(2), 3000))
    texts = [it.payload[0] for it in head]
    assert len(set(texts)) == len(texts)
    pairs = {r for r, _e in gen.bundled_pairs()}
    assert pairs <= set(texts[:work.Translit.PAIRS_WITHIN])


def test_word_salad_has_no_verb_after_a_noun():
    rng = random.Random(3)
    _rules, by_tag = gen.toy_grammar()
    for _ in range(50):
        toks = gen.word_salad(rng, rng.randint(8, 14))
        verbs = [i for i, t in enumerate(toks) if t in by_tag["V"]]
        nouns = [i for i, t in enumerate(toks) if t in by_tag["N"]]
        assert not verbs or not nouns or max(verbs) < min(nouns)


def test_gloss_generator_counts_what_the_compiler_denotes():
    from gapfill import gloss, lattice
    rng = random.Random(8)
    for k in (8, 16):
        parts = gen.gloss_parts(rng, k)
        g = gloss.parse_gloss(gen.render_gloss(parts))
        assert gloss.denoted_count(g) == gen.denoted(parts)
        assert lattice.path_count(gloss.compile_gloss(g)) == gen.denoted(parts)


# -- the declared metrics -------------------------------------------------------

def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert len(spec["per_layer"]) <= 128


def test_predictions_name_only_declared_metrics():
    table = json.loads((HERE / "predictions.json").read_text())
    units = run.per_layer_units()
    assert set(table["workloads"]) == set(run.WORKLOAD_NAMES)
    for row in table["predictions"]:
        assert set(row["per_layer"]) <= set(units), row["id"]
        for metric in row["moves"]:
            assert metric.split(" ")[0] in run.END_TO_END, row["id"]
