"""Each demo script runs in-process and prints its headline figures."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

HEADLINES = {
    "01_word_lattices.py": ["after concat: 4"],
    "02_glossing.py": ["denoted sequences: 16", "showcase gloss paths: 65536"],
}


def test_all_eight_demos_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in HEADLINES.get(script.name, ()):
        assert line in lines
