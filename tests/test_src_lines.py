"""The `src/` line counter, on a small module whose lines are known."""

import ast
from pathlib import Path

import src_lines

FIXTURE = '''\
"""Module docstring,

over three lines."""

# a comment
import os


class Thing:
    """One line."""

    x = "not a docstring"

    def method(self):
        """Two
        lines."""
        return (1,
                2)  # a trailing comment is code


async def run():
    """Async."""
    pass


def bare():
    return os.sep
'''


def test_counts_the_fixture_module():
    # docstrings: lines 1-3, 10, 15-16, 22; other: blank lines and line 5
    assert src_lines.count_lines(FIXTURE) == (10, 7, 10)


def test_docstring_lines_are_the_spans():
    assert src_lines.docstring_lines(ast.parse(FIXTURE)) == {1, 2, 3, 10, 15, 16, 22}


def test_counts_every_token_that_tokenize_yields():
    # encoding, name, op, number, newline, then comment and nl, then endmarker
    assert src_lines.count_tokens("x = 1\n# note\n") == 8
    assert src_lines.count_tokens("") == 2  # encoding and endmarker
    assert src_lines.count_tokens(FIXTURE) == 76


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{tmp_path / 'pkg' / 'a.py'}: 10 / 7 / 10 (27) 76 tokens",
                     f"{tmp_path / 'pkg' / 'b.py'}: 1 / 0 / 1 (2) 7 tokens",
                     "total: 11 / 7 / 11 (29) 83 tokens"]


def test_every_src_module_stays_under_the_parsers_second_doubling():
    """CPython 3.11's parser doubles its token array at 8,192 tokens, and
    every benchmark worker compiles `src/`."""
    over = {}
    for path in src_lines.modules([Path(__file__).resolve().parents[1] / "src" / "fqsim"]):
        tokens = src_lines.count_tokens(path.read_text(encoding="utf-8"))
        if tokens >= 8192:
            over[path.name] = tokens
    assert not over, (
        f"{over} reach 8,192 tokens: by ROADMAP's standing rule, a change that crosses "
        "the step records a peak_rss_mb measurement in CHANGES.md and raises this bound "
        "in the same change")
