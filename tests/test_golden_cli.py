"""The golden CLI corpus (tests/golden_cli.py, tests/golden_cli.json): every
committed group of in-process calls still prints the bytes, stderr and exit
codes it gave when the corpus was written.  A failure names each group whose
digest moved; `python tests/golden_cli.py --check` does the same outside
pytest, and `python tests/golden_cli.py` rewrites the file after a change
that moves bytes on purpose."""

import sys

import pytest

import golden_cli
from logsym.cli import _COMMANDS


def test_corpus_covers_every_command_and_session():
    corpus = golden_cli.load()
    groups = corpus["groups"]
    assert {g["command"] for g in groups} - {""} == set(_COMMANDS)
    sessions = {g["session"] for g in groups}
    assert set(golden_cli.SHIPPED) | set(corpus["sessions"]) <= sessions
    assert corpus["sessions"] == golden_cli.STDIN
    for command in _COMMANDS:
        for fmt in ("text", "json"):
            assert any(g["command"] == command and g["format"] == fmt
                       and g["session"] in golden_cli.POOLS for g in groups)
    assert sum(len(g["calls"]) for g in groups) > 2500


def test_golden_digests_unchanged():
    corpus = golden_cli.load()
    changed = golden_cli.changed_groups(corpus)
    version = "%d.%d" % sys.version_info[:2]
    assert not changed, "%d of %d groups changed (digests written under CPython %s, run under %s):\n%s" % (
        len(changed), len(corpus["groups"]), corpus["python"], version,
        "\n".join(changed))


def test_a_changed_group_is_named():
    corpus = golden_cli.load()
    keep = [g for g in corpus["groups"] if g["command"] == "curvature"
            and g["session"] in golden_cli.SHIPPED and g["format"] == "text"]
    spoiled = dict(keep[1], sha256="0" * 64)
    named = golden_cli.changed_groups({"groups": [keep[0], spoiled]})
    assert named == [golden_cli.group_key(spoiled)]


def test_duplicate_group_keys_are_refused(tmp_path, monkeypatch):
    corpus = golden_cli.load()
    full = next(g for g in corpus["groups"] if g["command"] == "curvature"
                and g["session"] == golden_cli.SHIPPED[0] and g["format"] == "text")
    cut = dict(full, calls=full["calls"][:1])
    twice = {"groups": [full, cut]}
    with pytest.raises(ValueError, match="duplicate group key: curvature"):
        golden_cli.changed_groups(twice)
    monkeypatch.setattr(golden_cli, "CORPUS", tmp_path / "golden_cli.json")
    with pytest.raises(ValueError, match="duplicate group key"):
        golden_cli.write(twice["groups"])
    assert not golden_cli.CORPUS.exists()
