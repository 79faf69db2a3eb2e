"""The CLI against the pinned whole-argv corpus (argv_corpus.py): every
argv keeps its exit code and the bytes of its stdout and stderr."""

import json

from argv_corpus import (
    PINNED,
    SUBCOMMANDS,
    TAUS,
    corpus,
    corpus_lines,
    first_difference,
)


def test_cli_outputs_match_the_pinned_argv_corpus():
    # A declared output change regenerates the file with
    # `python tests/argv_corpus.py --write`; --diff PARENT_DIR prints both
    # outputs of the first argv that differs.
    want = PINNED.read_text(encoding="utf-8").splitlines()
    got = corpus_lines()
    index = first_difference(got, want)
    assert index is None, (
        f"record {index} differs:\n"
        f"  got  {got[index] if index < len(got) else None}\n"
        f"  want {want[index] if index < len(want) else None}"
    )


def test_argv_corpus_is_seeded_and_covers_the_cli():
    assert corpus() == corpus()
    records = [json.loads(line) for line in PINNED.read_text().splitlines()]
    assert [r["argv"] for r in records] == corpus()
    commands = {r["argv"][0] for r in records if r["argv"]} - {
        "--version", "--help", "nope"}
    assert commands == set(SUBCOMMANDS)
    exits = {}
    for r in records:
        if r["argv"]:
            exits.setdefault(r["argv"][0], set()).add(r["exit"])
    assert {code for codes in exits.values() for code in codes} == {0, 1, 2}
    # Every certificate subcommand succeeds on every kind of tau, and the
    # undeformed surface gives its mathematical negatives.
    for command in ("certify-trivial", "certify-split", "normal-form", "charge"):
        for kind, values in TAUS.items():
            assert any(
                r["exit"] == 0 and r["argv"][0] == command
                and r["argv"][-2:-1] == ["--tau"] and r["argv"][-1] in values
                for r in records
            ), (command, kind)
    assert 1 in exits["certify-trivial"] and 1 in exits["certify-split"]
