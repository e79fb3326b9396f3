"""Replay every checked-in conformance witness on every test run.

The ``*.jsonl`` files next to this test are deterministic repro scenarios
(see ``docs/TESTING.md``): worst-case convergence paths from the model
checker, channel-fault model-gap scenarios, chaos recovery, and any shrunk
witness of a past divergence.  Each file states its own expectation; a
failure here means either a regression (an ``expect: pass`` file diverged)
or a stale repro (an ``expect: divergence`` file no longer reproduces and
should be deleted or flipped).

Point ``REPRO_CORPUS_DIR`` at another directory to replay an external
corpus (e.g. one emitted by a long fuzz campaign) with the same harness.
"""

import os

import pytest

from repro.verification.conformance import (
    Witness,
    corpus_files,
    replay_witness_file,
    seed_corpus,
)
from repro.verification.conformance.seeds import worst_case_seed

CORPUS_DIR = os.environ.get(
    "REPRO_CORPUS_DIR", os.path.dirname(os.path.abspath(__file__))
)
FILES = corpus_files(CORPUS_DIR)


def test_corpus_is_not_empty():
    assert FILES, f"no witness files in {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", FILES, ids=[os.path.basename(p) for p in FILES]
)
def test_corpus_witness_replays(path):
    outcome = replay_witness_file(path)
    assert outcome.ok, f"{os.path.basename(path)}: {outcome.message}"


def test_seed_corpus_regenerates_checked_in_files(tmp_path):
    """The generator reproduces byte-identical seed files (so regenerating
    after an algorithm change shows up as a reviewable diff)."""
    paths = seed_corpus(str(tmp_path), verify=False)
    for path in paths:
        name = os.path.basename(path)
        checked_in = os.path.join(CORPUS_DIR, name)
        if not os.path.exists(checked_in):
            continue  # external corpus via REPRO_CORPUS_DIR
        with open(path) as regenerated, open(checked_in) as existing:
            assert regenerated.read() == existing.read(), (
                f"{name} is stale — regenerate with "
                f"`python -m repro fuzz seed-corpus`"
            )


@pytest.mark.parametrize("name", ["ssrmin", "dijkstra"])
def test_worst_case_seed_pins_witness_tie_breaking(name):
    """The checker's witness choice -- the first configuration with the
    largest steps-to-Lambda, then the first successor one step closer --
    regenerates the checked-in start and schedule exactly."""
    here = os.path.dirname(os.path.abspath(__file__))
    pinned = Witness.load(os.path.join(here, f"{name}_worst_case_n3.jsonl"))
    witness = worst_case_seed(name)
    assert witness.config == pinned.config
    assert witness.schedule == pinned.schedule

