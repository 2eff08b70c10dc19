"""The correctness gate: tallies, the planted wrong answer, the ledger."""

import random

import pytest

from checks import Ledger, Tally


def test_planted_wrong_answer_fails_the_gate():
    tally = Tally()
    assert tally.op({"ok": True, "ids": [1, 2, 3]}, [1, 2, 3])
    assert tally.correct
    assert not tally.op({"ok": True, "ids": [1, 2]}, [1, 2, 3])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert tally.failed_frac == 0.5
    assert not tally.correct


def test_refusals_and_lost_replies_count_as_failed():
    tally = Tally()
    overloaded = {"ok": False, "error": {"code": "OVERLOADED",
                                         "message": "back off"}}
    assert not tally.op(overloaded)
    assert not tally.op(None)
    assert (tally.failed, tally.refused, tally.wrong) == (2, 1, 0)
    assert not tally.correct


def test_failed_cross_check_fails_the_gate():
    tally = Tally()
    tally.op({"ok": True})
    tally.check("oracle", True)
    assert tally.correct
    tally.check("oracle", False)
    assert not tally.correct


def test_ledger_keeps_the_relation_size_and_reuses_only_acked_ids():
    ledger = Ledger(range(5), range(5, 8))
    assert ledger.next_write(prefer_delete=True) == ("insert", 5)
    op, tid = ledger.next_write(prefer_delete=False)
    assert (op, tid) == ("insert", 6)
    ledger.acknowledged("insert", 5)
    # 6 was never acknowledged: it is neither live nor deletable.
    assert ledger.next_write(prefer_delete=True) == ("delete", 5)
    assert ledger.next_write(prefer_delete=True) == ("insert", 7)
    ledger.acknowledged("delete", 5)
    assert ledger.live == set(range(5))
    assert ledger.next_write(prefer_delete=False) == ("insert", 5)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    from inputs import load_inputs

    return load_inputs(11, 60, 12, str(tmp_path_factory.mktemp("cache")))


def test_ledger_check_against_the_reference_oracle(small_inputs):
    """Answers over the ledger's relation equal evaluate_relation's, and
    a planted wrong answer is caught."""
    from repro.constraints.theta import Theta
    from repro.geometry.predicates import evaluate_relation

    from inputs import distinct_pool

    ledger = Ledger(range(small_inputs.n), small_inputs.extra_tids)
    for i in range(9):
        op, tid = ledger.next_write(prefer_delete=i % 3 == 2)
        ledger.acknowledged(op, tid)
    assert len(ledger.live) == small_inputs.n + 3

    live = sorted(ledger.live)
    oracle = small_inputs.oracle(live)
    pool = distinct_pool(random.Random(3), oracle, 12, (0.10, 0.15))
    relation = small_inputs.relation(live)
    expected = [oracle.answer(q) for q in pool]
    assert all(expected)
    tally = Tally()
    for q, want in zip(pool, expected):
        served = sorted(evaluate_relation(
            relation, q.qtype, q.slope, q.intercept, Theta(q.theta)))
        tally.op({"ok": True, "ids": served}, want)
    assert tally.correct and tally.attempted == len(pool)

    planted = {"ok": True, "ids": expected[4][1:]}
    tally.op(planted, expected[4])
    assert tally.wrong == 1 and not tally.correct


def test_inputs_are_seeded(small_inputs, tmp_path):
    from inputs import load_inputs

    again = load_inputs(11, 60, 12, str(tmp_path))
    assert again.atoms == small_inputs.atoms
    other = load_inputs(12, 60, 12, str(tmp_path))
    assert other.atoms != small_inputs.atoms
