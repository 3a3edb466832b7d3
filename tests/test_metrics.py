import json
import math
import subprocess
import sys

import pytest

from lag import metrics
from lag.errors import DegenerateStatisticError, InputError
from lag.metrics import (
    EvalReport,
    TaskRow,
    _student_t_two_sided_p,
    choice_accuracy,
    exact_match,
    f1,
    normalize_answer,
    paired_ttest,
    parse_choice_letter,
    split,
    transitions,
)
from tests.conftest import FailingFile, child_env

# hand-computed scoring fixtures (the expected values were worked out by
# applying the normalization rules on paper, not by running the code)
EM_CASES = [
    ("Vito Corleone", ["vito corleone"], 1),
    ("", ["x"], 0),
    ("the answer", ["answer"], 1),
    ("An Apple!", ["apple"], 1),
    ("apple pie", ["apple"], 0),
    ("a  b", ["b"], 1),
    ("don't", ["dont"], 1),
    ("answer", ["wrong", "answer"], 1),
]

F1_CASES = [
    ("same string", ["same string"], 1.0),
    ("the godfather part ii", ["godfather part"], 0.8),  # P=2/3, R=1
    ("alpha beta", ["gamma delta"], 0.0),
    ("p q r", ["q r s"], 2 / 3),  # P = R = 2/3
    ("", [""], 1.0),
    ("x", [""], 0.0),
    ("b b", ["b"], 2 / 3),  # multiset: P=1/2, R=1
    ("x y", ["zzz", "x y"], 1.0),  # max over golds
]

CHOICE_CASES = [
    ("(A)", "(a)", 1),
    ("(B)", "(C)", 0),
    ("B", "(B)", 1),  # lenient bare letter
    ("I pick (C) here", "(C)", 1),
    ("", "(A)", 0),
    ("the answer is (b).", "(B)", 1),
]


@pytest.mark.parametrize("pred,golds,want", EM_CASES)
def test_exact_match(pred, golds, want):
    assert exact_match(pred, golds) == want


@pytest.mark.parametrize("pred,golds,want", F1_CASES)
def test_f1(pred, golds, want):
    assert f1(pred, golds) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("pred,gold,want", CHOICE_CASES)
def test_choice_accuracy(pred, gold, want):
    assert choice_accuracy(pred, gold) == want


def test_f1_case_b_c_by_hand():
    # "a b c" normalizes to "b c" (article removed); gold "b c d"
    # P = 2/2, R = 2/3, F1 = 2*(1)*(2/3)/(1+2/3) = 0.8
    assert f1("a b c", ["b c d"]) == pytest.approx(0.8)


def test_parse_choice_failure_flag():
    assert parse_choice_letter("no letters here 123") is None
    assert parse_choice_letter("(A)") == "A"
    assert parse_choice_letter("b") == "B"


def test_normalization_examples():
    assert normalize_answer("The  Quick, Brown Fox!") == "quick brown fox"
    assert normalize_answer("a an the") == ""


def test_em_implies_f1_one():
    for pred, golds, want in EM_CASES:
        if want == 1:
            assert f1(pred, golds) == 1.0


def test_em_f1_invariant_under_gold_permutation():
    golds = ["alpha", "beta gamma", "delta"]
    for pred in ("beta gamma", "unrelated", "delta"):
        assert exact_match(pred, golds) == exact_match(pred, golds[::-1])
        assert f1(pred, golds) == f1(pred, golds[::-1])


def test_split_ceiling_rule():
    tasks = list(range(10))
    seen, unseen = split(tasks, seed=5)
    assert len(seen) == 7 and len(unseen) == 3
    assert sorted(seen + unseen) == tasks


def test_split_deterministic_and_seed_sensitive():
    tasks = list(range(40))
    a1 = split(tasks, seed=1)
    a2 = split(tasks, seed=1)
    b = split(tasks, seed=2)
    assert a1 == a2
    assert a1 != b
    seen, unseen = a1
    assert set(seen) | set(unseen) == set(tasks)
    assert set(seen) & set(unseen) == set()


def _row(tid, em, answered=True, iterations=1):
    return TaskRow(
        id=tid,
        predicted="p" if answered else None,
        gold=["g"],
        em=em,
        f1=float(em),
        iterations=iterations,
        answered=answered,
    )


def _report(rows):
    return EvalReport(mode="standard", strategy="", rows=rows)


def test_transitions_identical_reports():
    rows = [_row("1", 1), _row("2", 0), _row("3", 0, answered=False)]
    counts = transitions(_report(rows), _report(rows))
    assert all(v == 0 for k, v in counts.items())


def test_transitions_hand_counted():
    before = [_row("1", 0), _row("2", 1), _row("3", 0, answered=False)]
    after = [_row("1", 1), _row("2", 1), _row("3", 1)]
    counts = transitions(_report(before), _report(after))
    assert counts["I->C"] == 1
    assert counts["U->C"] == 1
    assert counts["C->I"] == 0
    assert counts["C->U"] == 0
    assert counts["improvement"] == 2


def test_transitions_table_shaped_fixture():
    # shaped like the paper's Musique row: +64 I->C, -56 C->I, +15 U->C,
    # -3 C->U, total +20
    before, after = [], []
    i = 0
    for _ in range(64):
        before.append(_row(str(i), 0))
        after.append(_row(str(i), 1))
        i += 1
    for _ in range(56):
        before.append(_row(str(i), 1))
        after.append(_row(str(i), 0))
        i += 1
    for _ in range(15):
        before.append(_row(str(i), 0, answered=False))
        after.append(_row(str(i), 1))
        i += 1
    for _ in range(3):
        before.append(_row(str(i), 1))
        after.append(_row(str(i), 0, answered=False))
        i += 1
    for _ in range(160):  # unchanged correct answers
        before.append(_row(str(i), 1))
        after.append(_row(str(i), 1))
        i += 1
    counts = transitions(_report(before), _report(after))
    assert counts["I->C"] == 64
    assert counts["C->I"] == 56
    assert counts["U->C"] == 15
    assert counts["C->U"] == 3
    assert counts["improvement"] == 20


def test_transitions_conservation():
    before = [_row("1", 0), _row("2", 1), _row("3", 0, answered=False), _row("4", 1)]
    after = [_row("1", 1), _row("2", 0, answered=False), _row("3", 0), _row("4", 1)]
    counts = transitions(_report(before), _report(after))
    changed = sum(v for k, v in counts.items() if k != "improvement")
    assert changed == 3


def test_transitions_cap_marks_late_answers_unsolvable():
    before = [_row("1", 1, iterations=9)]
    after = [_row("1", 1, iterations=2)]
    counts = transitions(_report(before), _report(after), cap=8)
    assert counts["U->C"] == 1


def test_transitions_id_mismatch():
    with pytest.raises(InputError):
        transitions(_report([_row("1", 1)]), _report([_row("2", 1)]))


def test_transitions_refuses_a_repeated_id():
    # rows are keyed by id, so a repeated row would drop out of the counts
    before = [_row("1", 0), _row("1", 0), _row("2", 0)]
    after = [_row("1", 1), _row("1", 1), _row("2", 1)]
    with pytest.raises(InputError, match="repeats a task id"):
        transitions(_report(before), _report(after))


def test_ttest_identical_lists():
    t, p = paired_ttest([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert t == 0.0 and p == 1.0


def test_ttest_constant_nonzero_difference():
    with pytest.raises(DegenerateStatisticError):
        paired_ttest([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])


def test_ttest_longhand_five_pairs():
    a = [1.0, 0.0, 1.0, 1.0, 0.0]
    b = [0.0, 0.0, 1.0, 0.0, 1.0]
    # d = [1, 0, 0, 1, -1]; mean 0.2; var = 2.8/4 = 0.7
    want_t = 0.2 / math.sqrt(0.7 / 5)
    t, p = paired_ttest(a, b)
    assert abs(t - want_t) <= 1e-9
    assert p == pytest.approx(0.6213082950374971, rel=1e-10)


# two-sided p = 2 * scipy.stats.t.sf(|t|, df), recorded from scipy 1.17.1
TTEST_P = [
    (0.5345224838248488, 4, 0.6213082950374971),
    (2.0, 1, 0.2951672353008665),
    (2.0, 5, 0.10193947882985835),
    (10.0, 3, 0.0021283990584141503),
    (0.001, 2, 0.9992928933955901),
    (40.0, 100, 2.462107602140071e-63),
]


@pytest.mark.parametrize("t,df,want", TTEST_P)
def test_ttest_p_matches_recorded_student_t(t, df, want):
    assert _student_t_two_sided_p(t, df) == pytest.approx(want, rel=1e-10)
    assert _student_t_two_sided_p(-t, df) == pytest.approx(want, rel=1e-10)


def test_ttest_zero_mean_difference_has_p_one():
    t, p = paired_ttest([1.0, 0.0], [0.0, 1.0])
    assert t == 0.0 and p == 1.0


def test_ttest_input_validation():
    with pytest.raises(InputError):
        paired_ttest([1.0], [1.0])
    with pytest.raises(InputError):
        paired_ttest([1.0, 2.0], [1.0])


def test_report_aggregates_recompute_from_rows(tmp_path):
    rows = [_row("1", 1, iterations=2), _row("2", 0, iterations=4)]
    report = EvalReport(mode="lag_kv", strategy="last_round", rows=rows)
    assert report.mean_em == pytest.approx(0.5)
    assert report.mean_f1 == pytest.approx(0.5)
    assert report.mean_iterations == pytest.approx(3.0)
    path = tmp_path / "r.json"
    report.save(path)
    loaded = EvalReport.load(path)
    assert loaded.mean_em == report.mean_em
    assert [r.id for r in loaded.rows] == ["1", "2"]
    assert loaded.to_json()["aggregates"]["mean_em"] == report.mean_em


def test_a_report_is_saved_as_its_json(tmp_path):
    report = _report([_row("1", 1), _row("2", 0, answered=False)])
    report.save(tmp_path / "r.json")
    want = json.dumps(report.to_json(), indent=2) + "\n"
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == want
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


# json.dump writes the report in chunks, then save writes one newline
@pytest.mark.parametrize(
    "fails, succeeds", [("write", 0), ("write", 5), ("close", 0)],
    ids=["first_write", "mid_write", "close"],
)
def test_a_failed_save_leaves_the_earlier_report_whole(
    tmp_path, monkeypatch, fails, succeeds
):
    path = tmp_path / "r.json"
    _report([_row("1", 1)]).save(path)
    before = path.read_bytes()

    def failing_open(*args, **kwargs):
        return FailingFile(open(*args, **kwargs), fails, succeeds)

    monkeypatch.setattr(metrics, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        _report([_row("1", 0), _row("2", 1)]).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_import_lag_leaves_scipy_stats_unloaded():
    code = (
        "import sys, lag.metrics; assert 'scipy.stats' not in sys.modules; "
        "lag.metrics.paired_ttest([1.0, 0.0, 1.0], [0.0, 0.0, 1.0]); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())
