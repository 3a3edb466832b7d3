"""Scoring and analysis: EM/F1, choice accuracy, seen/unseen split,
correct/incorrect/unsolvable transitions, and the paired t-test."""

from __future__ import annotations

import json
import math
import os
import random
import re
import string
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigurationError, DegenerateStatisticError, InputError

_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Open-domain QA normalization: lowercase, drop punctuation and
    articles, collapse whitespace."""
    text = (text or "").lower()
    text = text.translate(_PUNCT_TABLE)
    text = _ARTICLES_RE.sub(" ", text)
    return " ".join(text.split())


def exact_match(pred: str, golds: list[str]) -> int:
    norm = normalize_answer(pred)
    return int(any(norm == normalize_answer(g) for g in golds))


def _token_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1(pred: str, golds: list[str]) -> float:
    """Token-level multiset F1, maximized over the gold list."""
    pred_tokens = normalize_answer(pred).split()
    return max(_token_f1(pred_tokens, normalize_answer(g).split()) for g in golds)


_CHOICE_STRICT = re.compile(r"^\(?([A-Za-z])\)?$")
_CHOICE_ANY = re.compile(r"\(([A-Za-z])\)")


def parse_choice_letter(pred: str) -> str | None:
    """Choice letter of a prediction like "(A)"; a bare letter is accepted
    leniently. None when nothing parses."""
    pred = (pred or "").strip()
    m = _CHOICE_STRICT.match(pred)
    if m:
        return m.group(1).upper()
    hits = _CHOICE_ANY.findall(pred)
    return hits[-1].upper() if hits else None


def choice_accuracy(pred: str, gold: str) -> int:
    """Case-insensitive letter equality; unparseable predictions score 0."""
    letter = parse_choice_letter(pred)
    gold_letter = parse_choice_letter(gold)
    if letter is None or gold_letter is None:
        return 0
    return int(letter == gold_letter)


def split(tasks: list, seed: int = 0, seen_fraction: float = 0.7) -> tuple[list, list]:
    """Deterministic shuffle by seed; the first ceil(fraction * n) tasks are
    the seen partition (used to build the store)."""
    if not 0.0 <= seen_fraction <= 1.0:
        raise ConfigurationError(f"seen fraction must be in [0, 1], got {seen_fraction}")
    order = list(tasks)
    random.Random(seed).shuffle(order)
    n_seen = math.ceil(seen_fraction * len(order))
    return order[:n_seen], order[n_seen:]


# the JSON type of each report row field; a saved row holds all of them, and
# any other key (rows once repeated the report's mode and strategy) is ignored
_ROW_TYPES = {
    "id": str, "predicted": (str, type(None)), "gold": list, "em": int,
    "f1": (int, float), "iterations": int, "answered": bool,
}


@dataclass
class TaskRow:
    id: str
    predicted: str | None
    gold: list[str]
    em: int
    f1: float
    iterations: int
    answered: bool

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "TaskRow":
        row = TaskRow(**{name: data[name] for name in _ROW_TYPES})
        for name, types in _ROW_TYPES.items():
            value = getattr(row, name)
            # a JSON true loads as a Python int too; only the bool field takes it
            if not isinstance(value, types) or isinstance(value, bool) is not (types is bool):
                raise TypeError(f"row field {name!r} holds {value!r:.60}")
        if not all(isinstance(g, str) for g in row.gold):
            raise TypeError(f"row field 'gold' holds {row.gold!r:.60}")
        if row.em not in (0, 1):
            raise ValueError(f"row field 'em' holds {row.em!r}, not 0 or 1")
        if not 0 <= row.f1 <= 1:  # NaN fails this too
            raise ValueError(f"row field 'f1' holds {row.f1!r}, not within [0, 1]")
        if row.iterations < 0:
            raise ValueError(f"row field 'iterations' holds {row.iterations!r}, below 0")
        return row


@dataclass
class EvalReport:
    mode: str
    strategy: str
    rows: list[TaskRow] = field(default_factory=list)
    label: str = ""

    @property
    def mean_em(self) -> float:
        return sum(r.em for r in self.rows) / len(self.rows) if self.rows else 0.0

    @property
    def mean_f1(self) -> float:
        return sum(r.f1 for r in self.rows) / len(self.rows) if self.rows else 0.0

    @property
    def mean_iterations(self) -> float:
        return (
            sum(r.iterations for r in self.rows) / len(self.rows) if self.rows else 0.0
        )

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "strategy": self.strategy,
            "label": self.label,
            "aggregates": {
                "mean_em": self.mean_em,
                "mean_f1": self.mean_f1,
                "mean_iterations": self.mean_iterations,
                "count": len(self.rows),
            },
            "rows": [r.to_json() for r in self.rows],
        }

    def save(self, path: str | Path) -> None:
        """Write the report to a temporary file beside ``path`` and move it
        into place, so a failed write leaves any earlier report whole."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.to_json(), fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def load(path: str | Path) -> "EvalReport":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as err:  # bad JSON or bad UTF-8
                raise InputError(f"{path}: not a JSON file: {err}") from err
        if not isinstance(data, dict):
            raise InputError(f"{path}: expected a report object")
        try:
            rows = [TaskRow.from_json(r) for r in data.get("rows", [])]
        except (KeyError, TypeError, ValueError) as err:
            raise InputError(f"{path}: malformed report row: {err!r}") from err
        header = {name: data.get(name, "") for name in ("mode", "strategy", "label")}
        for name, value in header.items():
            if not isinstance(value, str):
                raise InputError(f"{path}: report field {name!r} holds {value!r:.60}")
        return EvalReport(**header, rows=rows)


CORRECT, INCORRECT, UNSOLVABLE = "C", "I", "U"


def _state(row: TaskRow, cap: int | None) -> str:
    answered = row.answered
    if cap is not None and row.iterations > cap:
        answered = False
    if not answered:
        return UNSOLVABLE
    return CORRECT if row.em == 1 else INCORRECT


def transitions(
    report_a: EvalReport, report_b: EvalReport, cap: int | None = None
) -> dict[str, int]:
    """Counts of state changes from report_a to report_b. A task is
    unsolvable when it produced no answer action within the cap. The
    improvement total is I->C - C->I + U->C - C->U."""
    rows_a = {r.id: r for r in report_a.rows}
    rows_b = {r.id: r for r in report_b.rows}
    if len(rows_a) < len(report_a.rows) or len(rows_b) < len(report_b.rows):
        raise InputError("a report repeats a task id")
    if set(rows_a) != set(rows_b):
        raise InputError("reports cover different task id sets")
    counts = {
        f"{x}->{y}": 0 for x in (INCORRECT, CORRECT, UNSOLVABLE)
        for y in (INCORRECT, CORRECT, UNSOLVABLE) if x != y
    }
    for tid, row_a in rows_a.items():
        sa, sb = _state(row_a, cap), _state(rows_b[tid], cap)
        if sa != sb:
            counts[f"{sa}->{sb}"] += 1
    counts["improvement"] = (
        counts["I->C"] - counts["C->I"] + counts["U->C"] - counts["C->U"]
    )
    return counts


def paired_ttest(scores_a: list[float], scores_b: list[float]) -> tuple[float, float]:
    """Two-sided paired t-test over per-task score differences.

    Identical inputs report (0.0, 1.0); nonzero constant differences have
    zero variance and raise, rather than returning an infinite statistic.
    """
    if len(scores_a) != len(scores_b):
        raise InputError("paired t-test needs equally long score lists")
    n = len(scores_a)
    if n < 2:
        raise InputError("paired t-test needs at least 2 pairs")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    if all(d == 0 for d in diffs):
        return 0.0, 1.0
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise DegenerateStatisticError(
            "score differences are constant and nonzero; t is undefined"
        )
    t = mean / math.sqrt(var / n)
    return t, _student_t_two_sided_p(t, n - 1)


def _student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom: the
    regularized incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2)."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + t2), t2 / (df + t2)  # y = 1 - x without cancellation
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by the
    modified Lentz method (Numerical Recipes, 3rd ed., section 6.4)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0), tiny)
    h = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coef in (even, odd):
            d = 1.0 / _nonzero(1.0 + coef * d, tiny)
            c = _nonzero(1.0 + coef / c, tiny)
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise DegenerateStatisticError("incomplete beta fraction did not converge")


def _nonzero(v: float, tiny: float) -> float:
    return v if abs(v) > tiny else tiny


# -- rendering ---------------------------------------------------------------


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned-column summary, one row per report."""
    headers = ["run", "EM", "F1", "#Iter.", "tasks"]
    rows = [
        [
            r.label or f"{r.mode}" + (f"/{r.strategy}" if r.strategy else ""),
            f"{100 * r.mean_em:.1f}",
            f"{100 * r.mean_f1:.1f}",
            f"{r.mean_iterations:.2f}",
            str(len(r.rows)),
        ]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_transitions(counts: dict[str, int]) -> str:
    return (
        f"I->C {counts['I->C']:+d}  C->I {-counts['C->I']:+d}  "
        f"U->C {counts['U->C']:+d}  C->U {-counts['C->U']:+d}  "
        f"total improvement {counts['improvement']:+d}"
    )
