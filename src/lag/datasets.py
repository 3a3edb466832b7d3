"""Task records and the JSON Lines dataset format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError

KNOWLEDGE = "knowledge"
REASONING = "reasoning"


@dataclass
class TaskRecord:
    id: str
    question: str
    answers: list[str]
    choices: list[str] | None = None
    corpus: list[tuple[str, str]] | None = None

    @property
    def family(self) -> str:
        """Multiple-choice tasks follow the reasoning protocol; everything
        else is treated as open-domain QA."""
        return REASONING if self.choices else KNOWLEDGE


def is_unicode(data) -> bool:
    """Whether every string in a parsed JSON value, keys too, is valid
    Unicode: JSON's ``\\ud800`` escape lets through a lone surrogate, which
    UTF-8 cannot encode."""
    try:
        json.dumps(data, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text(value, field: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"task record {field} is not a string: {value!r:.60}")
    return value


def task_from_json(data) -> TaskRecord:
    if not isinstance(data, dict):
        raise InputError(f"task record is not a JSON object: {data!r:.60}")
    if not is_unicode(data):
        raise InputError("task record text is not valid Unicode (a lone surrogate)")
    answers = data.get("answers")
    if not isinstance(answers, list) or not answers:
        raise InputError(f"task record needs a non-empty 'answers' list: {answers!r:.60}")
    choices = data.get("choices")
    if choices is not None and not isinstance(choices, list):
        raise InputError(f"task record 'choices' is not a list: {choices!r:.60}")
    try:
        corpus = data.get("corpus")
        return TaskRecord(
            id=_text(data["id"], "'id'"),
            question=_text(data["question"], "'question'"),
            answers=[_text(a, "answer") for a in answers],
            choices=[_text(c, "choice") for c in choices] if choices else None,
            corpus=[(_text(d["title"], "corpus title"), _text(d["text"], "corpus text"))
                    for d in corpus] if corpus else None,
        )
    except (KeyError, TypeError) as err:
        raise InputError(f"malformed task record: {err}") from err


def task_to_json(task: TaskRecord) -> dict:
    data: dict = {"id": task.id, "question": task.question, "answers": task.answers}
    if task.choices:
        data["choices"] = task.choices
    if task.corpus:
        data["corpus"] = [{"title": t, "text": x} for t, x in task.corpus]
    return data


def load_tasks(path: str | Path) -> list[TaskRecord]:
    tasks = []
    ids = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    task = task_from_json(json.loads(line))
                except json.JSONDecodeError as err:
                    raise InputError(f"{path}:{line_no}: invalid JSON: {err}") from err
                except InputError as err:
                    raise InputError(f"{path}:{line_no}: {err}") from err
                # reports and transitions key rows by id
                if task.id in ids:
                    raise InputError(f"{path}:{line_no}: duplicate task id {task.id!r}")
                ids.add(task.id)
                tasks.append(task)
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not a UTF-8 file: {err}") from err
    return tasks


def save_tasks(tasks: list[TaskRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(json.dumps(task_to_json(task)) + "\n")
