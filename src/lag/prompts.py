"""Prompt templates and rendering for the two task families.

Retrieved log text is prepended only in the lag_text mode; lag_kv delivers
log content through the injected prefix, so its rendered prompt is identical
to the log-free one.
"""

from __future__ import annotations

from .datasets import REASONING, TaskRecord

KNOWLEDGE_BODY = (
    "Do not use your general knowledge. Do not assume the existence of external "
    "knowledge. Do not make any guesses.\n"
    "You are provided with a user question, and information that might be relevant "
    "to the user question.\n"
    "\n"
    "Your task consists of the following steps:\n"
    "1. From the provided information, extract facts that is relevant to the user "
    "question\n"
    "\n"
    "2. Based on the provided information only, determine if you have sufficient "
    "information to answer the user question\n"
    "- If you can determine the answer, output a short answer (in a few words) to "
    "the user question. The short answer must be wrapped in <ans></ans>.\n"
    "- If you cannot determine the answer, output some keywords that can help you "
    "retrieve new information. The keywords must be wrapped in "
    "<keywords></keywords>.\n"
    "\n"
    "Here is the information:\n"
    "{documents}\n"
    "\n"
    "Here is the user question:\n"
    "{question}"
)

REASONING_BODY = (
    "You are provided with a multi-choice question. Your task consists of the "
    "following steps:\n"
    "1. From the provided information, extracts the key insights helpful for "
    "solving the user question\n"
    "\n"
    "2. Break down and solve the question step by step, without relying on the "
    "provided answer choices\n"
    "\n"
    "3. Based on your analysis, determine if you have sufficient information to "
    "identify the single most probable answer\n"
    "- If you can identify the answer, output the answer as the letter "
    "corresponding to the answer choice, placed inside parentheses and wrapped in "
    "<ans></ans> (e.g., <ans>(A)</ans>).\n"
    "- If you cannot identify the answer, output sub-questions that, if solved, "
    "can lead to new information. The sub-questions must be wrapped in "
    "<subquestion></subquestion>.\n"
    "\n"
    "Here is the information:\n"
    "{previous_response}\n"
    "\n"
    "Here is the user question:\n"
    "{question}\n"
    "\n"
    "Here are the multiple-choice answers:\n"
    "{choices}"
)


def render_documents(docs: list[tuple[str, str]]) -> str:
    return "\n\n".join(
        f"Document title: {title}\nDocument content: {text}" for title, text in docs
    )


def render_choices(choices: list[str]) -> str:
    return "\n".join(
        f"({chr(ord('A') + i)}) {choice}" for i, choice in enumerate(choices)
    )


def assemble_prompt(
    task: TaskRecord,
    docs: list[tuple[str, str]],
    text_logs: list[str],
    previous_response: str = "",
) -> list[dict]:
    """One user message per round; accumulated documents (knowledge family)
    or the previous response (reasoning family) ride inside the message, and
    ``text_logs`` (non-empty only in lag_text mode) are prepended to it."""
    if task.family == REASONING:
        body = REASONING_BODY.format(
            previous_response=previous_response,
            question=task.question,
            choices=render_choices(task.choices or []),
        )
    else:
        body = KNOWLEDGE_BODY.format(
            documents=render_documents(docs),
            question=task.question,
        )
    if text_logs:
        body = "\n\n".join(text_logs) + "\n" + body
    return [{"role": "user", "content": body}]
