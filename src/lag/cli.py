"""Command-line entry point: build stores, run tasks, evaluate.

The subcommands mirror the experiment workflow: `ingest` executes the seen
split, fills a log store under one `--strategy` and prints the store's
summary, `run` executes the unseen split against a read-only store in the
mode that store and `--k-logs` imply (`orchestrator.mode_of`) and names in
its report every strategy the store holds (none in `standard` mode), joined
by `+`, `eval` prints tables/transitions/t-tests over saved reports, and
`store inspect` prints the same summary as `ingest`. A grid over
strategies or k is a shell loop over `ingest` and `run` (see README).

Flags are the only input; the generator endpoint's default may also come
from the environment (LAG_ENDPOINT).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from .backends import (
    Backends,
    HashedBagOfWordsEmbedder,
    ReferenceModelGenerator,
    ScriptedGenerator,
)
from .codec import ENCODINGS, FORMAT_VERSION, KINDS, SelectionStrategy
from .config import ModelConfig
from .datasets import load_tasks
from .errors import ConfigurationError, InputError, LagError
from .metrics import (
    EvalReport,
    format_report_table,
    format_transitions,
    paired_ttest,
    split,
    transitions,
)
from .model import build_model
from .orchestrator import RunConfig
from .runner import ingest_tasks, run_tasks
from .store import ENTRIES_NAME, LogStore
from .synth import FactChainGenerator

SPLITS = ("seen", "unseen", "all")
# every strategy by the name reports and `store inspect` print
STRATEGIES = {s.name: s for s in (SelectionStrategy(k, e) for k in KINDS for e in ENCODINGS)}


def _build_generator(args, model):
    spec = args.generator
    if spec == "reference":
        return ReferenceModelGenerator(model)
    if spec == "synth-hop":
        return FactChainGenerator()
    if spec.startswith("scripted:"):
        return ScriptedGenerator.from_file(spec.split(":", 1)[1])
    if spec.startswith(("http://", "https://")):
        from .remote import HttpGeneratorBackend  # only this branch loads urllib/ssl

        return HttpGeneratorBackend(spec, timeout=args.timeout, retries=args.retries)
    raise ConfigurationError(
        f"unknown generator {spec!r}; use reference, synth-hop, "
        "scripted:<path>, or an http(s) endpoint"
    )


def _backends(args) -> Backends:
    model = build_model(ModelConfig())
    generator = _build_generator(args, model)
    embedder = HashedBagOfWordsEmbedder()
    return Backends(generator=generator, embedder=embedder, model=model)


def _pick_split(tasks, args):
    if args.split == "all":
        return tasks
    seen, unseen = split(tasks, args.seed, args.seen_fraction)
    return seen if args.split == "seen" else unseen


def _print_summary(path: str, store: LogStore) -> None:
    """The store's format version, size, shared fingerprint and embedding
    dimension (none while it is empty), and its entry count per strategy."""
    empty = store.count == 0
    print(f"store {path}")
    print(f"  version: {FORMAT_VERSION}")
    print(f"  entries: {store.count}")
    print(f"  embedding dim: {'none' if empty else store.embedding_dim}")
    print(f"  fingerprint: {'none' if empty else store.fingerprint}")
    print(f"  {ENTRIES_NAME} bytes: {(Path(path) / ENTRIES_NAME).stat().st_size}")
    print(f"  payload bytes: {sum(e.payload_nbytes for e in store.scan())}")
    for name, count in sorted(Counter(e.strategy.name for e in store.scan()).items()):
        print(f"  strategy {name}: {count}")


def cmd_ingest(args) -> int:
    tasks = _pick_split(load_tasks(args.dataset), args)
    backends = _backends(args)
    store = ingest_tasks(
        tasks,
        STRATEGIES[args.strategy],
        backends,
        args.store,
        max_steps=args.max_steps,
        k_docs=args.k_docs,
    )
    _print_summary(args.store, store)
    return 0


def cmd_run(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # refuse before any task runs
        raise InputError(f"{out}: --out must name a file in an existing directory")
    tasks = _pick_split(load_tasks(args.dataset), args)
    backends = _backends(args)
    store = LogStore(args.store, mode="r") if args.store else None
    cfg = RunConfig(max_steps=args.max_steps, k_logs=args.k_logs, k_docs=args.k_docs)
    report = run_tasks(tasks, cfg, backends, store, label=args.label)
    report.save(args.out)
    print(format_report_table([report]))
    print(f"report written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.cap is not None and args.cap < 1:
        raise ConfigurationError(f"--cap must be >= 1, got {args.cap}")
    reports = [EvalReport.load(p) for p in args.reports]
    print(format_report_table(reports))
    if len(reports) == 2:
        counts = transitions(reports[0], reports[1], cap=args.cap)
        print(format_transitions(counts))
        a = [float(r.em) for r in reports[0].rows]
        ids = [r.id for r in reports[0].rows]
        by_id = {r.id: float(r.em) for r in reports[1].rows}
        b = [by_id[i] for i in ids]
        try:
            t, p = paired_ttest(a, b)
            print(f"paired t-test on EM: t = {t:.4f}, p = {p:.4g}")
        except LagError as err:
            print(f"paired t-test on EM: {err}")
    return 0


def cmd_store_inspect(args) -> int:
    _print_summary(args.store, LogStore(args.store, mode="r"))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="split seed")
    parser.add_argument("--seen-fraction", type=float, default=0.7)
    parser.add_argument("--k-docs", type=int, default=2)
    parser.add_argument("--max-steps", type=int, default=None,
                        help="iteration cap; default 8 for multi-hop, 3 for reasoning")
    parser.add_argument("--generator",
                        default=os.environ.get("LAG_ENDPOINT", "reference"),
                        help="reference | synth-hop | scripted:<path> | http(s)://...")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="HTTP generator timeout in seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="HTTP generator retry count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lag", description="log-augmented generation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="run the seen split and build a log store")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--split", choices=SPLITS, default="seen")
    p.add_argument("--strategy", default="last_round", choices=STRATEGIES)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="run tasks against a store and write a report")
    p.add_argument("--dataset", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=SPLITS, default="unseen")
    p.add_argument("--label", default="")
    _add_common(p)
    p.add_argument("--k-logs", type=int, default=3)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="summarize reports; two reports add "
                                    "transitions and a paired t-test")
    p.add_argument("reports", nargs="+")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("store", help="store utilities")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    pi = store_sub.add_parser("inspect", help="print a store summary")
    pi.add_argument("--store", required=True)
    pi.set_defaults(func=cmd_store_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LagError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:  # a missing or unreadable path
        print(f"error: {err}", file=sys.stderr)
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
