import json
import re
import shlex
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from lag import metrics, store
from lag.cli import build_parser, main
from lag.datasets import TaskRecord, save_tasks
from lag.metrics import EvalReport
from lag.store import LogStore
from lag.synth import build_reuse_suite
from tests.conftest import FailingFile

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def suite_files(tmp_path):
    seen, unseen = build_reuse_suite()
    seen_path = tmp_path / "seen.jsonl"
    unseen_path = tmp_path / "unseen.jsonl"
    save_tasks(seen, seen_path)
    save_tasks(unseen, unseen_path)
    return seen_path, unseen_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def ingest_suite(seen_path, store, strategy="last_round"):
    return run_cli(
        "ingest", "--dataset", seen_path, "--store", store, "--split", "all",
        "--generator", "synth-hop", "--strategy", strategy, "--k-docs", "1",
        "--max-steps", "8",
    )


def test_ingest_split_seventy_percent(tmp_path):
    tasks = [
        TaskRecord(id=str(i), question=f"What is the r{i} of e{i}?", answers=[f"v{i}"],
                   corpus=[(f"e{i} r{i}", f"The r{i} of e{i} is v{i}.")])
        for i in range(10)
    ]
    dataset = tmp_path / "ten.jsonl"
    save_tasks(tasks, dataset)
    assert run_cli(
        "ingest", "--dataset", dataset, "--store", tmp_path / "store",
        "--generator", "synth-hop", "--seed", "0", "--k-docs", "1",
    ) == 0
    assert {p.name for p in (tmp_path / "store").iterdir()} == {"entries.lag", "offsets.idx"}
    assert LogStore(tmp_path / "store").count == 7


def test_ingest_rerun_is_byte_identical(tmp_path, suite_files):
    seen_path, _ = suite_files
    assert ingest_suite(seen_path, tmp_path / "s1") == 0
    assert ingest_suite(seen_path, tmp_path / "s2") == 0
    a = (tmp_path / "s1" / "entries.lag").read_bytes()
    b = (tmp_path / "s2" / "entries.lag").read_bytes()
    assert a == b


def test_last_action_store_is_smaller_than_last_round(tmp_path, suite_files):
    seen_path, _ = suite_files
    ingest_suite(seen_path, tmp_path / "act", strategy="last_action")
    ingest_suite(seen_path, tmp_path / "rnd", strategy="last_round")
    size_action = (tmp_path / "act" / "entries.lag").stat().st_size
    size_round = (tmp_path / "rnd" / "entries.lag").stat().st_size
    assert size_action < size_round


def test_run_standard_matches_expected_iterations(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    out = tmp_path / "std.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all",
        "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8",
        "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert [r.iterations for r in report.rows] == [4, 4, 4, 4]
    assert report.mean_em == 1.0


def test_a_failed_write_exits_3_and_keeps_what_was_written(tmp_path, suite_files, monkeypatch):
    seen_path, unseen_path = suite_files
    out = tmp_path / "std.json"
    run = ("run", "--dataset", unseen_path, "--split", "all", "--generator", "synth-hop",
           "--k-docs", "1", "--max-steps", "8", "--out", out)
    assert run_cli(*run) == 0
    report = out.read_bytes()

    def failing_open(*args, **kwargs):  # the third write of each file fails
        return FailingFile(open(*args, **kwargs), "write", succeeds=2)

    monkeypatch.setattr(metrics, "open", failing_open, raising=False)
    monkeypatch.setattr(store, "open", failing_open, raising=False)
    assert run_cli(*run) == 3
    assert out.read_bytes() == report
    assert ingest_suite(seen_path, tmp_path / "store") == 3
    assert LogStore(tmp_path / "store").count == 2


def test_run_lag_kv_reduces_iterations(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store")
    out_std = tmp_path / "std.json"
    out_lag = tmp_path / "lag.json"
    run_cli(
        "run", "--dataset", unseen_path, "--split", "all",
        "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8",
        "--out", out_std,
    )
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all",
        "--store", tmp_path / "store", "--generator", "synth-hop",
        "--k-docs", "1", "--k-logs", "3", "--max-steps", "8",
        "--out", out_lag,
    ) == 0
    std = EvalReport.load(out_std)
    lag = EvalReport.load(out_lag)
    assert lag.mean_iterations < std.mean_iterations
    flagship = {r.id: r.iterations for r in lag.rows}
    assert flagship["f0-unseen"] == 2


def test_run_reasoning_family_defaults_to_cap_three(tmp_path):
    tasks = [TaskRecord(id="r1", question="Pick one?", answers=["(A)"],
                        choices=["x", "y"])]
    dataset = tmp_path / "mc.jsonl"
    save_tasks(tasks, dataset)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"scripts": {}, "default": ["no tags, keep going"]}))
    out = tmp_path / "mc.json"
    assert run_cli(
        "run", "--dataset", dataset, "--split", "all",
        "--generator", f"scripted:{script}", "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert report.rows[0].iterations == 3
    assert report.rows[0].answered is False


def test_eval_single_and_pair(tmp_path, suite_files, capsys):
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store")
    out_std, out_lag = tmp_path / "std.json", tmp_path / "lag.json"
    run_cli("run", "--dataset", unseen_path, "--split", "all",
            "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8",
            "--out", out_std)
    run_cli("run", "--dataset", unseen_path, "--split", "all",
            "--store", tmp_path / "store", "--generator", "synth-hop", "--k-docs", "1",
            "--k-logs", "3", "--max-steps", "8", "--out", out_lag)
    capsys.readouterr()

    assert run_cli("eval", out_std) == 0
    single = capsys.readouterr().out
    assert "EM" in single and "#Iter." in single

    assert run_cli("eval", out_std, out_lag) == 0
    pair = capsys.readouterr().out
    assert "I->C" in pair and "total improvement" in pair

    assert run_cli("eval", out_std, out_std) == 0
    same = capsys.readouterr().out
    assert "p = 1" in same


def test_store_inspect(tmp_path, suite_files, capsys):
    seen_path, _ = suite_files
    ingest_suite(seen_path, tmp_path / "store")
    capsys.readouterr()
    assert run_cli("store", "inspect", "--store", tmp_path / "store") == 0
    out = capsys.readouterr().out
    assert "entries: 4" in out
    assert "payload bytes:" in out


def test_histogram_counts_each_strategy_of_a_mixed_store(tmp_path, suite_files, capsys):
    seen_path, _ = suite_files
    ingest_suite(seen_path, tmp_path / "store", strategy="last_round")
    capsys.readouterr()
    ingest_suite(seen_path, tmp_path / "store", strategy="last_action")
    ingested = capsys.readouterr().out.splitlines()
    assert ingested[0] == f"store {tmp_path / 'store'}"
    assert ingested[1:4] == ["  version: 1", "  entries: 8", "  embedding dim: 256"]
    assert ingested[-2:] == ["  strategy last_action: 4", "  strategy last_round: 4"]
    assert run_cli("store", "inspect", "--store", tmp_path / "store") == 0
    assert capsys.readouterr().out.splitlines() == ingested


def test_run_over_a_mixed_store_names_every_strategy(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store", strategy="last_round")
    ingest_suite(seen_path, tmp_path / "store", strategy="last_action")
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all", "--store", tmp_path / "store",
        "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8", "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert (report.mode, report.strategy) == ("lag_kv", "last_action+last_round")


def test_empty_store_summary_says_none(tmp_path, suite_files, capsys):
    seen_path, _ = suite_files
    assert run_cli(
        "ingest", "--dataset", seen_path, "--store", tmp_path / "store",
        "--seen-fraction", "0", "--generator", "synth-hop",
    ) == 0
    ingested = capsys.readouterr().out
    assert run_cli("store", "inspect", "--store", tmp_path / "store") == 0
    inspected = capsys.readouterr().out
    assert inspected == ingested
    assert "None" not in inspected
    assert "  embedding dim: none" in inspected and "  fingerprint: none" in inspected


@pytest.mark.parametrize("command", ["selftest", "sweep"])
def test_deleted_command_is_gone(tmp_path, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--dataset", tmp_path / "all.jsonl", "--out", out, "--k", "0,1")
    assert exc.value.code == 2
    assert not out.exists()


def test_bad_ingest_flag_leaves_no_store(tmp_path, suite_files):
    seen_path, _ = suite_files
    for flags in (("--k-docs", "-1"), ("--max-steps", "0")):
        store = tmp_path / "store"
        assert run_cli(
            "ingest", "--dataset", seen_path, "--store", store, "--split", "all",
            "--generator", "synth-hop", *flags,
        ) == 2
        assert not store.exists()


@pytest.mark.parametrize("dataset", ["latin1", "directory"])
def test_unreadable_dataset_is_an_input_error(tmp_path, capsys, dataset):
    path = tmp_path / "tasks.jsonl"
    if dataset == "latin1":
        path.write_bytes('{"id": "a", "question": "Qu\u00e9?", "answers": ["x"]}\n'
                         .encode("latin-1"))
    else:
        path.mkdir()
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", path, "--split", "all",
        "--generator", "synth-hop", "--out", out,
    ) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


def test_exit_code_config_error(tmp_path, suite_files):
    seen_path, _ = suite_files
    code = run_cli(
        "ingest", "--dataset", seen_path, "--store", tmp_path / "s",
        "--generator", "bogus",
    )
    assert code == 2


def test_exit_code_input_error(tmp_path):
    code = run_cli(
        "run", "--dataset", tmp_path / "missing.jsonl", "--split", "all",
        "--generator", "synth-hop", "--out", tmp_path / "o.json",
    )
    assert code == 3


def test_exit_code_backend_error(tmp_path, suite_files):
    seen_path, _ = suite_files
    code = run_cli(
        "ingest", "--dataset", seen_path, "--store", tmp_path / "s", "--split", "all",
        "--strategy", "last_round_text", "--generator", "http://127.0.0.1:1/gen",
        "--timeout", "0.2", "--retries", "0",
    )
    assert code == 4


def test_isolated_encoding_end_to_end(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    assert run_cli(
        "ingest", "--dataset", seen_path, "--store", tmp_path / "iso", "--split", "all",
        "--strategy", "last_round/isolated", "--generator", "synth-hop", "--k-docs", "1",
        "--max-steps", "8",
    ) == 0
    with LogStore(tmp_path / "iso") as store:
        assert {e.strategy.encoding for e in store.scan()} == {"isolated"}
    out = tmp_path / "iso.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all",
        "--store", tmp_path / "iso", "--generator", "synth-hop", "--k-docs", "1",
        "--k-logs", "3", "--max-steps", "8", "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert report.mode == "lag_kv"
    assert report.strategy == "last_round/isolated"
    # the header names the strategy once; the saved rows do not repeat it
    assert not any("strategy" in row for row in json.loads(out.read_text())["rows"])
    assert report.mean_em == 1.0


def test_eval_labels_an_unlabelled_run_by_mode_and_strategy(tmp_path, suite_files, capsys):
    seen_path, unseen_path = suite_files
    reports = []
    for i, strategy in enumerate(("last_round", "last_round/isolated")):
        store = tmp_path / f"store{i}"
        assert run_cli(
            "ingest", "--dataset", seen_path, "--store", store, "--split", "all",
            "--strategy", strategy, "--generator", "synth-hop", "--k-docs", "1",
            "--max-steps", "8",
        ) == 0
        reports.append(tmp_path / f"report{i}.json")
        assert run_cli(
            "run", "--dataset", unseen_path, "--split", "all",
            "--store", store, "--generator", "synth-hop", "--k-docs", "1",
            "--k-logs", "3", "--max-steps", "8",
            "--out", reports[-1],
        ) == 0
    capsys.readouterr()
    assert run_cli("eval", *reports) == 0
    runs = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:4]]
    assert runs == ["lag_kv/last_round", "lag_kv/last_round/isolated"]


def test_run_over_a_text_store_is_lag_text(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store", strategy="last_round_text")
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all", "--store", tmp_path / "store",
        "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8", "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert (report.mode, report.strategy) == ("lag_text", "last_round_text")
    assert report.mean_iterations == 3.25


def test_run_with_no_logs_to_inject_is_standard(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store")
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all", "--store", tmp_path / "store",
        "--k-logs", "0", "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8",
        "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert (report.mode, report.strategy) == ("standard", "")
    assert report.mean_iterations == 4.0
    # nor does a run without a store name one, in the report or its rows
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all", "--generator", "synth-hop",
        "--k-docs", "1", "--max-steps", "8", "--out", out,
    ) == 0
    report = EvalReport.load(out)
    assert (report.mode, report.strategy) == ("standard", "")
    rows = json.loads(out.read_text())["rows"]
    assert not any("mode" in row or "strategy" in row for row in rows)


def test_report_with_rows_that_repeat_the_header_still_loads(tmp_path, suite_files, capsys):
    # rows once repeated the report's mode and strategy: nine fields, not seven
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store")
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all", "--store", tmp_path / "store",
        "--generator", "synth-hop", "--k-docs", "1", "--max-steps", "8", "--out", out,
    ) == 0
    data = json.loads(out.read_text())
    for row in data["rows"]:
        assert len(row) == 7
        row.update(mode=data["mode"], strategy=data["strategy"])
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data, indent=2))
    assert EvalReport.load(old).rows == EvalReport.load(out).rows
    capsys.readouterr()
    assert run_cli("eval", out) == 0
    table = capsys.readouterr().out
    assert run_cli("eval", old) == 0
    assert capsys.readouterr().out == table
    assert "lag_kv/last_round" in table


def test_run_report_names_the_store_strategy(tmp_path, suite_files):
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store", strategy="last_action")
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--dataset", unseen_path, "--split", "all",
        "--store", tmp_path / "store", "--generator", "synth-hop", "--k-docs", "1",
        "--max-steps", "8", "--out", out,
    ) == 0
    assert EvalReport.load(out).strategy == "last_action"


def test_exit_code_incompatibility(tmp_path, suite_files):
    seen_path, _ = suite_files
    ingest_suite(seen_path, tmp_path / "store", strategy="last_round_text")
    # appending KV logs to a store of text logs must fail with code 5
    code = run_cli(
        "ingest", "--dataset", seen_path, "--store", tmp_path / "store",
        "--split", "all", "--generator", "synth-hop", "--k-docs", "1",
    )
    assert code == 5


def test_split_defaults_per_command_then_flag():
    for command, default in ((["ingest", "--store", "s"], "seen"),
                             (["run", "--out", "o"], "unseen")):
        argv = [*command, "--dataset", "d"]
        assert build_parser().parse_args(argv).split == default
        assert build_parser().parse_args([*argv, "--split", "all"]).split == "all"


@pytest.mark.parametrize(
    "command, flags",
    [("run", ("--model-seed", "8")), ("run", ("--max-new", "8")),
     ("run", ("--embed-dim", "256")), ("run", ("--config", "f.conf")),
     ("run", ("--mode", "standard")), ("run", ("--strategy", "last_round")),
     ("run", ("--encoding", "isolated")), ("ingest", ("--mode", "lag_text")),
     ("ingest", ("--encoding", "isolated")), ("ingest", ("--strategy", "auto"))],
    ids=["--model-seed", "--max-new", "--embed-dim", "--config", "run--mode",
         "run--strategy", "run--encoding", "ingest--mode", "ingest--encoding",
         "ingest--strategy-auto"],
)
def test_deleted_flag_fails(tmp_path, suite_files, command, flags):
    _, unseen_path = suite_files
    out, store = tmp_path / "o.json", tmp_path / "store"
    target = ("--out", out) if command == "run" else ("--store", store)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--dataset", unseen_path, "--split", "all",
                "--generator", "synth-hop", *flags, *target)
    assert exc.value.code == 2
    assert not out.exists() and not store.exists()


def test_seed_does_not_change_the_embedder(tmp_path, suite_files):
    # a store records no embedder salt, so the split seed must not set one
    seen_path, unseen_path = suite_files
    ingest_suite(seen_path, tmp_path / "store")
    rows = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.json"
        assert run_cli(
            "run", "--dataset", unseen_path, "--split", "all",
            "--store", tmp_path / "store", "--generator", "synth-hop", "--k-docs", "1",
            "--k-logs", "1", "--max-steps", "8", "--seed", seed,
            "--out", out,
        ) == 0
        rows.append(EvalReport.load(out).rows)
    assert rows[0] == rows[1]


class _AnswerHandler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    reply = {"text": "<ans>x</ans>"}

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _AnswerHandler.requests.append(body)
        reply = json.dumps(_AnswerHandler.reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def answer_server():
    server = HTTPServer(("127.0.0.1", 0), _AnswerHandler)
    # a short poll interval, so shutdown() waits 10 ms, not 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _AnswerHandler.requests = []
    _AnswerHandler.reply = {"text": "<ans>x</ans>"}
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()


@pytest.fixture()
def one_task(tmp_path):
    path = tmp_path / "one.jsonl"
    save_tasks([TaskRecord(id="0", question="What is x?", answers=["x"])], path)
    return path


def test_http_ingest_under_the_default_kv_mode(tmp_path, answer_server, one_task):
    # ingest always runs the standard mode, so a text-only generator serves it
    assert run_cli(
        "ingest", "--dataset", one_task, "--store", tmp_path / "store", "--split", "all",
        "--generator", answer_server, "--k-docs", "0",
    ) == 0
    assert len(_AnswerHandler.requests) == 1
    store = LogStore(tmp_path / "store")
    assert store.count == 1
    assert store.get(0).kv is not None


def test_http_run_in_kv_mode_is_refused_before_any_request(
    tmp_path, answer_server, one_task
):
    assert run_cli(
        "ingest", "--dataset", one_task, "--store", tmp_path / "store", "--split", "all",
        "--generator", answer_server, "--k-docs", "0",
    ) == 0
    _AnswerHandler.requests = []
    code = run_cli(
        "run", "--dataset", one_task, "--split", "all", "--store", tmp_path / "store",
        "--generator", answer_server, "--k-docs", "0", "--out", tmp_path / "o.json",
    )
    assert code == 2
    assert _AnswerHandler.requests == []
    assert not (tmp_path / "o.json").exists()


def test_http_run_without_a_store_is_standard(tmp_path, answer_server, one_task):
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", one_task, "--split", "all",
        "--generator", answer_server, "--k-docs", "0", "--out", out,
    ) == 0
    assert len(_AnswerHandler.requests) == 1
    report = EvalReport.load(out)
    assert report.mode == "standard"
    assert [r.em for r in report.rows] == [1]


def test_http_run_over_an_empty_store_is_standard(tmp_path, answer_server, one_task):
    # a store with no logs injects nothing, so a text-only generator serves it
    assert run_cli(
        "ingest", "--dataset", one_task, "--store", tmp_path / "store",
        "--seen-fraction", "0", "--generator", answer_server,
    ) == 0
    assert LogStore(tmp_path / "store").count == 0
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", one_task, "--split", "all", "--store", tmp_path / "store",
        "--generator", answer_server, "--k-docs", "0", "--out", out,
    ) == 0
    assert len(_AnswerHandler.requests) == 1
    report = EvalReport.load(out)
    assert (report.mode, report.strategy) == ("standard", "")


@pytest.mark.parametrize("out", ["nodir/r.json", "adir"], ids=["no-parent", "directory"])
def test_unusable_out_is_refused_before_any_request(
    tmp_path, capsys, answer_server, one_task, out
):
    (tmp_path / "adir").mkdir()
    out = tmp_path / out
    assert run_cli(
        "run", "--dataset", one_task, "--split", "all",
        "--generator", answer_server, "--k-docs", "0", "--out", out,
    ) == 3
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert _AnswerHandler.requests == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "one.jsonl"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_malformed_http_reply_fails_the_task_not_the_run(tmp_path, answer_server, one_task):
    _AnswerHandler.reply = {"text": 5}
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", one_task, "--split", "all",
        "--generator", answer_server, "--k-docs", "0", "--out", out,
    ) == 0
    assert len(_AnswerHandler.requests) == 1  # not retried
    [row] = EvalReport.load(out).rows
    assert row.answered is False


@pytest.mark.parametrize(
    "flags",
    [("--retries", "-1", "--split", "all"), ("--timeout", "-1", "--split", "all"),
     ("--timeout", "0", "--split", "all"), ("--timeout", "nan", "--split", "all"),
     ("--timeout", "inf", "--split", "all"), ("--timeout", "1e300", "--split", "all"),
     ("--seen-fraction", "-0.5"), ("--seen-fraction", "1.5")],
    ids=["retries-negative", "timeout-negative", "timeout-zero", "timeout-nan",
         "timeout-inf", "timeout-above-cap", "seen-fraction-negative",
         "seen-fraction-above-one"],
)
def test_out_of_range_numeric_flag_fails_before_any_task(
    tmp_path, capsys, answer_server, one_task, flags
):
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", one_task, "--generator", answer_server,
        "--k-docs", "0", *flags, "--out", out,
    ) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _AnswerHandler.requests == []
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    ['{"scripts": {"What is x?": ["<ans>x</ans>"]', '["a"]',
     '{"scripts": {"What is x?": "<ans>x</ans>"}}', '{"scripts": ["What is x?"]}',
     '{"scripts": {"What is x?": []}}', '{"default": [1]}',
     '{"scripts": {"What is x?": ["<ans>\\ud800</ans>"]}}'],
    ids=["truncated", "top-level-list", "reply-not-list", "scripts-not-object",
         "replies-empty", "default-not-strings", "reply-not-unicode"],
)
def test_malformed_script_file_is_an_input_error(tmp_path, capsys, one_task, content):
    script = tmp_path / "script.json"
    script.write_text(content)
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", one_task, "--split", "all",
        "--generator", f"scripted:{script}", "--k-docs", "0", "--out", out,
    ) == 3
    assert capsys.readouterr().err.startswith(f"error: {script}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "record",
    [[1], {"id": "a", "question": "What is x?", "answers": "abc"},
     {"id": "a", "question": "What is x?", "answers": []},
     {"id": "a", "question": "What is x?", "answers": ["x"], "choices": "abc"}],
    ids=["not-object", "answers-not-list", "answers-empty", "choices-not-list"],
)
def test_malformed_task_record_is_an_input_error(tmp_path, capsys, record):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text(json.dumps(record) + "\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"scripts": {}, "default": ["<ans>foo</ans>"]}))
    out = tmp_path / "o.json"
    assert run_cli(
        "run", "--dataset", dataset, "--split", "all",
        "--generator", f"scripted:{script}", "--out", out,
    ) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_repeated_task_id_names_its_line(tmp_path, capsys):
    # reports and transitions key rows by id, so a repeat would be lost
    dataset = tmp_path / "dup.jsonl"
    record = json.dumps({"id": "a", "question": "What is x?", "answers": ["x"]})
    dataset.write_text(f"{record}\n{record}\n")
    assert run_cli(
        "run", "--dataset", dataset, "--split", "all",
        "--generator", "synth-hop", "--out", tmp_path / "o.json",
    ) == 3
    assert capsys.readouterr().err.startswith(f"error: {dataset}:2: duplicate task id")


def test_malformed_task_record_names_its_line(tmp_path, capsys):
    dataset = tmp_path / "bad.jsonl"
    good = {"id": "a", "question": "What is x?", "answers": ["x"]}
    # a text field holding anything but a JSON string is refused, not str()-ed
    for bad, reason in (
        ([1], "not a JSON object"),
        ({"id": None, "question": None, "answers": ["x"]}, "'id' is not a string: None"),
        ({**good, "answers": [None]}, "answer is not a string: None"),
        ({**good, "corpus": [{"title": None, "text": 5}]}, "corpus title is not a string"),
        ({**good, "corpus": [{"title": "t", "text": 5}]}, "corpus text is not a string: 5"),
        ({**good, "choices": [None, 3]}, "choice is not a string: None"),
        ({**good, "corpus": [{"text": "t"}]}, "malformed task record: 'title'"),
        # JSON's \ud800 escape loads as a lone surrogate, which UTF-8 cannot encode
        ({**good, "question": "What is \ud800?"}, "text is not valid Unicode"),
    ):
        # the first line's own id, so a bad record let through is not refused as a repeat
        dataset.write_text(json.dumps({**good, "id": "0"}) + "\n" + json.dumps(bad) + "\n")
        assert run_cli(
            "run", "--dataset", dataset, "--split", "all",
            "--generator", "synth-hop", "--out", tmp_path / "o.json",
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}:2: ") and reason in err


def test_task_line_that_is_not_json_names_its_line(tmp_path, capsys):
    dataset = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "question": "What is x?", "answers": ["x"]})
    dataset.write_text(f'{good}\n{{"id": "b", "question": \n')
    assert run_cli(
        "run", "--dataset", dataset, "--split", "all",
        "--generator", "synth-hop", "--out", tmp_path / "o.json",
    ) == 3
    assert capsys.readouterr().err.startswith(f"error: {dataset}:2: invalid JSON")


_ROW = {"id": "a", "predicted": "x", "gold": ["x"], "em": 1, "f1": 1.0,
        "iterations": 1, "answered": True, "mode": "standard", "strategy": ""}


@pytest.mark.parametrize(
    "content",
    ['{"rows": [{"id": "a", "f1": 0.0, "iterations": 1, "answered": false}]}',
     '{"mode": "standard", "rows": [', '[]',
     *(json.dumps({"rows": [{**_ROW, **bad}]})
       for bad in ({"answered": "false"}, {"gold": "abc"}, {"em": 0.9},
                   {"f1": float("nan")}, {"f1": float("inf")}, {"f1": 7.5},
                   {"f1": -0.5}, {"iterations": -4})),
     '{"mode": "standard", "label": null, "rows": []}', '{"mode": 5, "rows": []}',
     '{"mode": "standard", "label": "\\ud800", "rows": []}'],
    ids=["row-without-em", "truncated", "top-level-list", "answered-string",
         "gold-string", "em-fraction", "f1-nan", "f1-inf", "f1-above-one",
         "f1-negative", "iterations-negative", "label-null", "mode-int",
         "label-not-unicode"],
)
def test_malformed_report_is_an_input_error(tmp_path, capsys, content):
    report = tmp_path / "report.json"
    report.write_text(content)
    assert run_cli("eval", report) == 3
    assert capsys.readouterr().err.startswith(f"error: {report}: ")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_eval_cap_below_one_fails_before_any_report_is_read(tmp_path, capsys, cap):
    # the report is missing, so reading it first would exit 3
    assert run_cli("eval", "--cap", cap, tmp_path / "a.json", tmp_path / "b.json") == 2
    assert capsys.readouterr().err.startswith("error: --cap")


def readme_commands(blocks=None):
    """Every ``lag ...`` line of the README's bash blocks, continuations
    joined; ``blocks`` keeps only that many of the blocks that hold one."""
    found = [
        [line for line in block.replace("\\\n", " ").splitlines()
         if line.startswith("lag ")]
        for block in re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    ]
    return [cmd for block in [b for b in found if b][:blocks] for cmd in block]


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # the first two blocks: the walkthrough, then the isolated and text runs
    monkeypatch.chdir(tmp_path)
    seen, unseen = build_reuse_suite()
    save_tasks(seen, "seen.jsonl")
    save_tasks(unseen, "unseen.jsonl")
    for command in readme_commands(blocks=2):
        assert main(shlex.split(command, comments=True)[1:]) == 0, command
        printed = capsys.readouterr().out
    iterations = {name: EvalReport.load(f"{name}.json").mean_iterations
                  for name in ("standard", "lag_kv", "isolated", "lag_text")}
    assert iterations == {"standard": 4.0, "lag_kv": 3.25, "isolated": 3.25,
                          "lag_text": 3.25}
    # the last command is the ``lag eval`` over the three log runs
    runs = [line.split()[0] for line in printed.splitlines()[2:5]]
    assert runs == ["lag_kv/last_round", "lag_kv/last_round/isolated",
                    "lag_text/last_round_text"]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
