"""The per-application journal: what each verb writes, replay, folding and failure."""

import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import arlearn.store as store_module
from arlearn.cli import main
from arlearn.daemon import MAX_LINE, dispatch
from arlearn.engine import Engine, context_fingerprint
from arlearn.errors import EngineError
from arlearn.store import open_store

from helpers import F1_INPUT_LITERALS, F1_OUTPUT_LITERALS, F1_ROW_DICTS, cli_env

SCHEMA_PARAMS = {"inputs": F1_INPUT_LITERALS, "outputs": F1_OUTPUT_LITERALS}
THRESH_PARAMS = {"min_support": 0.4, "min_confidence": 0.8, "algorithm": "apriori"}
MATCHING = {"headphones": "yes", "hour": "morning"}


def call(engine, store, verb, key=None, **params):
    request = {"request": verb, "id": 1, "params": params}
    if key is not None:
        request["key"] = key
    return dispatch(request, engine, store)


def ok(response):
    assert response["ok"], response
    return response["result"]


def reopened(root, key):
    return context_fingerprint(open_store(root).contexts()[key])


@pytest.fixture
def served(tmp_path):
    """A trained application behind ``dispatch`` with the store on."""
    engine, store = Engine(), open_store(tmp_path)
    key = ok(call(engine, store, "register_app", name="MusicPlayer"))["key"]
    ok(call(engine, store, "set_input_output", key, **SCHEMA_PARAMS))
    ok(call(engine, store, "load_training_data", key, rows=F1_ROW_DICTS))
    ok(call(engine, store, "generate_rules", key, **THRESH_PARAMS))
    return engine, store, key


class FsyncCount:
    def __init__(self, monkeypatch):
        self.n = 0
        real = os.fsync

        def counting(fd):
            self.n += 1
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)


class TestWhatEachVerbWrites:
    def test_query_appends_one_small_record_and_leaves_the_snapshot(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        before = (tmp_path / key / "meta.json").stat()
        fsyncs = FsyncCount(monkeypatch)
        matched = ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        ok(call(engine, store, "get_current_output", key, inputs={"hour": "evening"}))
        assert fsyncs.n == 2
        records = [json.loads(line) for line in (tmp_path / key / "journal.log").read_text().splitlines()]
        assert [r["op"] for r in records] == ["gco", "gco"]
        epoch = engine.context(key).generation_epoch
        assert records[0]["last_gco"] == {"rule": matched["rule_id"], "epoch": epoch}
        assert records[1]["last_gco"] is None
        assert all(r["generation_epoch"] == epoch for r in records)
        assert (tmp_path / key / "journal.log").stat().st_size < 1024
        after = (tmp_path / key / "meta.json").stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_feedback_appends_one_record(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        fsyncs = FsyncCount(monkeypatch)
        confidence = ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))["confidence"]
        assert fsyncs.n == 1
        last = json.loads((tmp_path / key / "journal.log").read_text().splitlines()[-1])
        assert last["op"] == "feedback"
        assert last["confidence"] == confidence
        assert last["active"] is True
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_manual_insert_appends_only_the_row(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        before = (tmp_path / key / "meta.json").read_bytes()
        fsyncs = FsyncCount(monkeypatch)
        ok(call(engine, store, "set_training_data_row", key, row=F1_ROW_DICTS[0]))
        assert fsyncs.n == 1
        assert (tmp_path / key / "meta.json").read_bytes() == before
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_automated_insert_also_snapshots_the_new_rules(self, tmp_path, served):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        ok(call(engine, store, "set_generation_mode", key, mode="automated"))
        ok(call(engine, store, "set_training_data_row", key, row=F1_ROW_DICTS[2]))
        assert (tmp_path / key / "journal.log").read_bytes() == b""
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_batch_load_fsyncs_once(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        fsyncs = FsyncCount(monkeypatch)
        ok(call(engine, store, "load_training_data", key, rows=F1_ROW_DICTS * 60))
        assert fsyncs.n <= 2
        assert len(open_store(tmp_path).contexts()[key].dataset) == 5 + 300

    def test_row_delete_rewrites_only_the_rows_log(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        narrower = {"inputs": ["headphones:input:{yes,no}", "hour:input:{morning}"], "outputs": F1_OUTPUT_LITERALS}
        assert ok(call(engine, store, "change_inputs_outputs", key, **narrower))["quarantined_rows"] == 2
        quarantine = (tmp_path / key / "quarantine.log").read_bytes()
        assert quarantine
        written = []
        atomic_write = store_module._atomic_write

        def recording(path, text):
            written.append(path.name)
            atomic_write(path, text)

        monkeypatch.setattr(store_module, "_atomic_write", recording)
        assert ok(call(engine, store, "delete_training_data_row", key, match={"headphones": "yes"}))["deleted"] == 1
        assert written == ["rows.log"]
        assert (tmp_path / key / "quarantine.log").read_bytes() == quarantine
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))


def log_bytes(app_dir):
    """The bytes of each file a request could rewrite, or None where it is missing."""
    names = ("meta.json", "rows.log", "quarantine.log")
    return {name: (app_dir / name).read_bytes() if (app_dir / name).exists() else None for name in names}


def journal_ops(app_dir):
    return [json.loads(line)["op"] for line in (app_dir / "journal.log").read_text().splitlines()]


NO_CHANGE = {
    "set_generation_mode": {"mode": "manual"},
    "delete_training_data_row": {"match": {"headphones": None}},
    "load_training_data": {"rows": []},
}


class TestRequestsThatChangeNothing:
    @pytest.mark.parametrize("verb", list(NO_CHANGE))
    def test_writes_one_gco_record_and_leaves_the_rest(self, tmp_path, served, monkeypatch, verb):
        engine, store, key = served
        app_dir = tmp_path / key
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        before = log_bytes(app_dir)
        ops = journal_ops(app_dir)
        fsyncs = FsyncCount(monkeypatch)
        ok(call(engine, store, verb, key, **NO_CHANGE[verb]))
        assert fsyncs.n == 1
        assert journal_ops(app_dir) == ops + ["gco"]
        assert log_bytes(app_dir) == before
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    @pytest.mark.parametrize("verb", list(NO_CHANGE))
    def test_a_failed_record_answers_io_error(self, tmp_path, served, monkeypatch, verb):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        ctx = engine.context(key)
        before = (context_fingerprint(ctx), ctx.state_dict())

        def no_space(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module, "_append", no_space)
        response = call(engine, store, verb, key, **NO_CHANGE[verb])
        assert response["error"]["code"] == "io-error"
        assert (context_fingerprint(ctx), ctx.state_dict()) == before


class TestFeedbackThatLeavesAnEqualRule:
    """Feedback is found by the replaced rule object, never by a changed value."""

    def test_a_positive_verdict_on_a_certain_rule_is_journaled(self, tmp_path, served):
        engine, store, key = served
        assert ok(call(engine, store, "get_current_output", key, inputs=MATCHING))["confidence"] == 1.0
        assert engine.context(key).moved == 0
        ok(call(engine, store, "send_feedback_last_gco", key, verdict="positive"))
        assert engine.context(key).moved != 0
        assert journal_ops(tmp_path / key)[-1] == "feedback"
        assert open_store(tmp_path).contexts()[key].state_dict() == engine.context(key).state_dict()

    def test_a_second_verdict_on_a_moved_rule_is_journaled(self, tmp_path, served):
        engine, store, key = served
        matched = set()
        for _ in range(2):
            matched.add(ok(call(engine, store, "get_current_output", key, inputs={"headphones": "no"}))["rule_id"])
            ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
        assert len(matched) == 1
        assert journal_ops(tmp_path / key).count("feedback") == 2
        reopened_ctx = open_store(tmp_path).contexts()[key]
        assert reopened_ctx.state_dict() == engine.context(key).state_dict()
        assert context_fingerprint(reopened_ctx) == context_fingerprint(engine.context(key))


class TestReplay:
    def test_reopen_replays_queries_and_feedback(self, tmp_path, served):
        engine, store, key = served
        for verdict in ("negative", "positive", "negative"):
            ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
            ok(call(engine, store, "send_feedback_last_gco", key, verdict=verdict))
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        assert engine.context(key).last_gco is not None
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_replaying_a_record_twice_is_harmless(self, tmp_path, served):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
        journal = tmp_path / key / "journal.log"
        journal.write_bytes(journal.read_bytes() * 2)
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_records_of_an_older_epoch_are_ignored(self, tmp_path, served):
        # a crash between a remine's snapshot and the journal's truncation
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        journal = tmp_path / key / "journal.log"
        stale = journal.read_bytes()
        ok(call(engine, store, "generate_rules", key, **THRESH_PARAMS))
        assert journal.read_bytes() == b""
        journal.write_bytes(stale)
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_stale_records_of_the_same_epoch_are_already_in_the_snapshot(self, tmp_path, served):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
        journal = tmp_path / key / "journal.log"
        stale = journal.read_bytes()
        ok(call(engine, store, "set_generation_mode", key, mode="automated"))
        journal.write_bytes(stale)
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_torn_journal_tail_is_dropped_and_cut(self, tmp_path, served, caplog):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        expected = context_fingerprint(engine.context(key))
        journal = tmp_path / key / "journal.log"
        journal.write_bytes(journal.read_bytes() + b'{"generation_epoch": 1, "op": "fee')
        with caplog.at_level(logging.WARNING, logger="arlearn.store"):
            store = open_store(tmp_path)
        assert context_fingerprint(store.contexts()[key]) == expected
        assert any("torn trailing record" in r.message for r in caplog.records)
        # later appends start on a clean line
        engine = Engine.restore(store.contexts().values())
        ok(call(engine, store, "send_feedback_last_gco", key, verdict="positive"))
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_opening_leaves_torn_logs_as_they_are(self, tmp_path, served):
        # a reader such as inspect may run beside a daemon whose append is in flight
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        torn = {
            "rows.log": b'{"inputs": {"head',
            "journal.log": b'{"generation_epoch": 1, "op": "fee',
        }
        for name, tail in torn.items():
            path = tmp_path / key / name
            path.write_bytes(path.read_bytes() + tail)
        on_disk = {name: (tmp_path / key / name).read_bytes() for name in torn}
        open_store(tmp_path)
        assert main(["inspect", "--store", str(tmp_path), "--app", "MusicPlayer"]) == 0
        assert {name: (tmp_path / key / name).read_bytes() for name in torn} == on_disk

    def test_rows_appended_after_a_torn_tail_survive(self, tmp_path, served):
        engine, store, key = served
        rows_log = tmp_path / key / "rows.log"
        rows_log.write_bytes(rows_log.read_bytes() + b'{"inputs": {"head')
        store = open_store(tmp_path)
        store.append_row(key, store.contexts()[key].dataset.rows[0])
        assert len(open_store(tmp_path).contexts()[key].dataset) == 6

    @pytest.mark.parametrize(
        "record",
        [
            {"op": "feedback", "rule": "no-such-rule", "confidence": 0.5, "active": True},
            {"op": "rename", "name": "x"},
            {"op": "gco"},
        ],
    )
    def test_bad_records_of_the_current_epoch_are_corrupt(self, tmp_path, served, record):
        engine, store, key = served
        record["generation_epoch"] = engine.context(key).generation_epoch
        (tmp_path / key / "journal.log").write_text(json.dumps(record) + "\n" + "{}\n")
        with pytest.raises(EngineError) as err:
            open_store(tmp_path)
        assert err.value.code == "corrupt-meta"


class TestFold:
    def test_journal_never_outgrows_the_snapshot(self, tmp_path, served):
        engine, store, key = served
        app_dir = tmp_path / key
        journal_sizes = []
        for n in range(40):
            ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
            if n % 3 == 0:
                ok(call(engine, store, "send_feedback_last_gco", key, verdict="positive"))
            snapshot = (app_dir / "meta.json").stat().st_size
            journal_sizes.append((app_dir / "journal.log").stat().st_size)
            assert journal_sizes[-1] <= snapshot
            assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))
        assert 0 in journal_sizes[1:]  # it was folded at least once
        assert max(journal_sizes) > 0


    def test_a_lost_truncation_after_a_fold_replays_to_the_snapshot(self, tmp_path, served, monkeypatch):
        # A crash after the fold's snapshot, before the journal was emptied,
        # leaves older records of the same epoch on disk.
        engine, store, key = served
        journal = tmp_path / key / "journal.log"
        unfolded = []
        snapshot = store.persist_context

        def persist(ctx):
            unfolded.append(journal.read_bytes())
            snapshot(ctx)

        monkeypatch.setattr(store, "persist_context", persist)
        for n in range(200):
            ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
            if unfolded:
                break
            verdict = "negative" if n % 2 else "positive"
            ok(call(engine, store, "send_feedback_last_gco", key, verdict=verdict))
            if unfolded:
                break
        assert unfolded, "the journal was never folded"
        assert journal.read_bytes() == b""
        journal.write_bytes(unfolded[-1])
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_a_failed_fold_keeps_the_record(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        app_dir = tmp_path / key
        snapshot = (app_dir / "meta.json").stat().st_size

        def broken(path, text):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_atomic_write", broken)
            for _ in range(200):
                ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
                ok(call(engine, store, "send_feedback_last_gco", key, verdict="positive"))
                if (app_dir / "journal.log").stat().st_size > snapshot:
                    break
        assert (app_dir / "journal.log").stat().st_size > snapshot
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))
        # the next record folds
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        assert (app_dir / "journal.log").read_bytes() == b""
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))


def fail_appends(monkeypatch):
    def broken(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store_module, "_append", broken)


class TestFailedJournalWrite:
    def test_failed_query_leaves_memory_as_it_was(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        before = context_fingerprint(engine.context(key))
        with monkeypatch.context() as patch:
            fail_appends(patch)
            response = call(engine, store, "get_current_output", key, inputs={"headphones": "no"})
        assert response["error"]["code"] == "io-error"
        assert context_fingerprint(engine.context(key)) == before
        # the feedback still goes to the match the failed query would have replaced
        ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_failed_feedback_leaves_memory_as_it_was(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        match = ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        before = context_fingerprint(engine.context(key))
        with monkeypatch.context() as patch:
            fail_appends(patch)
            response = call(engine, store, "send_feedback_last_gco", key, verdict="negative")
        assert response["error"]["code"] == "io-error"
        assert context_fingerprint(engine.context(key)) == before
        retried = ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
        assert retried["confidence"] == pytest.approx(match["confidence"] - 0.10)
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))

    def test_failed_fsync_cuts_the_record_from_disk(self, tmp_path, served, monkeypatch):
        engine, store, key = served
        ok(call(engine, store, "get_current_output", key, inputs=MATCHING))
        journal = tmp_path / key / "journal.log"
        on_disk = journal.read_bytes()

        def broken(fd):
            raise OSError(5, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", broken)
            response = call(engine, store, "send_feedback_last_gco", key, verdict="positive")
        assert response["error"]["code"] == "io-error"
        assert journal.read_bytes() == on_disk
        assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))


def test_concurrent_requests_on_one_key_persist_in_memory_order(tmp_path, served):
    engine, store, key = served
    verbs = ["get_current_output", "get_current_output", "send_feedback_last_gco", "generate_rules"]
    errors, failures = [], []

    def client(worker):
        try:
            for n in range(150):
                verb = verbs[(worker + n) % len(verbs)]
                if verb == "get_current_output":
                    params = {"inputs": MATCHING if n % 3 else {"hour": "evening"}}
                elif verb == "send_feedback_last_gco":
                    params = {"verdict": "positive" if n % 2 else "negative"}
                else:
                    params = THRESH_PARAMS
                response = call(engine, store, verb, key, **params)
                if not response["ok"]:
                    errors.append(response["error"]["code"])
        except Exception as exc:  # surfaced after join
            failures.append(exc)

    workers = [threading.Thread(target=client, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not failures
    assert "io-error" not in errors
    assert set(errors) <= {"no-pending-gco", "rule-evicted"}
    assert reopened(tmp_path, key) == context_fingerprint(engine.context(key))
    assert not [p.name for p in (tmp_path / key).iterdir() if p.name.endswith(".tmp")]


def _peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/status"), reason="needs /proc")
def test_over_long_lines_are_refused_in_bounded_memory(tmp_path):
    sock_path = str(tmp_path / "d.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "arlearn.cli", "serve", "--store", str(tmp_path / "store"),
         "--listen", sock_path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=cli_env(),
    )
    try:
        deadline = time.monotonic() + 10
        while True:
            try:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(sock_path)
                break
            except OSError:
                sock.close()
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)
        reader = sock.makefile("rb")

        def send(line: bytes) -> dict:
            sock.sendall(line)
            return json.loads(reader.readline())

        def padded_ping(size: int) -> bytes:
            return ('{"request": "ping", "id": 1, "pad": "' + "x" * size + '"}\n').encode()

        assert send(padded_ping(MAX_LINE - 100))["ok"]
        baseline = _peak_rss_kb(proc.pid)
        answer = send(padded_ping(2 * MAX_LINE))
        assert answer["error"]["code"] == "malformed-request"
        line_kb = 8 * MAX_LINE // 1024
        for _ in range(3):
            assert send(padded_ping(8 * MAX_LINE))["error"]["code"] == "malformed-request"
        assert _peak_rss_kb(proc.pid) - baseline < line_kb
        # the connection stays usable after the rest of each line was dropped
        assert send(b'{"request": "ping", "id": 2}\n') == {"id": 2, "ok": True, "result": "pong"}
        sock.close()
    finally:
        proc.kill()
        proc.wait()
