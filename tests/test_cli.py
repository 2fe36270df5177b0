import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from arlearn.cli import main
from arlearn.store import open_store

from helpers import (
    BINNING_DICT,
    F1_INPUT_LITERALS,
    F1_OUTPUT_LITERALS,
    F1_ROW_DICTS,
    TRACE_SPEC,
    cli_env,
)


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.jsonl"
    lines = [json.dumps({"attributes": F1_INPUT_LITERALS + F1_OUTPUT_LITERALS})]
    lines += [json.dumps(r) for r in F1_ROW_DICTS]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def bins_file(tmp_path):
    path = tmp_path / "bins.json"
    path.write_text(json.dumps(BINNING_DICT))
    return path


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TRACE_SPEC))
    return path


class TestMine:
    def test_f1_rule_list(self, f1_file, capsys):
        assert main(["mine", "--data", str(f1_file), "--minsup", "0.4", "--minconf", "0.8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "{headphones=yes} => {app=music} 0.6 1.0"
        assert len(out) == 3

    def test_apriori_and_maxminer_agree(self, f1_file, capsys):
        outputs = []
        for algo in ("apriori", "maxminer"):
            assert (
                main(
                    ["mine", "--data", str(f1_file), "--minsup", "0.4", "--minconf", "0.8",
                     "--algo", algo]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_stats_direction_on_planted_pattern(self, tmp_path, capsys):
        import random

        from helpers import planted_long_pattern

        data = planted_long_pattern(random.Random(7))
        inputs, outputs = data.schema.to_literals()
        path = tmp_path / "planted.jsonl"
        lines = [json.dumps({"attributes": inputs + outputs})]
        lines += [json.dumps(r.to_dict()) for r in data.rows]
        path.write_text("\n".join(lines) + "\n")

        candidates = {}
        for algo in ("apriori", "maxminer"):
            assert (
                main(
                    ["mine", "--data", str(path), "--minsup", "0.6", "--minconf", "0.8",
                     "--algo", algo, "--stats"]
                )
                == 0
            )
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("stats candidates_generated="))
            candidates[algo] = int(line.split("=")[1])
        assert candidates["maxminer"] < candidates["apriori"]

    def test_empty_data_is_engine_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"attributes": F1_INPUT_LITERALS + F1_OUTPUT_LITERALS}) + "\n")
        assert main(["mine", "--data", str(path), "--minsup", "0.4", "--minconf", "0.8"]) == 3
        assert "empty-training-data" in capsys.readouterr().err

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("definitely not json\n")
        assert main(["mine", "--data", str(path), "--minsup", "0.4", "--minconf", "0.8"]) == 2

    def test_non_text_attribute_literal_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "number-literal.jsonl"
        path.write_text(json.dumps({"attributes": [5]}) + "\n")
        assert main(["mine", "--data", str(path), "--minsup", "0.4", "--minconf", "0.8"]) == 2
        assert "[malformed-line]" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, f1_file):
        assert main(["mine", "--data", str(f1_file)]) == 1


class TestReplayCommand:
    def test_planted_trace_report(self, tmp_path, bins_file, spec_file, capsys):
        trace = tmp_path / "t.trace"
        assert (
            main(["gen-trace", "--spec", str(spec_file), "--seed", "42", "--len", "300",
                  "--out", str(trace)])
            == 0
        )
        capsys.readouterr()
        assert (
            main(["replay", "--trace", str(trace), "--bins", str(bins_file),
                  "--minsup", "0.05", "--minconf", "0.7", "--every", "10"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"rules", "predictions", "precision", "recall"}
        assert report["actions_total"] > 0

    def test_empty_trace(self, tmp_path, bins_file, capsys):
        trace = tmp_path / "empty.trace"
        trace.write_text("")
        assert (
            main(["replay", "--trace", str(trace), "--bins", str(bins_file),
                  "--minsup", "0.1", "--minconf", "0.5"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["predictions"] == []

    def test_missing_binning_file(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("")
        code = main(["replay", "--trace", str(trace), "--bins", str(tmp_path / "nope.json"),
                     "--minsup", "0.1", "--minconf", "0.5"])
        assert code == 2
        assert capsys.readouterr().err


class TestGenTrace:
    def test_deterministic_files(self, tmp_path, spec_file):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        for out in (a, b):
            assert (
                main(["gen-trace", "--spec", str(spec_file), "--seed", "9", "--len", "150",
                      "--out", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"signals": []}))
        assert (
            main(["gen-trace", "--spec", str(spec), "--seed", "1", "--len", "10",
                  "--out", str(tmp_path / "x.trace")])
            == 2
        )

    def test_short_bin_is_invalid_spec(self, tmp_path, capsys):
        spec = dict(TRACE_SPEC, signals=[{"signal": "battery", "kind": "intervals", "bins": [[0, 10]]}])
        path = tmp_path / "short-bin.json"
        path.write_text(json.dumps(spec))
        assert (
            main(["gen-trace", "--spec", str(path), "--seed", "1", "--len", "10",
                  "--out", str(tmp_path / "x.trace")])
            == 2
        )
        assert "[invalid-spec]" in capsys.readouterr().err


    def test_pattern_condition_that_is_not_an_object_is_invalid_spec(self, tmp_path, capsys):
        spec = dict(TRACE_SPEC, patterns=[{"when": 5, "value": "music", "probability": 0.5}])
        path = tmp_path / "number-when.json"
        path.write_text(json.dumps(spec))
        assert (
            main(["gen-trace", "--spec", str(path), "--seed", "1", "--len", "10",
                  "--out", str(tmp_path / "x.trace")])
            == 2
        )
        assert "[invalid-spec]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "when",
        [{"nosuch": "x"}, {"headphones": 5}, {"hour": "12"}],
        ids=["unknown-attribute", "number-value", "label-never-drawn"],
    )
    def test_pattern_that_can_never_fire_is_invalid_spec(self, tmp_path, capsys, when):
        spec = dict(TRACE_SPEC, patterns=[{"when": when, "value": "music", "probability": 0.5}])
        path = tmp_path / "never.json"
        path.write_text(json.dumps(spec))
        assert (
            main(["gen-trace", "--spec", str(path), "--seed", "1", "--len", "10",
                  "--out", str(tmp_path / "x.trace")])
            == 2
        )
        assert "[invalid-spec]" in capsys.readouterr().err
        assert not (tmp_path / "x.trace").exists()


class TestInspect:
    def _seed_store(self, tmp_path):
        from arlearn.daemon import dispatch
        from arlearn.engine import Engine

        engine = Engine()
        store = open_store(tmp_path / "store")
        key = dispatch(
            {"request": "register_app", "id": 1, "params": {"name": "MusicPlayer"}},
            engine,
            store,
        )["result"]["key"]
        dispatch(
            {
                "request": "set_input_output",
                "key": key,
                "id": 2,
                "params": {"inputs": F1_INPUT_LITERALS, "outputs": F1_OUTPUT_LITERALS},
            },
            engine,
            store,
        )
        dispatch(
            {
                "request": "load_training_data",
                "key": key,
                "id": 3,
                "params": {"rows": F1_ROW_DICTS},
            },
            engine,
            store,
        )
        return key

    def test_summary(self, tmp_path, capsys):
        key = self._seed_store(tmp_path)
        assert main(["inspect", "--store", str(tmp_path / "store"), "--app", "MusicPlayer"]) == 0
        out = capsys.readouterr().out
        assert f"key: {key}" in out
        assert "rows: 5" in out
        assert "mode: manual" in out

    def test_epoch_and_moved_rules(self, tmp_path, capsys):
        from arlearn.daemon import dispatch
        from arlearn.engine import Engine

        key = self._seed_store(tmp_path)
        store = open_store(tmp_path / "store")
        engine = Engine.restore(store.contexts().values())
        for verb, params in [
            ("generate_rules", {"min_support": 0.2, "min_confidence": 0.6}),
            ("get_current_output", {"inputs": {"headphones": "yes"}}),
            ("send_feedback_last_gco", {"verdict": "negative"}),
        ]:
            assert dispatch({"request": verb, "key": key, "id": 4, "params": params}, engine, store)["ok"]
        assert main(["inspect", "--store", str(tmp_path / "store"), "--app", "MusicPlayer"]) == 0
        assert "generated: yes\nepoch: 1\nmoved: 1\n" in capsys.readouterr().out

    def test_byte_stable(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["inspect", "--store", str(tmp_path / "store"), "--app", "MusicPlayer"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_unknown_app(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        assert main(["inspect", "--store", str(tmp_path / "store"), "--app", "Ghost"]) == 3
        assert "unknown-app" in capsys.readouterr().err

    def test_never_mutates_the_store(self, tmp_path, capsys):
        self._seed_store(tmp_path)
        root = tmp_path / "store"
        before = {
            str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file()
        }
        assert main(["inspect", "--store", str(root), "--app", "MusicPlayer"]) == 0
        capsys.readouterr()
        after = {
            str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file()
        }
        assert before == after


class TestServeSubprocess:
    def _wait_for_socket(self, path, deadline=10.0):
        start = time.monotonic()
        while time.monotonic() - start < deadline:
            if os.path.exists(path):
                try:
                    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    probe.connect(path)
                    return probe
                except OSError:
                    pass
            time.sleep(0.05)
        raise TimeoutError(f"daemon never bound {path}")

    def test_acknowledged_row_survives_sigkill(self, tmp_path):
        store_root = tmp_path / "store"
        sock_path = str(tmp_path / "d.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "arlearn.cli", "serve", "--store", str(store_root),
             "--listen", sock_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        try:
            sock = self._wait_for_socket(sock_path)
            reader = sock.makefile("r", encoding="utf-8")

            def request(obj):
                sock.sendall((json.dumps(obj) + "\n").encode())
                return json.loads(reader.readline())

            key = request({"request": "register_app", "id": 1, "params": {"name": "Crash"}})[
                "result"
            ]["key"]
            assert request(
                {
                    "request": "set_input_output",
                    "key": key,
                    "id": 2,
                    "params": {"inputs": F1_INPUT_LITERALS, "outputs": F1_OUTPUT_LITERALS},
                }
            )["ok"]
            acked = request(
                {
                    "request": "set_training_data_row",
                    "key": key,
                    "id": 3,
                    "params": {"row": F1_ROW_DICTS[0]},
                }
            )
            assert acked["ok"]
        finally:
            proc.kill()
            proc.wait()
        contexts = open_store(store_root).contexts()
        assert len(contexts[key].dataset) == 1

    def test_sigkill_then_restart_serves_same_state(self, tmp_path):
        store_root = tmp_path / "store"
        sock_path = str(tmp_path / "d.sock")
        args = [sys.executable, "-m", "arlearn.cli", "serve", "--store", str(store_root),
                "--listen", sock_path]
        proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()
        )
        try:
            sock = self._wait_for_socket(sock_path)
            reader = sock.makefile("r")

            def request(obj):
                sock.sendall((json.dumps(obj) + "\n").encode())
                return json.loads(reader.readline())

            key = request({"request": "register_app", "id": 1, "params": {"name": "Restart"}})[
                "result"
            ]["key"]
            request(
                {
                    "request": "set_input_output",
                    "key": key,
                    "id": 2,
                    "params": {"inputs": F1_INPUT_LITERALS, "outputs": F1_OUTPUT_LITERALS},
                }
            )
            request(
                {
                    "request": "load_training_data",
                    "key": key,
                    "id": 3,
                    "params": {"rows": F1_ROW_DICTS},
                }
            )
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()
        )
        try:
            sock = self._wait_for_socket(sock_path)
            reader = sock.makefile("r")
            sock.sendall(
                (
                    json.dumps(
                        {
                            "request": "generate_rules",
                            "key": key,
                            "id": 4,
                            "params": {"min_support": 0.4, "min_confidence": 0.8,
                                       "algorithm": "apriori"},
                        }
                    )
                    + "\n"
                ).encode()
            )
            response = json.loads(reader.readline())
            assert response["ok"]
            assert len(response["result"]["rules"]) == 3
        finally:
            proc.kill()
            proc.wait()
