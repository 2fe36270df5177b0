import json
import socket
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arlearn.store as store_module
from arlearn.daemon import VERBS, dispatch, make_server, parse_endpoint
from arlearn.engine import Engine, context_fingerprint
from arlearn.store import open_store

from helpers import F1_INPUT_LITERALS, F1_OUTPUT_LITERALS, F1_ROW_DICTS

SCHEMA_PARAMS = {"inputs": F1_INPUT_LITERALS, "outputs": F1_OUTPUT_LITERALS}
THRESH_PARAMS = {"min_support": 0.4, "min_confidence": 0.8, "algorithm": "apriori"}


def call(engine, verb, key=None, store=None, rid="r", **params):
    request = {"request": verb, "id": rid, "params": params}
    if key is not None:
        request["key"] = key
    return dispatch(request, engine, store)


def must_ok(response):
    assert response["ok"], response
    return response["result"]


def must_err(response, code):
    assert not response["ok"], response
    assert response["error"]["code"] == code
    return response


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def app(engine):
    key = must_ok(call(engine, "register_app", name="MusicPlayer"))["key"]
    must_ok(call(engine, "set_input_output", key, **SCHEMA_PARAMS))
    return key


@pytest.fixture
def trained(engine, app):
    must_ok(call(engine, "load_training_data", app, rows=F1_ROW_DICTS))
    must_ok(call(engine, "generate_rules", app, **THRESH_PARAMS))
    return app


class TestDispatchVerbs:
    def test_ping(self, engine):
        assert must_ok(call(engine, "ping")) == "pong"

    def test_full_session_covers_every_verb(self, engine):
        key = must_ok(call(engine, "register_app", name="Session"))["key"]
        must_ok(call(engine, "set_input_output", key, **SCHEMA_PARAMS))
        loaded = must_ok(call(engine, "load_training_data", key, rows=F1_ROW_DICTS))
        assert loaded == {"accepted": 5}
        must_ok(
            call(
                engine,
                "set_training_data_row",
                key,
                row={"inputs": {"headphones": "yes"}, "outputs": {"app": "music"}},
            )
        )
        generated = must_ok(call(engine, "generate_rules", key, **THRESH_PARAMS))
        assert any(
            r["antecedent"] == {"headphones": "yes"} and r["consequent"] == {"app": "music"}
            for r in generated["rules"]
        )
        must_ok(call(engine, "set_generation_mode", key, mode="automated"))
        inferred = must_ok(
            call(engine, "get_current_output", key, inputs={"headphones": "yes"})
        )
        assert inferred["output"] == {"app": "music"}
        feedback = must_ok(call(engine, "send_feedback_last_gco", key, verdict="positive"))
        assert feedback == {"confidence": 1.0}
        deleted = must_ok(
            call(engine, "delete_training_data_row", key, match={"headphones": "no"}, mode="all")
        )
        assert deleted == {"deleted": 2}
        report = must_ok(
            call(
                engine,
                "change_inputs_outputs",
                key,
                inputs=["headphones:input:{yes,no}"],
                outputs=F1_OUTPUT_LITERALS,
            )
        )
        assert report == {"dropped_columns": 1, "quarantined_rows": 0}
        must_ok(call(engine, "delete_training_data", key))
        assert must_ok(call(engine, "ping")) == "pong"
        assert set(VERBS) == {
            "register_app",
            "set_input_output",
            "load_training_data",
            "set_training_data_row",
            "generate_rules",
            "set_generation_mode",
            "get_current_output",
            "send_feedback_last_gco",
            "delete_training_data",
            "delete_training_data_row",
            "change_inputs_outputs",
            "ping",
        }

    def test_generate_rules_empty_data_maps_to_error(self, engine, app):
        must_err(call(engine, "generate_rules", app, **THRESH_PARAMS), "empty-training-data")

    def test_null_output_result(self, engine, trained):
        result = must_ok(call(engine, "get_current_output", trained, inputs={}))
        assert result == {"output": None}

    def test_match_result_carries_rule_identity(self, engine, trained):
        result = must_ok(
            call(engine, "get_current_output", trained, inputs={"headphones": "yes"})
        )
        assert result["rule_id"] == '[["app","music"],["headphones","yes"]]'
        assert result["rule"]["confidence"] == result["confidence"]

    def test_correlation_id_echoed(self, engine):
        response = call(engine, "ping", rid={"nested": [1, 2]})
        assert response["id"] == {"nested": [1, 2]}

    def test_result_and_error_exclusive(self, engine, app):
        ok = call(engine, "ping")
        assert "error" not in ok
        bad = call(engine, "generate_rules", app, **THRESH_PARAMS)
        assert "result" not in bad


class TestDispatchErrors:
    def test_unknown_request(self, engine):
        must_err(call(engine, "frobnicate"), "unknown-request")

    def test_malformed_request_not_object(self, engine):
        must_err(dispatch(["not", "an", "object"], engine), "malformed-request")

    def test_missing_key(self, engine):
        must_err(call(engine, "generate_rules"), "malformed-params")

    def test_missing_name_param(self, engine):
        must_err(call(engine, "register_app"), "malformed-params")

    def test_bad_attribute_literal(self, engine):
        key = must_ok(call(engine, "register_app", name="Bad"))["key"]
        must_err(
            call(engine, "set_input_output", key, inputs=["nope"], outputs=F1_OUTPUT_LITERALS),
            "malformed-params",
        )

    def test_bad_row_object(self, engine, app):
        must_err(
            call(engine, "set_training_data_row", app, row={"inputs": {"a": 1}, "outputs": {}}),
            "malformed-params",
        )

    def test_bad_thresholds(self, engine, app):
        must_err(
            call(engine, "generate_rules", app, min_support=0, min_confidence=0.5),
            "malformed-params",
        )

    def test_bad_mode(self, engine, app):
        must_err(call(engine, "set_generation_mode", app, mode="sometimes"), "malformed-params")

    def test_engine_codes_pass_through(self, engine, app):
        cases = [
            (call(engine, "register_app", name=""), "empty-name"),
            (call(engine, "register_app", name="MusicPlayer"), "duplicate-name"),
            (call(engine, "ping") and call(engine, "set_input_output", "k" * 32, **SCHEMA_PARAMS), "unknown-key"),
            (call(engine, "set_input_output", app, **SCHEMA_PARAMS), "schema-already-set"),
            (
                call(engine, "set_input_output",
                     must_ok(call(engine, "register_app", name="Empty"))["key"],
                     inputs=[], outputs=F1_OUTPUT_LITERALS),
                "invalid-schema",
            ),
            (
                call(engine, "load_training_data",
                     must_ok(call(engine, "register_app", name="NoSchema"))["key"],
                     rows=F1_ROW_DICTS),
                "no-schema",
            ),
            (
                call(engine, "set_training_data_row", app,
                     row={"inputs": {"headphones": "maybe"}, "outputs": {"app": "music"}}),
                "validation-error",
            ),
            (call(engine, "get_current_output", app, inputs={}), "no-rules-generated"),
            (call(engine, "set_generation_mode", app, mode="automated"), "no-generation-config"),
            (call(engine, "send_feedback_last_gco", app, verdict="positive"), "no-pending-gco"),
            (
                call(engine, "delete_training_data_row", app, match={"nope": "x"}, mode="all"),
                "invalid-attribute",
            ),
        ]
        for response, code in cases:
            must_err(response, code)

    def test_rule_evicted_over_wire(self, engine, trained):
        must_ok(call(engine, "get_current_output", trained, inputs={"headphones": "yes"}))
        must_ok(call(engine, "generate_rules", trained, **THRESH_PARAMS))
        must_err(
            call(engine, "send_feedback_last_gco", trained, verdict="positive"),
            "rule-evicted",
        )


class TestPersistence:
    def test_mutations_survive_store_reopen(self, tmp_path, engine):
        store = open_store(tmp_path)
        key = must_ok(call(engine, "register_app", store=store, name="Durable"))["key"]
        must_ok(call(engine, "set_input_output", key, store=store, **SCHEMA_PARAMS))
        must_ok(
            call(
                engine,
                "set_training_data_row",
                key,
                store=store,
                row={"inputs": {"headphones": "yes"}, "outputs": {"app": "music"}},
            )
        )
        # simulate a crash: reopen from disk only
        reloaded = open_store(tmp_path).contexts()
        assert key in reloaded
        assert len(reloaded[key].dataset) == 1

    def test_generate_persists_rules(self, tmp_path, engine):
        store = open_store(tmp_path)
        key = must_ok(call(engine, "register_app", store=store, name="Rules"))["key"]
        must_ok(call(engine, "set_input_output", key, store=store, **SCHEMA_PARAMS))
        must_ok(call(engine, "load_training_data", key, store=store, rows=F1_ROW_DICTS))
        must_ok(call(engine, "generate_rules", key, store=store, **THRESH_PARAMS))
        reloaded = open_store(tmp_path).contexts()[key]
        assert len(reloaded.rules) == 3


def fingerprints(contexts):
    return {ctx.key: context_fingerprint(ctx) for ctx in contexts}


def states(contexts):
    """Each context's ``state_dict``, which, unlike its fingerprint, holds ``moved``."""
    return {ctx.key: ctx.state_dict() for ctx in contexts}


def no_space(*args):
    raise OSError(28, "No space left on device")


# Each mutating verb's request, as (target application, params), and the
# store function its first write goes through: ``_append`` for rows and
# journal records, ``_atomic_write`` for snapshots and compactions.
FAILING_WRITES = {
    "register_app": (None, {"name": "Second"}, "_atomic_write"),
    "set_input_output": ("bare", SCHEMA_PARAMS, "_atomic_write"),
    "load_training_data": ("trained", {"rows": F1_ROW_DICTS}, "_append"),
    "set_training_data_row": ("trained", {"row": F1_ROW_DICTS[2]}, "_append"),
    "generate_rules": ("trained", THRESH_PARAMS, "_atomic_write"),
    "set_generation_mode": ("trained", {"mode": "automated"}, "_atomic_write"),
    "get_current_output": ("trained", {"inputs": {"headphones": "no"}}, "_append"),
    "send_feedback_last_gco": ("trained", {"verdict": "negative"}, "_append"),
    "delete_training_data": ("trained", {}, "_atomic_write"),
    "delete_training_data_row": ("trained", {"match": {"headphones": "no"}, "mode": "all"}, "_atomic_write"),
    "change_inputs_outputs": (
        "trained",
        {"inputs": ["headphones:input:{yes,no}"], "outputs": F1_OUTPUT_LITERALS},
        "_atomic_write",
    ),
}


class TestFailedWrites:
    @pytest.fixture
    def stored(self, tmp_path, engine):
        """A trained application with a pending match, and one without a schema, on a store."""
        store = open_store(tmp_path)
        trained = must_ok(call(engine, "register_app", store=store, name="Trained"))["key"]
        must_ok(call(engine, "set_input_output", trained, store=store, **SCHEMA_PARAMS))
        must_ok(call(engine, "load_training_data", trained, store=store, rows=F1_ROW_DICTS))
        must_ok(call(engine, "generate_rules", trained, store=store, **THRESH_PARAMS))
        must_ok(call(engine, "get_current_output", trained, store=store, inputs={"headphones": "yes"}))
        bare = must_ok(call(engine, "register_app", store=store, name="Bare"))["key"]
        return store, {"trained": trained, "bare": bare}

    @pytest.mark.parametrize("verb", [verb for verb in VERBS if verb != "ping"])
    def test_failed_first_write_leaves_memory_and_disk_as_they_were(
        self, tmp_path, engine, stored, monkeypatch, verb
    ):
        if verb not in FAILING_WRITES:
            pytest.fail(f"no failing-write case for the mutating verb {verb!r}")
        store, apps = stored
        target, params, write = FAILING_WRITES[verb]
        key = apps.get(target)
        before = fingerprints(engine.contexts())
        before_states = states(engine.contexts())
        with monkeypatch.context() as patch:
            patch.setattr(store_module, write, no_space)
            must_err(call(engine, verb, key, store=store, **params), "io-error")
        assert fingerprints(engine.contexts()) == before
        assert states(engine.contexts()) == before_states
        assert fingerprints(open_store(tmp_path).contexts().values()) == before
        assert states(open_store(tmp_path).contexts().values()) == before_states
        must_ok(call(engine, verb, key, store=store, **params))
        assert fingerprints(open_store(tmp_path).contexts().values()) == fingerprints(engine.contexts())

    def test_failed_automated_insert_keeps_the_rules(self, tmp_path, engine, stored, monkeypatch):
        store, apps = stored
        key = apps["trained"]
        must_ok(call(engine, "set_generation_mode", key, store=store, mode="automated"))
        before = context_fingerprint(engine.context(key))
        epoch = engine.context(key).generation_epoch
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_append", no_space)
            must_err(call(engine, "set_training_data_row", key, store=store, row=F1_ROW_DICTS[2]), "io-error")
        assert context_fingerprint(engine.context(key)) == before
        assert engine.context(key).generation_epoch == epoch
        assert context_fingerprint(open_store(tmp_path).contexts()[key]) == before

    def test_failed_snapshot_of_an_automated_insert_cuts_the_rows_back(self, tmp_path, engine, stored, monkeypatch):
        """The appended row is cut off again; a crash between the two writes still leaves it on disk."""
        store, apps = stored
        key = apps["trained"]
        must_ok(call(engine, "set_generation_mode", key, store=store, mode="automated"))
        before, before_states = fingerprints(engine.contexts()), states(engine.contexts())
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_atomic_write", no_space)
            must_err(call(engine, "set_training_data_row", key, store=store, row=F1_ROW_DICTS[2]), "io-error")
        assert (fingerprints(engine.contexts()), states(engine.contexts())) == (before, before_states)
        reopened = open_store(tmp_path).contexts().values()
        assert (fingerprints(reopened), states(reopened)) == (before, before_states)
        must_ok(call(engine, "set_training_data_row", key, store=store, row=F1_ROW_DICTS[2]))
        assert len(open_store(tmp_path).contexts()[key].dataset) == len(engine.context(key).dataset) == 6

    def test_failed_compaction_of_a_migration_writes_the_snapshot_back(self, tmp_path, engine, stored, monkeypatch):
        """The old snapshot is written back; a crash between the two writes still leaves the new one on disk."""
        store, apps = stored
        key = apps["trained"]
        before, before_states = fingerprints(engine.contexts()), states(engine.contexts())
        real = store_module._atomic_write

        def fail_rows(path, text):
            if path.name == "rows.log":
                no_space()
            real(path, text)

        narrower = {"inputs": ["headphones:input:{yes,no}"], "outputs": F1_OUTPUT_LITERALS}
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_atomic_write", fail_rows)
            must_err(call(engine, "change_inputs_outputs", key, store=store, **narrower), "io-error")
        assert (fingerprints(engine.contexts()), states(engine.contexts())) == (before, before_states)
        reopened = open_store(tmp_path).contexts().values()
        assert (fingerprints(reopened), states(reopened)) == (before, before_states)
        assert store.contexts()[key] is engine.context(key)
        must_ok(call(engine, "change_inputs_outputs", key, store=store, **narrower))
        assert fingerprints(open_store(tmp_path).contexts().values()) == fingerprints(engine.contexts())

    @pytest.mark.parametrize("failing", ["meta.json"])
    def test_failed_registration_frees_the_name_and_leaves_no_directory(
        self, tmp_path, engine, monkeypatch, failing
    ):
        store = open_store(tmp_path)
        real = store_module._atomic_write

        def fail_one(path, text):
            if path.name == failing:
                no_space()
            real(path, text)

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_atomic_write", fail_one)
            must_err(call(engine, "register_app", store=store, name="App"), "io-error")
        assert list(tmp_path.iterdir()) == []
        assert engine.key_for_name("App") is None
        assert open_store(tmp_path).contexts() == {}
        key = must_ok(call(engine, "register_app", store=store, name="App"))["key"]
        assert list(open_store(tmp_path).contexts()) == [key]


def request_params(verb, choice):
    """One of a few params for ``verb``, picked by ``choice``."""
    row = F1_ROW_DICTS[choice % len(F1_ROW_DICTS)]
    return {
        "register_app": {"name": ("A", "B")[choice % 2]},
        "set_input_output": SCHEMA_PARAMS,
        "load_training_data": {"rows": F1_ROW_DICTS[choice % 4 :]},
        "set_training_data_row": {"row": row},
        "generate_rules": {
            "min_support": (0.2, 0.4)[choice % 2],
            "min_confidence": 0.5,
            "algorithm": ("apriori", "maxminer", "id3")[choice % 3],
        },
        "set_generation_mode": {"mode": ("automated", "manual")[choice % 2]},
        "get_current_output": {"inputs": (row["inputs"], {"headphones": "yes"}, {})[choice % 3]},
        "send_feedback_last_gco": {"verdict": ("negative", "positive")[choice % 2]},
        "delete_training_data": {},
        "delete_training_data_row": {"match": row["inputs"], "mode": ("first", "all")[choice % 2]},
        "change_inputs_outputs": (
            {"inputs": ["headphones:input:{yes,no}"], "outputs": F1_OUTPUT_LITERALS},
            SCHEMA_PARAMS,
        )[choice % 2],
    }[verb]


def by_name(contexts):
    """Each context's ``state_dict`` and fingerprint under its name, without its random key."""
    described = {}
    for ctx in contexts:
        state, whole = ctx.state_dict(), json.loads(context_fingerprint(ctx))
        del state["key"], whole["key"]
        described[ctx.name] = (state, whole)
    return described


SETUP = [("register_app", 0, 0), ("set_input_output", 0, 0), ("load_training_data", 0, 0), ("generate_rules", 0, 0)]
# feedback needs a match just before it, so queries and feedback are drawn more often
DRAWN_VERBS = [v for v in VERBS if v != "ping"] + ["get_current_output", "send_feedback_last_gco"] * 3
STEPS = st.lists(
    st.tuples(
        st.tuples(st.sampled_from(DRAWN_VERBS), st.integers(0, 1), st.integers(0, 5)),
        st.integers(0, 3).map(lambda n: n == 0),  # whether the request's first store write fails
    ),
    min_size=4,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_dispatch_with_a_store_equals_a_reference_fed_the_acknowledged_requests(steps):
    """Every response and context equals that of a store-less engine given only the acknowledged requests."""
    system, reference = Engine(), Engine()
    keys = {}  # the system's key of each acknowledged application -> the reference's
    armed = []  # while it holds a value, the next store write fails

    def first_write_fails(real):
        def write(*args):
            if armed:
                armed.clear()
                no_space()
            return real(*args)

        return write

    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        store = open_store(root)
        for name in ("_append", "_atomic_write"):
            patch.setattr(store_module, name, first_write_fails(getattr(store_module, name)))
        for (verb, app, choice), fails in [(step, False) for step in SETUP] + steps:
            if verb == "register_app":
                key = None
            elif keys:
                key = list(keys)[app % len(keys)]
            else:
                continue
            armed[:] = [True] if fails else []
            response = call(system, verb, key, store, **request_params(verb, choice))
            if fails and not armed:
                must_err(response, "io-error")
            elif response["ok"]:
                expected = must_ok(call(reference, verb, keys.get(key), **request_params(verb, choice)))
                if verb == "register_app":
                    keys[response["result"]["key"]] = expected["key"]
                    expected = response["result"]
                assert response["result"] == expected
            assert by_name(system.contexts()) == by_name(reference.contexts())
        assert by_name(open_store(root).contexts().values()) == by_name(reference.contexts())


class _Client:
    def __init__(self, address):
        if isinstance(address, tuple):
            self.sock = socket.create_connection(address)
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(address)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send_raw(self, text: str):
        self.sock.sendall(text.encode("utf-8"))

    def request(self, obj) -> dict:
        self.send_raw(json.dumps(obj) + "\n")
        return self.read()

    def read(self) -> dict:
        return json.loads(self.reader.readline())

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture
def server(tmp_path):
    engine = Engine()
    srv = make_server(engine, None, str(tmp_path / "daemon.sock"))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestSocketServer:
    def test_ping_over_socket(self, server, tmp_path):
        client = _Client(str(tmp_path / "daemon.sock"))
        assert client.request({"request": "ping", "id": 1}) == {
            "id": 1,
            "ok": True,
            "result": "pong",
        }
        client.close()

    def test_malformed_line_keeps_connection_open(self, server, tmp_path):
        client = _Client(str(tmp_path / "daemon.sock"))
        client.send_raw("this is not json\n")
        response = client.read()
        assert response["ok"] is False
        assert response["error"]["code"] == "malformed-request"
        assert client.request({"request": "ping", "id": 2})["ok"]
        client.close()

    def test_pipelined_batch_preserves_order(self, server, tmp_path):
        client = _Client(str(tmp_path / "daemon.sock"))
        batch = "".join(
            json.dumps({"request": "ping", "id": n}) + "\n" for n in range(10)
        )
        client.send_raw(batch)
        ids = [client.read()["id"] for _ in range(10)]
        assert ids == list(range(10))
        client.close()

    def test_concurrent_connections_multiplex_apps(self, server, tmp_path):
        first = _Client(str(tmp_path / "daemon.sock"))
        second = _Client(str(tmp_path / "daemon.sock"))
        key_a = first.request(
            {"request": "register_app", "id": "a", "params": {"name": "A"}}
        )["result"]["key"]
        key_b = second.request(
            {"request": "register_app", "id": "b", "params": {"name": "B"}}
        )["result"]["key"]
        assert key_a != key_b
        # either connection can drive either app
        response = second.request(
            {
                "request": "set_input_output",
                "key": key_a,
                "id": "x",
                "params": SCHEMA_PARAMS,
            }
        )
        assert response["ok"]
        first.close()
        second.close()

    def test_tcp_endpoint(self):
        engine = Engine()
        srv = make_server(engine, None, "127.0.0.1:0")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = _Client(srv.server_address)
            assert client.request({"request": "ping", "id": 0})["result"] == "pong"
            client.close()
        finally:
            srv.shutdown()
            srv.server_close()

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
        assert parse_endpoint("/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_bind_failure(self, tmp_path):
        from arlearn.errors import EngineError

        with pytest.raises(EngineError) as err:
            make_server(Engine(), None, str(tmp_path / "missing-dir" / "d.sock"))
        assert err.value.code == "bind-failure"


class TestConcurrency:
    def test_parallel_requests_on_distinct_keys(self, engine):
        keys = []
        for name in ("left", "right"):
            key = must_ok(call(engine, "register_app", name=name))["key"]
            must_ok(call(engine, "set_input_output", key, **SCHEMA_PARAMS))
            keys.append(key)

        failures = []

        def hammer(key):
            try:
                for row in F1_ROW_DICTS * 8:
                    must_ok(call(engine, "set_training_data_row", key, row=row))
                    must_ok(call(engine, "generate_rules", key, **THRESH_PARAMS))
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        workers = [threading.Thread(target=hammer, args=(k,)) for k in keys]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not failures
        for key in keys:
            assert len(engine.context(key).dataset) == 40
            assert engine.context(key).rules_generated
