"""Line-delimited JSON request protocol mapped 1:1 onto engine operations.

One connection may multiplex many applications: every request names its
key. Responses echo the request's correlation id; per-connection response
order matches request order. A request that fails, whether the engine
refuses it or its store write fails, leaves memory as it was before it.
With a store, every mutation is durable before its response is written,
in the order it was made in memory: memory is never ahead of disk.
``Store.save`` works out each request's writes from its checkpoint, by
the rules the ``store`` module gives with their failure cases.

A request line longer than ``MAX_LINE`` bytes is answered with
``malformed-request`` and the rest of it is dropped.
"""

from __future__ import annotations

import json
import logging
import socketserver
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from .engine import Engine, MigrationReport
from .errors import EngineError
from .model import Thresholds, TrainingRow, parse_attribute_literal
from .store import Store, open_store

logger = logging.getLogger(__name__)

MAX_LINE = 1 << 20  # bytes in one request line, newline excluded


def _param(params: Mapping, name: str, kind: type, optional: bool = False):
    value = params.get(name)
    if value is None and optional:
        return None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise EngineError("malformed-params", f"param {name!r} must be {kind.__name__}")
    return value


def _schema_params(params: Mapping) -> tuple[list, list]:
    literals_in = _param(params, "inputs", list)
    literals_out = _param(params, "outputs", list)
    try:
        inputs = [parse_attribute_literal(t) for t in literals_in]
        outputs = [parse_attribute_literal(t) for t in literals_out]
    except (ValueError, TypeError) as exc:
        raise EngineError("malformed-params", f"bad attribute literal: {exc}") from exc
    return inputs, outputs


def _row_param(obj) -> TrainingRow:
    try:
        return TrainingRow.from_dict(obj)
    except (ValueError, TypeError) as exc:
        raise EngineError("malformed-params", f"bad row: {exc}") from exc


def _thresholds_param(params: Mapping) -> Thresholds:
    try:
        return Thresholds(params["min_support"], params["min_confidence"])
    except (KeyError, ValueError, TypeError) as exc:
        raise EngineError("malformed-params", f"bad thresholds: {exc}") from exc


def _string_map(params: Mapping, name: str, allow_null: bool = False) -> dict:
    obj = _param(params, name, dict)
    for attr, value in obj.items():
        if not isinstance(attr, str):
            raise EngineError("malformed-params", f"{name} keys must be text")
        if value is None and allow_null:
            continue
        if not isinstance(value, str):
            raise EngineError("malformed-params", f"{name}[{attr!r}] must be text")
    return obj


def _h_register_app(engine, key, params):
    return {"key": engine.register_app(_param(params, "name", str))}


def _h_set_input_output(engine, key, params):
    engine.set_input_output(key, *_schema_params(params))
    return "ok"


def _h_load_training_data(engine, key, params):
    rows = [_row_param(r) for r in _param(params, "rows", list)]
    return {"accepted": engine.load_training_data(key, rows)}


def _h_set_training_data_row(engine, key, params):
    engine.set_training_data_row(key, _row_param(_param(params, "row", dict)))
    return "ok"


def _h_generate_rules(engine, key, params):
    thresholds = _thresholds_param(params)
    rules = engine.generate_rules(key, thresholds, params.get("algorithm", "apriori"))
    return {"rules": [r.to_dict() for r in rules]}


def _h_set_generation_mode(engine, key, params):
    engine.set_generation_mode(key, params.get("mode"))
    return "ok"


def _h_get_current_output(engine, key, params):
    result = engine.get_current_output(key, _string_map(params, "inputs"))
    if result is None:
        return {"output": None}
    return {
        "output": result.outputs.as_mapping(),
        "confidence": result.confidence,
        "rule_id": result.rule.identity,
        "rule": result.rule.to_dict(),
    }


def _h_send_feedback_last_gco(engine, key, params):
    return {"confidence": engine.send_feedback_last_gco(key, params.get("verdict"))}


def _h_delete_training_data(engine, key, params):
    engine.delete_training_data(key)
    return "ok"


def _h_delete_training_data_row(engine, key, params):
    match = _string_map(params, "match", allow_null=True)
    return {"deleted": engine.delete_training_data_row(key, match, params.get("mode", "first"))}


def _h_change_inputs_outputs(engine, key, params):
    report: MigrationReport = engine.change_inputs_outputs(key, *_schema_params(params))
    return {
        "dropped_columns": report.dropped_columns,
        "quarantined_rows": report.quarantined_rows,
    }


def _h_ping(engine, key, params):
    return "pong"


_VERB_TABLE: dict[str, Callable] = {
    "register_app": _h_register_app,
    "set_input_output": _h_set_input_output,
    "load_training_data": _h_load_training_data,
    "set_training_data_row": _h_set_training_data_row,
    "generate_rules": _h_generate_rules,
    "set_generation_mode": _h_set_generation_mode,
    "get_current_output": _h_get_current_output,
    "send_feedback_last_gco": _h_send_feedback_last_gco,
    "delete_training_data": _h_delete_training_data,
    "delete_training_data_row": _h_delete_training_data_row,
    "change_inputs_outputs": _h_change_inputs_outputs,
    "ping": _h_ping,
}
VERBS = tuple(_VERB_TABLE)


def dispatch(request: object, engine: Engine, store: Optional[Store] = None) -> dict:
    """Execute one wire request and build the response object.

    A keyed verb runs under the context's lock from a checkpoint, then,
    with a store, ``Store.save`` writes what it changed; if either fails,
    the checkpoint is restored, with or without a store. A ``register_app``
    whose snapshot fails drops the new application.
    """
    rid = request.get("id") if isinstance(request, Mapping) else None
    try:
        if not isinstance(request, Mapping):
            raise EngineError("malformed-request", "request must be a JSON object")
        verb = request.get("request")
        if not isinstance(verb, str) or verb not in _VERB_TABLE:
            raise EngineError("unknown-request", f"unknown request verb {verb!r}")
        params = request.get("params", {})
        if params is None:
            params = {}
        if not isinstance(params, Mapping):
            raise EngineError("malformed-params", "params must be an object")
        key = request.get("key")
        if verb in ("register_app", "ping"):
            result = _VERB_TABLE[verb](engine, key, params)
            if verb == "register_app" and store is not None:
                try:
                    store.persist_context(engine.context(result["key"]))
                except BaseException:
                    engine.unregister_app(result["key"])
                    raise
        elif not isinstance(key, str):
            raise EngineError("malformed-params", f"{verb} requires a key")
        else:
            ctx = engine.context(key)  # an unknown key is refused before the params are read
            with ctx.lock:
                saved = ctx.checkpoint()
                try:
                    result = _VERB_TABLE[verb](engine, key, params)
                    if store is not None:
                        store.save(ctx, saved)
                except BaseException:
                    ctx.restore(saved)
                    raise
        return {"id": rid, "ok": True, "result": result}
    except EngineError as exc:
        return {"id": rid, "ok": False, "error": {"code": exc.code, "message": str(exc)}}
    except Exception as exc:  # keep the connection alive on engine bugs
        logger.exception("internal error dispatching %r", request)
        return {
            "id": rid,
            "ok": False,
            "error": {"code": "internal-error", "message": str(exc)},
        }


def _error(code: str, message: str) -> dict:
    return {"id": None, "ok": False, "error": {"code": code, "message": message}}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        engine = self.server.engine  # type: ignore[attr-defined]
        store = self.server.store  # type: ignore[attr-defined]
        while raw := self.rfile.readline(MAX_LINE + 1):
            if len(raw) > MAX_LINE and not raw.endswith(b"\n"):
                response = _error("malformed-request", f"request line longer than {MAX_LINE} bytes")
                while (rest := self.rfile.readline(MAX_LINE + 1)) and not rest.endswith(b"\n"):
                    pass  # drop the rest of the over-long line
            else:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    response = _error("malformed-request", str(exc))
                else:
                    response = dispatch(request, engine, store)
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


def parse_endpoint(endpoint: str) -> tuple[str, object]:
    """``host:port`` selects TCP; anything else is a local socket path."""
    host, sep, port = endpoint.rpartition(":")
    if sep and port.isdigit():
        return "tcp", (host or "127.0.0.1", int(port))
    return "unix", endpoint


def make_server(
    engine: Engine, store: Optional[Store], endpoint: str
) -> socketserver.BaseServer:
    kind, address = parse_endpoint(endpoint)
    try:
        if kind == "tcp":
            server: socketserver.BaseServer = _TcpServer(address, _Handler)  # type: ignore[arg-type]
        else:
            path = Path(address)  # type: ignore[arg-type]
            if path.exists():
                path.unlink()
            server = _UnixServer(str(path), _Handler)
    except OSError as exc:
        raise EngineError("bind-failure", f"cannot bind {endpoint}: {exc}") from exc
    server.engine = engine  # type: ignore[attr-defined]
    server.store = store  # type: ignore[attr-defined]
    return server


def serve(store_root: Union[str, Path], endpoint: str) -> None:
    """Open the store, reconstruct the engine, and serve until terminated."""
    store = open_store(store_root)
    engine = Engine.restore(store.contexts().values())
    server = make_server(engine, store, endpoint)
    with server:
        logger.info("serving on %s with store %s", endpoint, store_root)
        server.serve_forever()
