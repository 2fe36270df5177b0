"""Durable persistence: one directory per application key.

Layout per key:

- ``meta.json`` is the snapshot: ``AppContext.state_dict`` (with the
  ``moved`` positions a restore ranks by) plus a ``rules`` list, as one
  JSON object replaced atomically through a temp file, fsync and rename.
  A ``meta.json`` without ``rules`` predates the one-file snapshot; its
  rules are read from ``rules.log``, one JSON line each.
- ``rows.log`` and ``quarantine.log`` are append-only JSON lines of rows.
- ``journal.log`` is append-only JSON lines of the small changes made
  since the snapshot. A ``gco`` record holds the new ``last_gco``, the
  matched rule's identity and epoch (null when nothing matched); the
  query's ``inputs`` and time ``t`` that older records also hold are
  ignored. A ``feedback`` record holds one rule's identity
  and its new absolute ``confidence`` and ``active``, and clears
  ``last_gco``. Every record carries the ``generation_epoch`` it was
  written under.

An append writes its whole batch in one write and one fsync before it
returns; if that fails, the file is cut back to where it was. Writing a
snapshot empties the journal afterwards. That truncation needs no fsync
of its own: on open, the journal is replayed over the snapshot, and only
records whose epoch equals the snapshot's are applied. Every change to
``last_gco`` or to a rule that leaves the epoch as it is goes into the
journal before any snapshot holds it, so the journal holds every such
change the snapshot has. Records left by a crash between a snapshot and
its truncation are therefore either from an older epoch, or, holding
absolute values, replay to the snapshot's own state. Once the journal is
larger than ``meta.json``, the record just appended is folded into a new
snapshot, so folding rewrites at most about as many bytes as were
appended.
A torn trailing record in an append log is dropped with a warning on
open. Opening writes nothing; the torn record is cut from the file just
before the store's first append to it, so later appends start on a clean
line.

Opening decodes each nonempty log line with the JSON scanner alone; a
line is a record exactly when ``json.loads`` accepts it on its own. Each
distinct value is built once: an application's two row logs share one
``TrainingRow`` per distinct line text, and the rules of one open share
one ``ItemSet`` per distinct stored itemset. Both are immutable, so
sharing changes no later operation.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from .engine import AppContext, GcoRecord
from .errors import EngineError
from .model import ItemSet, Rule, TrainingRow, decode_line, is_key, is_number

logger = logging.getLogger(__name__)

META_FILE = "meta.json"
ROWS_FILE = "rows.log"
QUARANTINE_FILE = "quarantine.log"
JOURNAL_FILE = "journal.log"


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _append(path: Path, text: str) -> None:
    """Append in one write and one fsync; on failure cut the file back."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.fstat(fd).st_size
        try:
            pending = memoryview(text.encode("utf-8"))
            while pending:
                pending = pending[os.write(fd, pending):]
            os.fsync(fd)
        except OSError:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, end)
            raise
    finally:
        os.close(fd)


def _lines(objects: Iterable[dict]) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objects)


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _read_log(
    path: Path,
    torn_tails: Optional[dict[Path, int]] = None,
    build: Callable[[object], object] = lambda record: record,
    built: Optional[dict[str, object]] = None,
) -> list:
    """Parse a JSON-lines log into ``build(record)`` for each record, in order.

    A nonempty line is a record exactly when ``json.loads`` accepts it
    alone. Each distinct line text is decoded and built once: ``built``
    maps the texts seen so far to their value, and a later line with the
    same text gets the same object. The key is the text, never the
    decoded record, whose ``1``, ``1.0`` and ``true`` compare equal.

    With ``torn_tails``, a torn trailing record is dropped and the byte
    length of the intact records is noted under ``path``; the file is
    left as it is.
    """
    if not path.exists():
        return []
    if built is None:
        built = {}
    values: list = []
    lines = path.read_text(encoding="utf-8").split("\n")
    for number, line in enumerate(lines, start=1):
        if line in built:
            values.append(built[line])
            continue
        if not line or line.isspace():
            continue
        try:
            record = decode_line(line)
        except json.JSONDecodeError as exc:
            is_last = all(not later.strip() for later in lines[number:])
            if torn_tails is not None and is_last:
                logger.warning("dropping torn trailing record in %s (line %d)", path, number)
                intact = "".join(kept + "\n" for kept in lines[: number - 1])
                torn_tails[path] = len(intact.encode("utf-8"))
                return values
            raise EngineError(
                "corrupt-meta", f"{path}: malformed record at line {number}"
            ) from exc
        value = built[line] = build(record)
        values.append(value)
    return values


def _replay(ctx: AppContext, journal: list[dict]) -> None:
    """Apply the journal's records of the snapshot's epoch, in order."""
    for record in journal:
        if record["generation_epoch"] != ctx.generation_epoch:
            continue
        if record["op"] == "gco":
            gco = record["last_gco"]
            ctx.last_gco = GcoRecord.from_dict(gco) if gco is not None else None
        elif record["op"] == "feedback":
            i = ctx.rule_position(record["rule"])
            if i is None:
                raise ValueError(f"feedback for a rule not in the snapshot: {record['rule']!r}")
            confidence, active = record["confidence"], record["active"]
            if not is_number(confidence) or not isinstance(active, bool):
                raise ValueError(f"feedback needs a number and a boolean, got {confidence!r}, {active!r}")
            ctx.set_rule(i, replace(ctx.rules[i], confidence=confidence, active=active))
            ctx.last_gco = None
        else:
            raise ValueError(f"unknown journal record {record['op']!r}")


class Store:
    """Handle over a store root; tracks the live context objects it loaded."""

    def __init__(self, root: Path):
        self.root = root
        self._contexts: dict[str, AppContext] = {}
        # bytes the journal may still take before a change is folded into a snapshot
        self._journal_room: dict[str, int] = {}
        # intact length of each log found with a torn tail, cut before its next append
        self._torn_tails: dict[Path, int] = {}

    # -- loading -------------------------------------------------------

    def _load_all(self) -> None:
        # one itemset per distinct stored object over the whole open: few itemsets recur across many rules
        itemsets: dict[tuple, ItemSet] = {}
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and is_key(child.name):
                self._contexts[child.name] = self._load_context(child, itemsets)

    def _load_context(self, app_dir: Path, itemsets: dict[tuple, ItemSet]) -> AppContext:
        meta_path = app_dir / META_FILE
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if not isinstance(meta, dict) or meta.get("key") != app_dir.name:
                raise ValueError("meta does not describe this directory")
        except (OSError, ValueError) as exc:
            raise EngineError("corrupt-meta", f"{meta_path}: {exc}") from exc
        torn = self._torn_tails
        # one row per distinct line text of the two row logs
        rows_built: dict[str, TrainingRow] = {}
        try:
            rows = _read_log(app_dir / ROWS_FILE, torn, TrainingRow.from_dict, rows_built)
            quarantine = _read_log(app_dir / QUARANTINE_FILE, torn, TrainingRow.from_dict, rows_built)
            rule = lambda record: Rule.from_dict(record, itemsets)
            if "rules" not in meta:  # written before the snapshot was one file
                rules = _read_log(app_dir / "rules.log", build=rule)
            elif isinstance(meta["rules"], list):
                rules = [rule(record) for record in meta["rules"]]
            else:
                raise ValueError("rules must be a list")
            journal = _read_log(app_dir / JOURNAL_FILE, torn)
            ctx = AppContext.from_state(meta, rows, quarantine, rules)
            _replay(ctx, journal)
        except (KeyError, ValueError, TypeError) as exc:
            raise EngineError("corrupt-meta", f"{meta_path}: {exc}") from exc
        self._journal_room[ctx.key] = _size(meta_path) - _size(app_dir / JOURNAL_FILE)
        return ctx

    def contexts(self) -> dict[str, AppContext]:
        return dict(self._contexts)

    # -- writing -------------------------------------------------------

    def _app_dir(self, key: str) -> Path:
        return self.root / key

    def persist_context(self, ctx: AppContext) -> None:
        """Write the snapshot, then empty the journal; rows are left untouched."""
        app_dir = self._app_dir(ctx.key)
        with ctx.lock:
            state = ctx.state_dict()
            state["rules"] = [r.to_dict() for r in ctx.rules]
            text = json.dumps(state, sort_keys=True) + "\n"
            created = not app_dir.is_dir()
            try:
                app_dir.mkdir(parents=True, exist_ok=True)
                _atomic_write(app_dir / META_FILE, text)
                with contextlib.suppress(FileNotFoundError):
                    os.truncate(app_dir / JOURNAL_FILE, 0)
                self._torn_tails.pop(app_dir / JOURNAL_FILE, None)
            except OSError as exc:
                if created:
                    # a key directory without a whole snapshot would fail the next open
                    shutil.rmtree(app_dir, ignore_errors=True)
                raise EngineError("io-error", f"persisting {ctx.key}: {exc}") from exc
            self._journal_room[ctx.key] = len(text)
            self._contexts[ctx.key] = ctx

    def record_gco(self, ctx: AppContext) -> None:
        """Make ``ctx.last_gco`` durable."""
        last = ctx.last_gco.to_dict() if ctx.last_gco is not None else None
        self._record(ctx, {"op": "gco", "last_gco": last})

    def record_feedback(self, ctx: AppContext, rule_id: str) -> None:
        """Make the feedback-adjusted rule ``rule_id``, and the cleared ``last_gco``, durable."""
        with ctx.lock:
            rule = ctx.rules[ctx.rule_position(rule_id)]
            self._record(
                ctx,
                {"op": "feedback", "rule": rule_id, "confidence": rule.confidence, "active": rule.active},
            )

    def _record(self, ctx: AppContext, record: dict) -> None:
        with ctx.lock:
            line = json.dumps({"generation_epoch": ctx.generation_epoch, **record}) + "\n"
            try:
                self._append_log(self._app_dir(ctx.key) / JOURNAL_FILE, line)
            except OSError as exc:
                raise EngineError("io-error", f"journaling {ctx.key}: {exc}") from exc
            room = self._journal_room.get(ctx.key, 0) - len(line)
            self._journal_room[ctx.key] = room
            if room < 0:
                # The record is durable already; a failed fold is retried on the next one.
                try:
                    self.persist_context(ctx)
                except EngineError as exc:
                    logger.warning("could not fold the journal of %s: %s", ctx.key, exc)

    def _append_log(self, path: Path, text: str) -> None:
        """Append to a log of this store, first cutting a torn tail found on open."""
        intact = self._torn_tails.get(path)
        if intact is not None:
            os.truncate(path, intact)
            del self._torn_tails[path]
        _append(path, text)

    def append_row(self, key: str, row: TrainingRow) -> None:
        """Append one record to the rows log, flushed and fsynced before return."""
        self.append_rows(key, [row])

    def append_rows(self, key: str, rows: Iterable[TrainingRow]) -> None:
        """Append rows to the rows log in one write and one fsync."""
        app_dir = self._app_dir(key)
        if key not in self._contexts or not app_dir.is_dir():
            raise EngineError("unknown-key", f"no persisted application under {key!r}")
        text = _lines(r.to_dict() for r in rows)
        if not text:
            return
        try:
            self._append_log(app_dir / ROWS_FILE, text)
        except OSError as exc:
            raise EngineError("io-error", f"appending to {key}: {exc}") from exc

    def compact(self, key: str, quarantine: bool = True) -> None:
        """Rewrite the rows log, and unless told not to the quarantine log, to match memory."""
        ctx = self._contexts.get(key)
        if ctx is None:
            raise EngineError("unknown-key", f"no persisted application under {key!r}")
        with ctx.lock:
            logs = [(ROWS_FILE, ctx.dataset if ctx.dataset is not None else ())]
            if quarantine:
                logs.append((QUARANTINE_FILE, ctx.quarantine))
            try:
                for name, kept in logs:
                    path = self._app_dir(key) / name
                    _atomic_write(path, _lines(r.to_dict() for r in kept))
                    self._torn_tails.pop(path, None)
            except OSError as exc:
                raise EngineError("io-error", f"compacting {key}: {exc}") from exc


def open_store(root: Union[str, Path]) -> Store:
    """Open (creating if needed) a store root and load every application context."""
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EngineError("unreadable-root", f"{root}: {exc}") from exc
    if not root.is_dir() or not os.access(root, os.R_OK):
        raise EngineError("unreadable-root", f"{root} is not a readable directory")
    store = Store(root)
    store._load_all()
    return store
