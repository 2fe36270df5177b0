import json
import logging
import random

import pytest

from arlearn.engine import Engine, context_fingerprint
from arlearn.errors import EngineError
from arlearn.model import AttributeSchema, Thresholds, TrainingRow
from arlearn.store import open_store

from helpers import F1_ROW_DICTS

INPUTS = [
    AttributeSchema("headphones", "input", ("yes", "no")),
    AttributeSchema("hour", "input", ("morning", "evening")),
]
OUTPUTS = [AttributeSchema("app", "output", ("music", "none"))]
ROWS = [TrainingRow(**r) for r in F1_ROW_DICTS]


def seeded_engine():
    engine = Engine()
    key = engine.register_app("MusicPlayer")
    engine.set_input_output(key, INPUTS, OUTPUTS)
    engine.load_training_data(key, ROWS)
    engine.generate_rules(key, Thresholds(0.4, 0.8), "apriori")
    return engine, key


class TestOpenStore:
    def test_fresh_directory_is_empty(self, tmp_path):
        assert open_store(tmp_path / "fresh").contexts() == {}

    def test_unreadable_root(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(EngineError) as err:
            open_store(blocker)
        assert err.value.code == "unreadable-root"

    def test_two_apps_reconstructed_bit_identically(self, tmp_path):
        engine, key = seeded_engine()
        other = engine.register_app("Alarm")
        engine.set_input_output(
            other,
            [AttributeSchema("day", "input", ("mon", "tue"))],
            [AttributeSchema("ring", "output", ("yes", "no"))],
        )
        store = open_store(tmp_path)
        for ctx in engine.contexts():
            store.persist_context(ctx)
            store.compact(ctx.key)
        reloaded = open_store(tmp_path).contexts()
        assert set(reloaded) == {key, other}
        for ctx in engine.contexts():
            assert context_fingerprint(reloaded[ctx.key]) == context_fingerprint(ctx)

    def test_corrupt_meta(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        (tmp_path / key / "meta.json").write_text("{broken")
        with pytest.raises(EngineError) as err:
            open_store(tmp_path)
        assert err.value.code == "corrupt-meta"

    def test_meta_with_a_non_text_attribute_literal_is_corrupt_meta(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        meta_path = tmp_path / key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["inputs"] = [5]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(EngineError) as err:
            open_store(tmp_path)
        assert err.value.code == "corrupt-meta"

    def test_torn_trailing_row_dropped_with_warning(self, tmp_path, caplog):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        for row in ROWS:
            store.append_row(key, row)
        log = tmp_path / key / "rows.log"
        raw = log.read_bytes()
        log.write_bytes(raw[:-7])  # truncate mid-record
        with caplog.at_level(logging.WARNING, logger="arlearn.store"):
            reloaded = open_store(tmp_path).contexts()[key]
        assert len(reloaded.dataset) == len(ROWS) - 1
        assert any("torn trailing record" in r.message for r in caplog.records)

    def test_mid_log_corruption_is_an_error(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        for row in ROWS:
            store.append_row(key, row)
        log = tmp_path / key / "rows.log"
        lines = log.read_text().splitlines()
        lines[1] = '{"broken"'
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(EngineError) as err:
            open_store(tmp_path)
        assert err.value.code == "corrupt-meta"


class TestPersistContext:
    def test_round_trip(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        store.compact(key)
        reloaded = open_store(tmp_path).contexts()[key]
        assert context_fingerprint(reloaded) == context_fingerprint(engine.context(key))

    def test_idempotent(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        first = {
            p.name: p.read_bytes() for p in (tmp_path / key).iterdir() if p.is_file()
        }
        store.persist_context(engine.context(key))
        second = {
            p.name: p.read_bytes() for p in (tmp_path / key).iterdir() if p.is_file()
        }
        assert first == second

    def test_preserves_feedback_adjustments_and_activity(self, tmp_path):
        engine, key = seeded_engine()
        engine.get_current_output(key, {"headphones": "yes"})
        engine.send_feedback_last_gco(key, "negative")  # 1.0 -> 0.9, inactive (< 0.95)?
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        store.compact(key)
        reloaded = open_store(tmp_path).contexts()[key]
        originals = {r.identity: r for r in engine.context(key).rules}
        for rule in reloaded.rules:
            assert rule.confidence == originals[rule.identity].confidence
            assert rule.active == originals[rule.identity].active
        assert any(r.confidence == pytest.approx(0.9) for r in reloaded.rules)


class TestAppendRow:
    def test_thousand_rows_in_order(self, tmp_path):
        engine, key = seeded_engine()
        engine.delete_training_data(key)
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        store.compact(key)
        rng = random.Random(1)
        appended = []
        for _ in range(1000):
            row = TrainingRow(
                {"headphones": rng.choice(["yes", "no"])},
                {"app": rng.choice(["music", "none"])},
            )
            appended.append(row)
            store.append_row(key, row)
        reloaded = open_store(tmp_path).contexts()[key]
        assert list(reloaded.dataset.rows) == appended

    def test_unknown_key(self, tmp_path):
        store = open_store(tmp_path)
        with pytest.raises(EngineError) as err:
            store.append_row("k" * 32, ROWS[0])
        assert err.value.code == "unknown-key"

    def test_interleaved_apps_stay_separate(self, tmp_path):
        engine, key = seeded_engine()
        other = engine.register_app("Alarm")
        engine.set_input_output(other, INPUTS, OUTPUTS)
        store = open_store(tmp_path)
        for ctx in engine.contexts():
            store.persist_context(ctx)
            store.compact(ctx.key)
        row_a = TrainingRow({"headphones": "yes"}, {"app": "music"})
        row_b = TrainingRow({"headphones": "no"}, {"app": "none"})
        for _ in range(5):
            store.append_row(key, row_a)
            store.append_row(other, row_b)
        reloaded = open_store(tmp_path).contexts()
        assert all(r == row_a for r in reloaded[key].dataset.rows[-5:])
        assert list(reloaded[other].dataset.rows) == [row_b] * 5


class TestCompact:
    def test_reflects_deletions(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        store.compact(key)
        engine.delete_training_data_row(key, {"headphones": "yes"}, "all")
        store.compact(key)
        reloaded = open_store(tmp_path).contexts()[key]
        assert list(reloaded.dataset.rows) == list(engine.context(key).dataset.rows)

    def test_noop_on_unchanged_data(self, tmp_path):
        engine, key = seeded_engine()
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        store.compact(key)
        before = (tmp_path / key / "rows.log").read_bytes()
        store.compact(key)
        assert (tmp_path / key / "rows.log").read_bytes() == before

    def test_quarantined_rows_live_in_quarantine_log(self, tmp_path):
        engine, key = seeded_engine()
        engine.change_inputs_outputs(
            key,
            INPUTS,
            OUTPUTS + [AttributeSchema("volume", "output", ("low", "high"))],
        )
        store = open_store(tmp_path)
        store.persist_context(engine.context(key))
        store.compact(key)
        rows_log = (tmp_path / key / "rows.log").read_text()
        quarantine_log = (tmp_path / key / "quarantine.log").read_text()
        assert rows_log == ""
        assert len(quarantine_log.splitlines()) == 5
        reloaded = open_store(tmp_path).contexts()[key]
        assert len(reloaded.quarantine) == 5
        assert context_fingerprint(reloaded) == context_fingerprint(engine.context(key))
