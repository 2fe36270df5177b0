"""Restoring a store: strict record values, line semantics, and shared values.

``open_store`` decodes each log line with the JSON scanner alone, builds
one ``TrainingRow`` per distinct line text of an application's two row
logs, and one ``ItemSet`` per distinct stored itemset over the whole
open. None of this may change which lines are records, which records
are accepted, or what any later operation does to the restored state.
"""

import json
import logging
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlearn.daemon import dispatch
from arlearn.engine import Engine, context_fingerprint
from arlearn.errors import EngineError
from arlearn.model import (
    AttributeSchema,
    Item,
    ItemSet,
    Rule,
    Thresholds,
    TrainingRow,
    parse_attribute_literal,
)
from arlearn.store import open_store

from helpers import F1_INPUT_LITERALS, F1_OUTPUT_LITERALS, F1_ROW_DICTS, random_schema, rewrite_stored_rules

INPUTS = [parse_attribute_literal(t) for t in F1_INPUT_LITERALS]
OUTPUTS = [parse_attribute_literal(t) for t in F1_OUTPUT_LITERALS]
MATCHING = {"headphones": "yes", "hour": "morning"}


def seeded_engine():
    engine = Engine()
    key = engine.register_app("MusicPlayer")
    engine.set_input_output(key, INPUTS, OUTPUTS)
    engine.load_training_data(key, [TrainingRow(**r) for r in F1_ROW_DICTS])
    engine.generate_rules(key, Thresholds(0.2, 0.3), "apriori")
    return engine, key


def persisted(root):
    """A persisted application and its in-memory engine."""
    engine, key = seeded_engine()
    store = open_store(root)
    store.persist_context(engine.context(key))
    store.compact(key)
    return engine, store, key


def write_records(path, objects) -> None:
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="utf-8")


def assert_corrupt(root) -> None:
    with pytest.raises(EngineError) as err:
        open_store(root)
    assert err.value.code == "corrupt-meta"


class TestStrictRecords:
    """Stored rules and matches hold text values, numbers and booleans, nothing coerced."""

    @pytest.mark.parametrize(
        "change",
        [
            lambda r: r.update(antecedent={"headphones": None}),
            lambda r: r.update(antecedent={"headphones": 5}),
            lambda r: r.update(consequent={"app": None}),
            lambda r: r.update(active="no"),
            lambda r: r.update(support=True),
            lambda r: r.update(confidence="0.9"),
        ],
        ids=["null-value", "number-value", "null-consequent", "active-text", "support-true", "confidence-text"],
    )
    def test_a_rule_record_with_a_bad_value_is_corrupt_meta(self, tmp_path, change):
        engine, store, key = persisted(tmp_path)
        rewrite_stored_rules(tmp_path / key, lambda rules: change(rules[0]))
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize("value", [None, 5], ids=["null-value", "number-value"])
    def test_a_journaled_match_with_a_bad_value_is_corrupt_meta(self, tmp_path, value):
        engine, store, key = persisted(tmp_path)
        epoch = engine.context(key).generation_epoch
        last_gco = {"rule": value, "epoch": epoch}
        write_records(tmp_path / key / "journal.log", [{"op": "gco", "generation_epoch": epoch, "last_gco": last_gco}])
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize("value", [None, 5], ids=["null-value", "number-value"])
    def test_a_match_in_meta_with_a_bad_value_is_corrupt_meta(self, tmp_path, value):
        engine, store, key = persisted(tmp_path)
        engine.get_current_output(key, MATCHING)
        store.persist_context(engine.context(key))
        meta_path = tmp_path / key / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["last_gco"]["rule"] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize(
        "values",
        [{"confidence": True, "active": True}, {"confidence": 0.5, "active": "no"}],
        ids=["confidence-true", "active-text"],
    )
    def test_journaled_feedback_with_a_bad_value_is_corrupt_meta(self, tmp_path, values):
        engine, store, key = persisted(tmp_path)
        ctx = engine.context(key)
        record = {"op": "feedback", "generation_epoch": ctx.generation_epoch, "rule": ctx.rules[0].identity}
        write_records(tmp_path / key / "journal.log", [{**record, **values}])
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("generation_epoch", 2.7),
            ("generation_epoch", True),
            ("generation_epoch", -1),
            ("generation_epoch", "1"),
            ("rules_generated", "false"),
            ("rules_generated", 1),
            ("mode", "bogus"),
        ],
        ids=["epoch-fraction", "epoch-true", "epoch-negative", "epoch-text",
             "generated-text", "generated-number", "mode-unknown"],
    )
    def test_a_meta_scalar_of_the_wrong_type_or_range_is_corrupt_meta(self, tmp_path, field, value):
        persisted(tmp_path)
        (meta_path,) = tmp_path.glob("*/meta.json")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta[field] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert_corrupt(tmp_path)

    def test_rule_from_dict_refuses_what_it_used_to_coerce(self):
        good = {"antecedent": {"x": "a"}, "consequent": {"y": "b"}, "support": 0.5, "confidence": 1, "source": "id3"}
        assert Rule.from_dict(good) == Rule(ItemSet([Item("x", "a")]), ItemSet([Item("y", "b")]), 0.5, 1.0, "id3")
        for change in ({"antecedent": {"x": None}}, {"antecedent": {"x": 5}}, {"active": "no"},
                       {"active": 1}, {"support": True}, {"support": "0.5"}):
            with pytest.raises(ValueError):
                Rule.from_dict({**good, **change})

    def test_a_query_still_leaves_null_inputs_unbound(self):
        engine, key = seeded_engine()
        with_null = engine.get_current_output(key, {**MATCHING, "hour": None})
        without = engine.get_current_output(key, {"headphones": "yes"})
        assert with_null is not None and with_null.rule == without.rule
        assert ItemSet.from_mapping({"headphones": "yes", "hour": None}) == ItemSet([Item("headphones", "yes")])


class TestLineSemantics:
    """A line is a record exactly when ``json.loads`` accepts it alone."""

    def test_a_line_holding_two_objects_is_corrupt_mid_log(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        rows_log = tmp_path / key / "rows.log"
        lines = rows_log.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1] + ", " + lines[2]
        rows_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_corrupt(tmp_path)

    def test_a_trailing_line_holding_two_objects_is_a_torn_tail(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        rows_log = tmp_path / key / "rows.log"
        lines = rows_log.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-2] + ", " + lines[-1]
        rows_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(open_store(tmp_path).contexts()[key].dataset) == len(F1_ROW_DICTS) - 1

    def test_a_record_split_over_two_lines_is_corrupt(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        rows_log = tmp_path / key / "rows.log"
        lines = rows_log.read_text(encoding="utf-8").splitlines()
        cut = lines[1].index('"outputs"')
        lines[1:2] = [lines[1][:cut], lines[1][cut:]]
        rows_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_corrupt(tmp_path)

    def test_blank_lines_and_surrounding_whitespace_are_ignored(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        path = tmp_path / key / "rows.log"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "  " + lines[1] + " \t\r"
        lines.insert(1, "")
        lines.insert(3, " \t ")
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        reopened = open_store(tmp_path).contexts()[key]
        assert context_fingerprint(reopened) == context_fingerprint(engine.context(key))

    def test_a_line_with_text_after_its_record_is_corrupt(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        rows_log = tmp_path / key / "rows.log"
        lines = rows_log.read_text(encoding="utf-8").splitlines()
        lines[0] += " x"
        rows_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize("name", ["rows.log", "journal.log"])
    def test_a_torn_tail_is_dropped_then_cut_before_the_next_append(self, tmp_path, caplog, name):
        engine, store, key = persisted(tmp_path)
        engine.get_current_output(key, MATCHING)
        store.record_gco(engine.context(key))
        path = tmp_path / key / name
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"inputs": {"head')
        with caplog.at_level(logging.WARNING, logger="arlearn.store"):
            store = open_store(tmp_path)
        assert context_fingerprint(store.contexts()[key]) == context_fingerprint(engine.context(key))
        assert any("torn trailing record" in r.message for r in caplog.records)
        engine = Engine.restore(store.contexts().values())
        if name == "rows.log":
            row = TrainingRow(**F1_ROW_DICTS[0])
            engine.set_training_data_row(key, row)
            store.append_row(key, row)
        else:
            engine.get_current_output(key, {"headphones": "no"})
            store.record_gco(engine.context(key))
        assert path.read_bytes().startswith(intact)
        assert context_fingerprint(open_store(tmp_path).contexts()[key]) == context_fingerprint(engine.context(key))

    def test_a_torn_quarantine_tail_is_dropped_until_the_next_compaction(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        engine.change_inputs_outputs(key, [INPUTS[0], AttributeSchema("hour", "input", ("morning",))], OUTPUTS)
        store.persist_context(engine.context(key))
        store.compact(key)
        quarantine_log = tmp_path / key / "quarantine.log"
        intact = quarantine_log.read_bytes()
        assert intact.count(b"\n") == 2
        quarantine_log.write_bytes(intact + b'{"inputs": {"head')
        store = open_store(tmp_path)
        assert context_fingerprint(store.contexts()[key]) == context_fingerprint(engine.context(key))
        store.compact(key)
        assert quarantine_log.read_bytes() == intact

    def test_a_torn_snapshot_is_corrupt(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        meta_path = tmp_path / key / "meta.json"
        snapshot = meta_path.read_bytes()
        meta_path.write_bytes(snapshot[: snapshot.index(b'"consequent"')])
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize("weight", ["true", "1.0"])
    def test_a_repeated_row_with_a_weight_of_another_type_is_corrupt(self, tmp_path, weight):
        # 1, 1.0 and true compare equal once decoded, so rows are shared by line text only
        engine, store, key = persisted(tmp_path)
        rows_log = tmp_path / key / "rows.log"
        first = rows_log.read_text(encoding="utf-8").splitlines()[0]
        assert first.endswith('"weight": 1}')
        repeat = first[: -len("1}")] + weight + "}"
        rows_log.write_text(rows_log.read_text(encoding="utf-8") + repeat + "\n", encoding="utf-8")
        assert_corrupt(tmp_path)

    @pytest.mark.parametrize("value", [None, 1, True], ids=["null", "number", "true"])
    def test_a_rule_reusing_an_itemset_with_a_non_text_value_is_corrupt(self, tmp_path, value):
        engine, store, key = persisted(tmp_path)

        def reuse(rules):
            rules[0]["antecedent"] = {"headphones": "1"}
            rules[1]["antecedent"] = {"headphones": value}

        rewrite_stored_rules(tmp_path / key, reuse)
        assert_corrupt(tmp_path)

    def test_repeated_lines_restore_as_equal_values(self, tmp_path):
        engine, store, key = persisted(tmp_path)
        restored = open_store(tmp_path).contexts()[key]
        rows = restored.dataset.rows
        assert rows[0] == rows[1] and rows[0] is rows[1]  # F1's first two rows are the same line
        assert [r.to_dict() for r in rows] == [{**r, "weight": 1} for r in F1_ROW_DICTS]
        consequents = {}
        for rule in restored.rules:
            consequents.setdefault(rule.consequent, []).append(rule.consequent)
        assert all(len({id(c) for c in same}) == 1 for same in consequents.values())


def test_a_store_with_its_rules_in_rules_log_opens_and_its_next_snapshot_is_one_file(tmp_path):
    """A store written before the snapshot was one file: ``meta.json`` without rules, beside ``rules.log``."""
    engine, store, key = persisted(tmp_path / "one-file")
    engine.get_current_output(key, MATCHING)
    engine.send_feedback_last_gco(key, "negative")
    store.persist_context(engine.context(key))
    shutil.copytree(tmp_path / "one-file", tmp_path / "two-file")
    app_dir = tmp_path / "two-file" / key
    meta = json.loads((app_dir / "meta.json").read_text(encoding="utf-8"))
    write_records(app_dir / "rules.log", meta.pop("rules"))
    (app_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")

    legacy = open_store(tmp_path / "two-file")
    expected = context_fingerprint(open_store(tmp_path / "one-file").contexts()[key])
    assert context_fingerprint(legacy.contexts()[key]) == expected == context_fingerprint(engine.context(key))
    legacy.persist_context(legacy.contexts()[key])
    assert (app_dir / "meta.json").read_bytes() == (tmp_path / "one-file" / key / "meta.json").read_bytes()
    (app_dir / "rules.log").write_text("not a record\n", encoding="utf-8")  # nothing reads it any more
    assert context_fingerprint(open_store(tmp_path / "two-file").contexts()[key]) == expected


@pytest.mark.parametrize("place", ["meta.json", "journal.log"])
def test_a_match_stored_with_its_inputs_and_time_opens_and_takes_feedback(tmp_path, place):
    """A match written before it kept only the rule and epoch also holds the query's ``inputs`` and a time ``t``."""
    engine, store, key = persisted(tmp_path)
    ctx = engine.context(key)
    engine.get_current_output(key, MATCHING)
    match = {**ctx.last_gco.to_dict(), "inputs": MATCHING, "t": 1700000000.25}
    app_dir = tmp_path / key
    if place == "meta.json":
        meta = json.loads((app_dir / "meta.json").read_text(encoding="utf-8"))
        meta["last_gco"] = match
        (app_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    else:
        write_records(app_dir / "journal.log", [{"op": "gco", "generation_epoch": ctx.generation_epoch, "last_gco": match}])

    reopened = open_store(tmp_path)
    assert reopened.contexts()[key].last_gco == ctx.last_gco
    request = {"request": "send_feedback_last_gco", "key": key, "params": {"verdict": "negative"}}
    response = dispatch(request, Engine.restore(reopened.contexts().values()), reopened)
    assert response["result"] == {"confidence": engine.send_feedback_last_gco(key, "negative")}
    restored = open_store(tmp_path).contexts()[key]
    assert context_fingerprint(restored) == context_fingerprint(ctx)
    assert restored.state_dict() == ctx.state_dict()


def sibling_query(rules):
    """The antecedent of a rule that shares it with another, else of the first rule."""
    seen = {}
    for rule in rules:
        if rule.antecedent in seen:
            return rule.antecedent.as_mapping()
        seen[rule.antecedent] = rule
    return rules[0].antecedent.as_mapping()


def populate(engine, rng):
    """Two applications on one schema, drawn from one small pool of rows."""
    schema = random_schema(rng)
    inputs = [schema.attribute(n) for n in schema.input_names]
    outputs = [schema.attribute(n) for n in schema.output_names]
    pool = [
        {
            "inputs": {a.name: rng.choice(a.domain) for a in inputs if rng.random() < 0.8},
            "outputs": {a.name: rng.choice(a.domain) for a in outputs},
            "weight": rng.choice([1, 1, 2]),
        }
        for _ in range(rng.randint(2, 6))
    ]

    def draw(n):
        # a new object per row, so that only the restored side shares rows
        return [TrainingRow.from_dict(rng.choice(pool)) for _ in range(n)]

    narrowed = [AttributeSchema(inputs[0].name, "input", inputs[0].domain[:-1])] + inputs[1:]
    keys = []
    for name in ("A", "B"):
        key = engine.register_app(name)
        engine.set_input_output(key, inputs, outputs)
        engine.load_training_data(key, draw(rng.randint(4, 25)))
        # quarantine the rows binding the dropped value, then take it back and load more of the pool
        engine.change_inputs_outputs(key, narrowed, outputs)
        engine.change_inputs_outputs(key, inputs, outputs)
        engine.load_training_data(key, draw(rng.randint(4, 25)))
        engine.generate_rules(key, Thresholds(0.1, 0.3), "apriori")
        keys.append(key)
    return pool, narrowed, outputs, keys


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["positive", "negative"]))
def test_shared_rows_and_itemsets_cannot_be_seen(seed, verdict):
    """The same operations on a reopened store and on an engine never restored give equal contexts."""
    rng = random.Random(seed)
    memory = Engine()
    pool, narrowed, outputs, (key, other) = populate(memory, rng)
    with tempfile.TemporaryDirectory() as root:
        store = open_store(Path(root))
        for ctx in memory.contexts():
            store.persist_context(ctx)
            store.compact(ctx.key)
        restored = Engine.restore(open_store(Path(root)).contexts().values())

    def same() -> None:
        for k in (key, other):
            assert context_fingerprint(restored.context(k)) == context_fingerprint(memory.context(k))

    same()
    repeated = max(pool, key=lambda row: sum(r.to_dict() == row for r in memory.context(key).dataset))
    for engine in (memory, restored):
        engine.delete_training_data_row(key, repeated["inputs"], "first")
    same()
    rules = memory.context(key).rules
    if rules:
        query = sibling_query(rules)
        for engine in (memory, restored):
            assert engine.get_current_output(key, query) is not None
            engine.send_feedback_last_gco(key, verdict)
        same()
    for engine in (memory, restored):
        engine.change_inputs_outputs(key, narrowed, outputs)
    same()
