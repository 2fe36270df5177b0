"""Mining at item-id level, objects built only for emitted rules, and restore.

``mine`` keeps frequent families as interned id tuples and builds
``ItemSet`` and ``Rule`` objects through the unchecked
``ItemSet._canonical`` only for the rules it emits. Every such object
must be indistinguishable from one built by the checking constructor,
and the rules and search counts must be those of the public
``FrequentItemSet`` wrappers and of the brute-force oracle.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlearn.engine import Engine
from arlearn.errors import EngineError
from arlearn.mining import (
    MiningStats,
    apriori,
    brute_force_frequent,
    derive_rules,
    expand_maximal,
    max_miner,
    mine,
)
from arlearn.model import ItemSet, Thresholds, TrainingRow, parse_attribute_literal
from arlearn.store import open_store

from helpers import (
    F1_INPUT_LITERALS,
    F1_OUTPUT_LITERALS,
    F1_ROW_DICTS,
    planted_long_pattern,
    random_dataset,
    rewrite_stored_rules,
)


def assert_same_as_checked(itemset: ItemSet) -> None:
    checked = ItemSet(list(itemset))
    assert itemset == checked
    assert hash(itemset) == hash(checked)
    assert itemset.encode() == checked.encode()
    assert list(itemset) == list(checked)


def stats_from_wrappers(data, algorithm: str, thresholds: Thresholds) -> MiningStats:
    stats = MiningStats()
    if algorithm == "apriori":
        frequent = apriori(data, thresholds.min_support, stats)
    else:
        maximal = max_miner(data, thresholds.min_support, stats)
        frequent = expand_maximal(maximal, data, thresholds.min_support)
    derive_rules(frequent, data.schema, thresholds.min_confidence, stats, algorithm)
    return stats


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["apriori", "maxminer"]),
    st.sampled_from([0.05, 0.2, 0.4, 0.7]),
    st.sampled_from([0.3, 0.6, 1.0]),
)
def test_mined_rules_and_objects_match_the_checked_path(seed, algorithm, minsup, minconf):
    data = random_dataset(random.Random(seed), max_rows=40)
    thresholds = Thresholds(minsup, minconf)
    rules, stats = mine(data, thresholds, algorithm)
    oracle = derive_rules(brute_force_frequent(data, minsup), data.schema, minconf, source=algorithm)
    assert rules == oracle
    for rule in rules:
        assert rule.identity == rule.antecedent.union(rule.consequent).encode()
        assert_same_as_checked(rule.antecedent)
        assert_same_as_checked(rule.consequent)
    assert stats == stats_from_wrappers(data, algorithm, thresholds)
    assert stats.rules_emitted == len(rules)


@pytest.mark.parametrize(
    "data, minsup, counts",
    [
        (planted_long_pattern(random.Random(7)), 0.6, (2, 31, 3)),
        (random_dataset(random.Random(0), max_rows=60), 0.1, (20, 149, 34)),
        (random_dataset(random.Random(5), max_rows=60), 0.1, (47, 298, 68)),
    ],
    ids=["long-pattern", "random-0", "random-5"],
)
def test_max_miner_search_counts_are_unchanged(data, minsup, counts):
    # recorded from the earlier max_miner, which scanned every found set for subsumption
    stats = MiningStats()
    maximal = max_miner(data, minsup, stats)
    assert (len(maximal), stats.candidates_generated, stats.support_counting_passes) == counts


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "hour", "x1", "x10", "é"]),
        st.one_of(st.none(), st.sampled_from(["0", "1", "yes", "ü"])),
    ),
    st.randoms(use_true_random=False),
)
def test_from_mapping_ignores_key_order(mapping, rng):
    pairs = list(mapping.items())
    rng.shuffle(pairs)
    shuffled = ItemSet.from_mapping(dict(pairs))
    assert shuffled == ItemSet.from_mapping(mapping)
    assert_same_as_checked(shuffled)
    assert shuffled.as_mapping() == {a: v for a, v in mapping.items() if v is not None}


def test_derive_rules_still_rejects_a_family_that_is_not_downward_closed(f1):
    frequent = {fis for fis in apriori(f1, 0.2) if len(fis.items) != 1}
    with pytest.raises(ValueError, match="not downward closed"):
        derive_rules(frequent, f1.schema, 0.5)


def seeded_engine():
    engine = Engine()
    key = engine.register_app("MusicPlayer")
    engine.set_input_output(
        key,
        [parse_attribute_literal(t) for t in F1_INPUT_LITERALS],
        [parse_attribute_literal(t) for t in F1_OUTPUT_LITERALS],
    )
    engine.load_training_data(key, [TrainingRow(**r) for r in F1_ROW_DICTS])
    engine.generate_rules(key, Thresholds(0.4, 0.8), "apriori")
    return engine, key


def persisted(tmp_path):
    engine, key = seeded_engine()
    store = open_store(tmp_path)
    store.persist_context(engine.context(key))
    store.compact(key)
    return tmp_path / key


def rewrite_first_record(path, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    change(record)
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_corrupt(tmp_path) -> None:
    with pytest.raises(EngineError) as err:
        open_store(tmp_path)
    assert err.value.code == "corrupt-meta"


def test_a_malformed_row_record_is_corrupt_meta(tmp_path):
    app_dir = persisted(tmp_path)
    rewrite_first_record(app_dir / "rows.log", lambda r: r.update(weight=0))
    assert_corrupt(tmp_path)


def test_a_malformed_quarantine_record_is_corrupt_meta(tmp_path):
    app_dir = persisted(tmp_path)
    (app_dir / "quarantine.log").write_text(json.dumps({"inputs": [], "outputs": {}}) + "\n")
    assert_corrupt(tmp_path)


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.update(confidence=1.7),
        lambda r: r.pop("consequent"),
        lambda r: r.update(antecedent=[["headphones", "yes"]]),
    ],
    ids=["confidence-above-one", "no-consequent", "antecedent-not-an-object"],
)
def test_a_malformed_rule_record_is_corrupt_meta(tmp_path, change):
    app_dir = persisted(tmp_path)
    rewrite_stored_rules(app_dir, lambda rules: change(rules[0]))
    assert_corrupt(tmp_path)


def test_a_malformed_match_record_is_corrupt_meta(tmp_path):
    app_dir = persisted(tmp_path)
    epoch = json.loads((app_dir / "meta.json").read_text())["generation_epoch"]
    last_gco = {"rule": "r", "epoch": True}  # a bool is not a count, though True == 1
    record = {"op": "gco", "generation_epoch": epoch, "last_gco": last_gco}
    (app_dir / "journal.log").write_text(json.dumps(record) + "\n")
    assert_corrupt(tmp_path)


def test_restored_itemsets_match_the_checked_path(tmp_path):
    engine, key = seeded_engine()
    store = open_store(tmp_path)
    ctx = engine.context(key)
    engine.get_current_output(key, {"hour": "morning", "headphones": "yes"})
    store.persist_context(ctx)
    restored = open_store(tmp_path).contexts()[key]
    assert restored.rules == ctx.rules
    for rule in restored.rules:
        assert_same_as_checked(rule.antecedent)
        assert_same_as_checked(rule.consequent)
