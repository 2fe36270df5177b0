import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlearn.errors import EngineError
from arlearn.mining import (
    MiningStats,
    apriori,
    brute_force_frequent,
    derive_rules,
    expand_maximal,
    max_miner,
    support_count,
)
from arlearn.model import AttributeSchema, Dataset, Item, ItemSet, Schema, TrainingRow

from helpers import planted_long_pattern, random_dataset

A, B, C = Item("a", "1"), Item("b", "1"), Item("c", "1")
ABC_TRANSACTIONS = [[A, B, C], [A, B], [A, C], [B, C]]


def family_as_dict(family):
    return {fis.items: (fis.support_count, fis.support) for fis in family}


class TestSupportCount:
    def test_empty_target_counts_total_weight(self, f1):
        assert support_count(ItemSet(), f1) == 5

    def test_f1_headphones_yes(self, f1):
        # hand enumeration over F1: rows 1, 2, and 4 bind headphones=yes
        assert support_count(ItemSet([Item("headphones", "yes")]), f1) == 3

    def test_weights_counted(self, f1_schema):
        ds = Dataset(
            f1_schema,
            [TrainingRow({"headphones": "yes"}, {"app": "music"}, 4)],
        )
        assert support_count(ItemSet([Item("headphones", "yes")]), ds) == 4

    def test_unknown_attribute(self, f1):
        with pytest.raises(EngineError) as err:
            support_count(ItemSet([Item("volume", "11")]), f1)
        assert err.value.code == "unknown-attribute"

    def test_conflicting_target_unconstructible(self):
        with pytest.raises(ValueError):
            ItemSet([Item("headphones", "yes"), Item("headphones", "no")])


class TestApriori:
    def test_abc_example(self):
        # brute-force over the power set of {a,b,c}: singles 3/4, pairs 2/4,
        # the triple only 1/4
        family = family_as_dict(apriori(ABC_TRANSACTIONS, 0.5))
        assert family == {
            ItemSet([A]): (3, 0.75),
            ItemSet([B]): (3, 0.75),
            ItemSet([C]): (3, 0.75),
            ItemSet([A, B]): (2, 0.5),
            ItemSet([A, C]): (2, 0.5),
            ItemSet([B, C]): (2, 0.5),
        }

    def test_min_support_one_keeps_unanimous_only(self):
        txns = [[A, B], [A, B], [A]]
        family = {fis.items for fis in apriori(txns, 1.0)}
        assert family == {ItemSet([A])}

    def test_empty_dataset_errors(self, f1_schema):
        with pytest.raises(EngineError) as err:
            apriori(Dataset(f1_schema), 0.5)
        assert err.value.code == "empty-dataset"

    def test_downward_closure(self, f1):
        family = {fis.items.as_frozenset() for fis in apriori(f1, 0.4)}
        for items in family:
            members = tuple(items)
            for drop in range(len(members)):
                subset = frozenset(members[:drop] + members[drop + 1 :])
                if subset:
                    assert subset in family

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    def test_matches_oracle(self, seed, threshold):
        data = random_dataset(random.Random(seed), max_rows=40)
        assert apriori(data, threshold) == brute_force_frequent(data, threshold)


class TestMaxMiner:
    def test_abc_maximal_sets(self):
        maximal = {fis.items for fis in max_miner(ABC_TRANSACTIONS, 0.5)}
        assert maximal == {ItemSet([A, B]), ItemSet([A, C]), ItemSet([B, C])}

    def test_identical_rows_single_maximal(self, f1_schema):
        row = TrainingRow({"headphones": "yes", "hour": "morning"}, {"app": "music"})
        ds = Dataset(f1_schema, [row, row, row])
        maximal = max_miner(ds, 1.0)
        assert {fis.items for fis in maximal} == {row.itemset()}

    def test_no_emitted_set_subsumed(self, f1):
        maximal = [fis.items.as_frozenset() for fis in max_miner(f1, 0.4)]
        for items in maximal:
            assert not any(items < other for other in maximal)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    def test_equals_maximal_elements_of_oracle(self, seed, threshold):
        data = random_dataset(random.Random(seed), max_rows=40)
        oracle = {fis.items.as_frozenset(): fis for fis in brute_force_frequent(data, threshold)}
        expected = {
            items: fis
            for items, fis in oracle.items()
            if not any(items < other for other in oracle)
        }
        assert max_miner(data, threshold) == set(expected.values())

    def test_fewer_candidates_than_apriori_on_long_pattern(self):
        data = planted_long_pattern(random.Random(7))
        apriori_stats, maxminer_stats = MiningStats(), MiningStats()
        apriori(data, 0.6, apriori_stats)
        max_miner(data, 0.6, maxminer_stats)
        assert maxminer_stats.candidates_generated < apriori_stats.candidates_generated


class TestExpandMaximal:
    def test_abc_cross_check(self):
        maximal = max_miner(ABC_TRANSACTIONS, 0.5)
        assert expand_maximal(maximal, ABC_TRANSACTIONS, 0.5) == apriori(ABC_TRANSACTIONS, 0.5)

    def test_empty_maximal(self, f1):
        assert expand_maximal(set(), f1, 0.5) == set()

    def test_singleton_maximal(self):
        txns = [[A], [A]]
        maximal = max_miner(txns, 1.0)
        family = expand_maximal(maximal, txns, 1.0)
        assert {fis.items for fis in family} == {ItemSet([A])}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    def test_recovers_apriori(self, seed, threshold):
        data = random_dataset(random.Random(seed), max_rows=40)
        maximal = max_miner(data, threshold)
        assert expand_maximal(maximal, data, threshold) == apriori(data, threshold)


class TestDeriveRules:
    def test_f1_includes_headphones_rule(self, f1):
        rules = derive_rules(apriori(f1, 0.4), f1.schema, 0.8)
        by_display = {
            (r.antecedent.encode(), r.consequent.encode()): r for r in rules
        }
        key = (
            ItemSet([Item("headphones", "yes")]).encode(),
            ItemSet([Item("app", "music")]).encode(),
        )
        assert key in by_display
        rule = by_display[key]
        assert rule.support == pytest.approx(0.6, abs=1e-12)
        assert rule.confidence == 1.0

    def test_f1_excludes_low_confidence_hour_rule(self, f1):
        # support({hour=morning, app=music}) = 2, support({hour=morning}) = 3
        rules = derive_rules(apriori(f1, 0.4), f1.schema, 0.8)
        assert not any(
            r.antecedent == ItemSet([Item("hour", "morning")]) for r in rules
        )

    def test_functional_dataset_all_confidence_one(self):
        schema = Schema(
            [
                AttributeSchema("x", "input", ("0", "1")),
                AttributeSchema("y", "output", ("0", "1")),
            ]
        )
        rows = [
            TrainingRow({"x": v}, {"y": v}) for v in ("0", "1", "0", "1", "1")
        ]
        data = Dataset(schema, rows)
        rules = derive_rules(apriori(data, 0.1), schema, 1.0)
        assert rules
        assert all(r.confidence == 1.0 for r in rules)

    def test_no_empty_antecedents_and_no_output_antecedents(self, f1):
        rules = derive_rules(apriori(f1, 0.2), f1.schema, 0.5)
        assert rules
        for rule in rules:
            assert len(rule.antecedent) >= 1
            assert set(rule.antecedent.attributes()) <= {"headphones", "hour"}
            assert set(rule.consequent.attributes()) == {"app"}

    def test_confidence_identity(self, f1):
        frequent = apriori(f1, 0.2)
        supports = {fis.items: fis.support for fis in frequent}
        for rule in derive_rules(frequent, f1.schema, 0.5):
            joint = supports[rule.antecedent.union(rule.consequent)]
            assert abs(rule.confidence * supports[rule.antecedent] - joint) < 1e-12

    def test_same_rules_from_both_miners(self, f1):
        via_apriori = derive_rules(apriori(f1, 0.4), f1.schema, 0.8)
        via_maxminer = derive_rules(
            expand_maximal(max_miner(f1, 0.4), f1, 0.4), f1.schema, 0.8
        )
        assert via_apriori == via_maxminer

    def test_stats_count_emitted(self, f1):
        stats = MiningStats()
        rules = derive_rules(apriori(f1, 0.4), f1.schema, 0.8, stats)
        assert stats.rules_emitted == len(rules)


class TestBruteForce:
    def test_empty_dataset_empty_family(self, f1_schema):
        assert brute_force_frequent(Dataset(f1_schema), 0.5) == set()

    def test_threshold_above_everything(self, f1):
        # max single-item support in F1 is 3/5
        assert brute_force_frequent(f1, 0.7) == set()

    def test_too_many_items_guard(self):
        txns = [[Item(f"a{i}", "1")] for i in range(21)]
        with pytest.raises(EngineError) as err:
            brute_force_frequent(txns, 0.01)
        assert err.value.code == "too-many-items"


class TestThresholdSemantics:
    def test_decimal_thresholds_are_exact(self):
        # support 2/5 must satisfy a 0.4 threshold even though the float
        # literal 0.4 sits just above the rational 2/5
        txns = [([A], 2), ([B], 3)]
        family = {fis.items for fis in apriori(txns, 0.4)}
        assert ItemSet([A]) in family

    def test_strictly_below_threshold_excluded(self):
        txns = [([A], 1), ([B], 4)]
        family = {fis.items for fis in apriori(txns, 0.4)}
        assert ItemSet([A]) not in family
