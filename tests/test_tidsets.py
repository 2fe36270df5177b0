"""Support counting on the vertical layout, and ``mining.mine``, against naive recounts.

Every count the miners and ``id3_build`` make goes through one tidset
kernel, and ``id3_rules`` reads its counts off the tree's leaves. These
tests hold both to a row-by-row weighted scan, to the
``brute_force_frequent`` oracle, and to exact ``Fraction`` threshold
comparisons at their boundaries.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlearn.errors import EngineError
from arlearn.id3 import Leaf, id3_build, id3_rules
from arlearn.mining import (
    ALGORITHMS,
    _Tidsets,
    apriori,
    brute_force_frequent,
    derive_rules,
    expand_maximal,
    max_miner,
    meets_threshold,
    mine,
    support_count,
)
from arlearn.model import AttributeSchema, Dataset, Item, ItemSet, Rule, Schema, Thresholds, TrainingRow

from helpers import random_dataset

THRESHOLDS = (0.4, 0.3, 0.1, 1.0)


def naive_count(items, rows) -> int:
    """Weighted count of the rows binding every item, one row at a time."""
    return sum(
        row.weight
        for row in rows
        if all({**row.inputs, **row.outputs}.get(i.attribute) == i.value for i in items)
    )


def random_targets(rng: random.Random, schema: Schema, n: int) -> list[ItemSet]:
    attrs = schema.attributes
    return [
        ItemSet(Item(a.name, rng.choice(a.domain)) for a in rng.sample(attrs, rng.randint(0, len(attrs))))
        for _ in range(n)
    ]


def naive_id3_rules(tree, data: Dataset, thresholds: Thresholds, target: str) -> set[Rule]:
    """``id3_rules`` recomputed by scanning rows and comparing ``Fraction``s."""
    total = data.total_weight()
    rules = set()

    def walk(node, path):
        if isinstance(node, Leaf):
            consequent = ItemSet([Item(target, node.klass)])
            joint = naive_count(path + (Item(target, node.klass),), data.rows)
            if not path or joint == 0:
                return
            confidence = Fraction(joint, naive_count(path, data.rows))
            if Fraction(joint, total) >= Fraction(str(thresholds.min_support)) and confidence >= Fraction(
                str(thresholds.min_confidence)
            ):
                rules.add(Rule(ItemSet(path), consequent, joint / total, float(confidence), "id3"))
            return
        for value, child in node.children:
            walk(child, path + (Item(node.attribute, value),))

    walk(tree, ())
    return rules


@pytest.fixture(scope="module")
def large() -> Dataset:
    """At least 500 rows, so every tidset spans many machine digits."""
    data = random_dataset(random.Random(2000), max_rows=800, min_rows=500)
    assert len(data) >= 500
    return data


class TestSupportCount:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_equals_naive_weighted_scan(self, seed):
        rng = random.Random(seed)
        data = random_dataset(rng, max_rows=60)
        for target in random_targets(rng, data.schema, 12):
            assert support_count(target, data) == naive_count(target, data.rows)

    def test_large_dataset(self, large):
        for target in random_targets(random.Random(1), large.schema, 200):
            assert support_count(target, large) == naive_count(target, large.rows)


class TestCountForms:
    """``_Tidsets.count`` has a form for one weight class, one for two and one for more."""

    @pytest.mark.parametrize("weights", [(1,), (3,), (1, 2), (1, 3), (2, 5), (1, 2, 3)])
    def test_count_and_apriori_equal_row_scans(self, weights):
        rng = random.Random(str(weights))
        drawn = random_dataset(rng, max_rows=60, min_rows=40)
        rows = [TrainingRow(r.inputs, r.outputs, rng.choice(weights)) for r in drawn]
        data = Dataset(drawn.schema, rows)
        v = _Tidsets(data)
        assert [weight for weight, _ in v.classes] == sorted(weights)
        assert v.total == data.total_weight()
        for _ in range(300):
            mask = rng.getrandbits(len(rows))
            assert v.count(mask) == sum(row.weight for i, row in enumerate(rows) if mask >> i & 1)
        for minsup in (0.05, 0.2):
            assert apriori(data, minsup) == brute_force_frequent(data, minsup)


class TestMine:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(["apriori", "maxminer"]),
        st.sampled_from([0.1, 0.3, 0.5, 0.7]),
        st.sampled_from([0.3, 0.6, 0.9, 1.0]),
    )
    def test_equals_rules_from_the_oracle(self, seed, algorithm, minsup, minconf):
        data = random_dataset(random.Random(seed), max_rows=40)
        rules, stats = mine(data, Thresholds(minsup, minconf), algorithm)
        oracle = derive_rules(brute_force_frequent(data, minsup), data.schema, minconf, source=algorithm)
        assert rules == oracle
        assert stats.rules_emitted == len(rules)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.05, 0.2, 0.4]), st.sampled_from([0.3, 0.7, 1.0]))
    def test_id3_equals_naive_recount(self, seed, minsup, minconf):
        data = random_dataset(random.Random(seed), max_rows=60)
        thresholds = Thresholds(minsup, minconf)
        expected = set()
        for target in data.schema.output_names:
            expected |= naive_id3_rules(id3_build(data, data.schema, target), data, thresholds, target)
        assert mine(data, thresholds, "id3")[0] == expected

    @pytest.mark.parametrize("minsup", [0.02, 0.1])
    def test_large_dataset_frequent_families(self, large, minsup):
        oracle = brute_force_frequent(large, minsup)
        assert apriori(large, minsup) == oracle
        assert expand_maximal(max_miner(large, minsup), large, minsup) == oracle
        for fis in oracle:
            assert fis.support_count == naive_count(fis.items, large.rows)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_large_dataset_rules_recount(self, large, algorithm):
        rules, _ = mine(large, Thresholds(0.02, 0.3), algorithm)
        assert rules
        total = large.total_weight()
        for rule in rules:
            joint = naive_count(rule.antecedent.union(rule.consequent), large.rows)
            assert rule.support == joint / total
            assert rule.confidence == joint / naive_count(rule.antecedent, large.rows)

    def test_large_dataset_id3_equals_naive_recount(self, large):
        thresholds = Thresholds(0.02, 0.3)
        expected = set()
        for target in large.schema.output_names:
            expected |= naive_id3_rules(id3_build(large, large.schema, target), large, thresholds, target)
        assert mine(large, thresholds, "id3")[0] == expected

    def test_empty_dataset(self, f1_schema):
        with pytest.raises(EngineError) as err:
            mine(Dataset(f1_schema), Thresholds(0.5, 0.5), "apriori")
        assert err.value.code == "empty-training-data"

    def test_unknown_algorithm(self, f1):
        with pytest.raises(ValueError):
            mine(f1, Thresholds(0.5, 0.5), "eclat")


# Fourteen rows in three weight classes, 30 in all. Taking weights
# greedily reaches every total from 0 to 30.
WEIGHTS = [3] * 6 + [2] * 4 + [1] * 4
A, B = Item("a", "1"), Item("b", "1")


def rows_weighing(target: int) -> set[int]:
    chosen = set()
    for index, weight in enumerate(WEIGHTS):
        if weight <= target:
            chosen.add(index)
            target -= weight
    assert target == 0
    return chosen


class TestIntegerThresholds:
    @pytest.mark.parametrize("threshold", THRESHOLDS + (0.30000000000000004, 0.7, 0.05))
    def test_meets_threshold_equals_fraction_comparison(self, threshold):
        exact = Fraction(str(threshold))
        for total in range(1, 61):
            for count in range(total + 1):
                assert meets_threshold(count, total, threshold) == (Fraction(count, total) >= exact)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("total", [10, 30, 70, 10**6])
    def test_exact_boundary_and_one_below(self, threshold, total):
        at = Fraction(str(threshold)) * total
        assert at.denominator == 1
        assert meets_threshold(int(at), total, threshold)
        assert not meets_threshold(int(at) - 1, total, threshold)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_miners_at_the_support_boundary(self, threshold):
        at = int(Fraction(str(threshold)) * sum(WEIGHTS))
        with_a, with_b = rows_weighing(at), rows_weighing(at - 1)
        txns = [
            ([item for item, rows in ((A, with_a), (B, with_b)) if index in rows], weight)
            for index, weight in enumerate(WEIGHTS)
        ]
        expected = {ItemSet([A])}
        assert {fis.items for fis in apriori(txns, threshold)} == expected
        assert {fis.items for fis in expand_maximal(max_miner(txns, threshold), txns, threshold)} == expected
        assert {fis.items for fis in brute_force_frequent(txns, threshold)} == expected
        assert {fis.support_count for fis in apriori(txns, threshold)} == {at}

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("algorithm", ["apriori", "maxminer"])
    def test_rules_at_the_confidence_boundary(self, threshold, algorithm):
        schema = Schema(
            [AttributeSchema("x", "input", ("1",)), AttributeSchema("y", "output", ("1", "0"))]
        )
        rule = (ItemSet([Item("x", "1")]), ItemSet([Item("y", "1")]))
        at = int(Fraction(str(threshold)) * sum(WEIGHTS))
        for hits, kept in ((at, True), (at - 1, False)):
            yes = rows_weighing(hits)
            data = Dataset(
                schema,
                [
                    TrainingRow({"x": "1"}, {"y": "1" if index in yes else "0"}, weight)
                    for index, weight in enumerate(WEIGHTS)
                ],
            )
            rules, _ = mine(data, Thresholds(0.01, threshold), algorithm)
            assert (rule in {(r.antecedent, r.consequent) for r in rules}) is kept
