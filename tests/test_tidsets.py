"""The vertical layout, support counting on it, and ``mining.mine``, against naive recounts.

Every count the miners and ``id3_build`` make goes through one tidset
kernel, and ``id3_rules`` reads its counts off the tree's leaves. These
tests hold the layout's masks to a row-by-row recount, and the counts to
a row-by-row weighted scan, to the ``brute_force_frequent`` oracle, and
to exact ``Fraction`` threshold comparisons at their boundaries.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlearn import mining
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


def recount(transactions) -> tuple[dict[Item, int], dict[int, int]]:
    """Each item's and each weight's row mask, one ``(pairs, weight)`` row at a time."""
    items: dict[Item, int] = {}
    classes: dict[int, int] = {}
    for row, (pairs, weight) in enumerate(transactions):
        for pair in pairs:
            items[Item(*pair)] = items.get(Item(*pair), 0) | 1 << row
        classes[weight] = classes.get(weight, 0) | 1 << row
    return items, classes


def row_pairs(rows) -> list[tuple[list[tuple[str, str]], int]]:
    return [([*row.inputs.items(), *row.outputs.items()], row.weight) for row in rows]


def assert_layout(v: _Tidsets, transactions) -> None:
    """``v`` holds exactly the recounted masks, in ``Item`` order, with its counts."""
    items, classes = recount(transactions)
    assert v.items == sorted(items)
    assert v.ids == {item: i for i, item in enumerate(v.items)}
    assert dict(zip(v.items, v.rows)) == items
    assert v.classes == sorted(classes.items())
    assert v.all_rows == (1 << len(transactions)) - 1
    assert v.total == sum(weight for _, weight in transactions)


@pytest.fixture
def translated(monkeypatch) -> list[int]:
    """The codes of the masks ``_masks`` reads off by translation while the test runs."""
    codes: list[int] = []

    class Counting(list):
        def __getitem__(self, code):
            codes.append(code)
            return list.__getitem__(self, code)

    monkeypatch.setattr(mining, "_ONE_HOT", Counting(mining._ONE_HOT))
    return codes


class TestLayout:
    """``_Tidsets`` is built a column at a time; its masks must be a row-by-row recount's."""

    @pytest.mark.parametrize(
        "rows, distinct, by_translation",
        [
            (64, 1, True),  # one value per 64 rows is the most translation takes
            (63, 1, False),
            (2048, 32, True),
            (2048, 33, False),
            (2000, 200, False),
            (2000, 300, False),
            (0, 0, True),
        ],
    )
    def test_masks_in_both_branches(self, translated, rows, distinct, by_translation):
        # every entry occurs; with more than one, one of them is unbound (None)
        entries = [f"v{j}" for j in range(distinct - 1)] + [None] if distinct > 1 else ["v0"] * distinct
        column = [entries[row % distinct] for row in range(rows)]
        random.Random(rows).shuffle(column)
        expected: dict[str, int] = {}
        for row, value in enumerate(reversed(column)):
            if value is not None:
                expected[value] = expected.get(value, 0) | 1 << row
        assert mining._masks(column) == expected
        assert bool(translated) == (by_translation and bool(expected))

    @pytest.mark.parametrize("values", [3, 100, 300])
    @pytest.mark.parametrize("weights", [(1,), (1, 2), (1, 2, 3)])
    def test_dataset_equals_row_recount(self, values, weights):
        rng = random.Random(f"{values}:{weights}")
        drawn = random_dataset(rng, max_rows=1500, min_rows=1500, values=values)
        data = Dataset(drawn.schema, [TrainingRow(r.inputs, r.outputs, rng.choice(weights)) for r in drawn])
        assert any(len(row.inputs) < len(data.schema.input_names) for row in data)  # unbound inputs
        v = _Tidsets(data)
        assert_layout(v, row_pairs(data))
        assert len(v.classes) == len(weights)
        if values > 256:
            assert max(sum(item.attribute == name for item in v.items) for name in data.schema.input_names) > 256

    def test_one_row_and_no_row(self, f1_schema):
        row = TrainingRow({"headphones": "yes"}, {"app": "music"}, 3)
        assert_layout(_Tidsets(Dataset(f1_schema, [row])), row_pairs([row]))
        empty = _Tidsets(Dataset(f1_schema))
        assert_layout(empty, [])
        assert (empty.items, empty.rows, empty.classes, empty.total) == ([], [], [], 0)

    def test_weighted_raw_transactions(self):
        rng = random.Random(7)
        txns = [
            ([Item(a, rng.choice("xyz")) for a in "abcd" if rng.random() < 0.7], rng.choice((1, 1, 4)))
            for _ in range(300)
        ]
        txns += [[Item("a", "x")], [Item("e", "y"), Item("b", "x")]]  # bare collections weigh 1
        expected = [(sorted(items), weight) for items, weight in txns[:-2]]
        expected += [([("a", "x")], 1), ([("b", "x"), ("e", "y")], 1)]
        assert_layout(_Tidsets(txns), expected)

    def test_attributes_outside_the_schema_and_in_both_roles(self, f1_schema):
        rows = [
            TrainingRow({"headphones": "yes", "volume": "11"}, {"app": "music"}),
            TrainingRow({"headphones": "no"}, {"app": "none", "mood": "calm"}, 2),
            TrainingRow({"hour": "evening"}, {"hour": "evening", "app": "music"}),
            TrainingRow({"hour": "evening"}, {"hour": "morning", "app": "none"}),
        ]
        data = Dataset.restore(f1_schema, rows)  # restore does not validate
        v = _Tidsets(data)
        assert_layout(v, row_pairs(rows))
        assert v.rows[v.ids[Item("hour", "evening")]] == 0b1100  # an input on rows 2 and 3, an output on 2
        rules, _ = mine(data, Thresholds(0.2, 0.1), "apriori")
        assert rules
        for rule in rules:
            assert {"volume", "mood"}.isdisjoint(rule.antecedent.union(rule.consequent).attributes())

    @pytest.mark.parametrize("deleted", [0, 1, 4, 120])
    @pytest.mark.parametrize("appended", [0, 1, 5, 70])
    def test_edited_equals_a_fresh_build(self, appended, deleted):
        rng = random.Random(f"{appended}:{deleted}")
        drawn = random_dataset(rng, max_rows=200, min_rows=200)
        rows = list(drawn)
        cut = len(rows) - appended
        while True:  # the appended rows bring no new item
            base = _Tidsets(Dataset(drawn.schema, rows[:cut]))
            gone = sorted(rng.sample(range(cut), deleted))
            edited = base.edited(gone, rows[cut:])
            if edited is not None:
                break
            rng.shuffle(rows)
        kept = [row for r, row in enumerate(rows[:cut]) if r not in gone] + rows[cut:]
        fresh = _Tidsets(Dataset(drawn.schema, kept))
        v, held = edited
        assert v.items is base.items
        # a deleted row may have held an item's only occurrence: the item stays, holding no row
        assert {item: rows for item, rows in zip(v.items, v.rows) if rows} == dict(zip(fresh.items, fresh.rows))
        assert (v.classes, v.all_rows, v.total) == (fresh.classes, fresh.all_rows, fresh.total)
        changed = [rows[r] for r in gone] + rows[cut:]
        assert held == [tuple(sorted(v.ids[Item(*pair)] for pair in pairs)) for pairs, _ in row_pairs(changed)]


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
