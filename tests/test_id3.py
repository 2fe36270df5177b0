import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlearn.errors import EngineError
from arlearn.id3 import (
    Leaf,
    Split,
    classify,
    entropy,
    id3_build,
    id3_rules,
    information_gain,
)
from arlearn.mining import _Tidsets, mine
from arlearn.model import (
    AttributeSchema,
    Dataset,
    Item,
    ItemSet,
    Schema,
    Thresholds,
    TrainingRow,
)

from helpers import naive_gain, naive_id3_build, random_dataset

# direct evaluation of -sum(p * log2(p)) for counts {3, 2}
ENTROPY_3_2 = 0.9709505944546686


class TestEntropy:
    def test_pure_set_is_zero(self):
        assert entropy({"music": 3, "none": 0}) == 0.0

    def test_symmetric_binary_is_one(self):
        assert entropy({"music": 1, "none": 1}) == 1.0

    def test_three_two_split(self):
        assert entropy({"music": 3, "none": 2}) == pytest.approx(ENTROPY_3_2, abs=1e-9)

    def test_all_zero_counts(self):
        with pytest.raises(EngineError) as err:
            entropy({"music": 0, "none": 0})
        assert err.value.code == "all-zero-counts"

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            entropy({"music": -1, "none": 2})

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(lambda c: sum(c) > 0))
    def test_bounds(self, counts):
        h = entropy({str(i): c for i, c in enumerate(counts)})
        classes = sum(1 for c in counts if c > 0)
        assert 0.0 <= h <= math.log2(max(classes, 1)) + 1e-12
        if classes == 1:
            assert h == 0.0


class TestInformationGain:
    def test_constant_attribute_zero_gain(self, f1_schema):
        rows = [
            TrainingRow({"headphones": "yes", "hour": "morning"}, {"app": "music"}),
            TrainingRow({"headphones": "yes", "hour": "evening"}, {"app": "none"}),
        ]
        assert information_gain(Dataset(f1_schema, rows), "headphones") == 0.0

    def test_perfect_split_equals_target_entropy(self, f1):
        target_entropy = entropy({"music": 3, "none": 2})
        assert information_gain(f1, "headphones") == pytest.approx(target_entropy, abs=1e-12)

    def test_f1_headphones_gain(self, f1):
        # both branches pure, so the gain is the whole target entropy
        assert information_gain(f1, "headphones") == pytest.approx(ENTROPY_3_2, abs=1e-9)

    def test_f1_hour_gain_smaller(self, f1):
        assert information_gain(f1, "hour") < information_gain(f1, "headphones")

    def test_unknown_attribute(self, f1):
        with pytest.raises(EngineError) as err:
            information_gain(f1, "volume")
        assert err.value.code == "unknown-attribute"

    def test_output_attribute_rejected_as_split(self, f1):
        with pytest.raises(EngineError) as err:
            information_gain(f1, "app")
        assert err.value.code == "unknown-attribute"

    def test_null_rows_group_in_dedicated_branch(self, f1_schema):
        rows = [
            TrainingRow({"headphones": "yes"}, {"app": "music"}),
            TrainingRow({}, {"app": "none"}),
            TrainingRow({}, {"app": "none"}),
        ]
        # headphones splits {yes} vs {null,null}: both pure, full gain
        data = Dataset(f1_schema, rows)
        assert information_gain(data, "headphones") == pytest.approx(
            entropy({"music": 1, "none": 2}), abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_gain_nonnegative(self, seed):
        from helpers import random_dataset

        data = random_dataset(random.Random(seed), max_rows=30)
        target = data.schema.output_names[0]
        for attribute in data.schema.input_names:
            assert information_gain(data, attribute, target) >= 0.0


class TestId3Build:
    def test_f1_root_splits_on_headphones(self, f1):
        tree = id3_build(f1)
        assert isinstance(tree, Split)
        assert tree.attribute == "headphones"
        children = dict(tree.children)
        assert isinstance(children["yes"], Leaf) and children["yes"].klass == "music"
        assert isinstance(children["no"], Leaf) and children["no"].klass == "none"

    def test_single_class_single_leaf(self, f1_schema):
        rows = [
            TrainingRow({"headphones": "yes"}, {"app": "music"}),
            TrainingRow({"headphones": "no"}, {"app": "music"}),
        ]
        tree = id3_build(Dataset(f1_schema, rows))
        assert isinstance(tree, Leaf)
        assert tree.klass == "music"

    def test_empty_dataset(self, f1_schema):
        with pytest.raises(EngineError) as err:
            id3_build(Dataset(f1_schema))
        assert err.value.code == "empty-dataset"

    def test_deterministic(self, f1):
        assert id3_build(f1) == id3_build(f1)

    def test_consistent_dataset_classified_exactly(self):
        rng = random.Random(11)
        schema = Schema(
            [
                AttributeSchema("a", "input", ("0", "1", "2")),
                AttributeSchema("b", "input", ("0", "1")),
                AttributeSchema("c", "input", ("0", "1")),
                AttributeSchema("y", "output", ("p", "q", "r")),
            ]
        )
        label = {}
        rows = []
        for _ in range(60):
            key = (rng.choice("012"), rng.choice("01"), rng.choice("01"))
            if key not in label:
                label[key] = rng.choice("pqr")
            rows.append(
                TrainingRow(
                    {"a": key[0], "b": key[1], "c": key[2]}, {"y": label[key]}
                )
            )
        data = Dataset(schema, rows)
        tree = id3_build(data)
        for row in data.rows:
            assert classify(tree, row.inputs) == row.outputs["y"]

    def test_null_values_route_through_null_branch(self, f1_schema):
        rows = [
            TrainingRow({"headphones": "yes"}, {"app": "music"}),
            TrainingRow({}, {"app": "none"}),
            TrainingRow({}, {"app": "none"}),
        ]
        tree = id3_build(Dataset(f1_schema, rows))
        assert classify(tree, {}) == "none"
        assert classify(tree, {"headphones": "yes"}) == "music"

    def test_multi_output_requires_target(self):
        schema = Schema(
            [
                AttributeSchema("a", "input", ("0", "1")),
                AttributeSchema("y", "output", ("0", "1")),
                AttributeSchema("z", "output", ("0", "1")),
            ]
        )
        data = Dataset(schema, [TrainingRow({"a": "0"}, {"y": "0", "z": "1"})])
        with pytest.raises(ValueError):
            id3_build(data)
        tree = id3_build(data, target="z")
        assert classify(tree, {"a": "0"}) == "1"


class TestId3Rules:
    def test_f1_paths_become_rules(self, f1):
        rules = id3_rules(id3_build(f1), f1, Thresholds(0.2, 0.8))
        expected = {
            (
                ItemSet([Item("headphones", "yes")]),
                ItemSet([Item("app", "music")]),
            ),
            (
                ItemSet([Item("headphones", "no")]),
                ItemSet([Item("app", "none")]),
            ),
        }
        assert {(r.antecedent, r.consequent) for r in rules} == expected
        assert all(r.confidence == 1.0 and r.source == "id3" for r in rules)

    def test_single_leaf_tree_yields_no_rules(self, f1_schema):
        rows = [TrainingRow({"headphones": "yes"}, {"app": "music"})]
        data = Dataset(f1_schema, rows)
        assert id3_rules(id3_build(data), data, Thresholds(0.1, 0.1)) == set()

    def test_all_rules_meet_confidence_floor(self, f1):
        rules = id3_rules(id3_build(f1), f1, Thresholds(0.1, 0.9))
        assert rules
        assert all(r.confidence >= 0.9 for r in rules)

    def test_null_branch_paths_skipped(self, f1_schema):
        rows = [
            TrainingRow({"headphones": "yes"}, {"app": "music"}),
            TrainingRow({"headphones": "yes"}, {"app": "music"}),
            TrainingRow({}, {"app": "none"}),
            TrainingRow({}, {"app": "none"}),
        ]
        data = Dataset(f1_schema, rows)
        rules = id3_rules(id3_build(data), data, Thresholds(0.1, 0.5))
        # the null partition is learnable but not expressible as an itemset
        assert all(r.antecedent != ItemSet() for r in rules)
        assert {r.antecedent for r in rules} == {ItemSet([Item("headphones", "yes")])}


class TestReferenceTrees:
    """Trees and gains equal the row-list reference bit for bit.

    The reference sums entropy terms over classes and parts in the order
    each first appears among a node's rows, so near-ties between
    attributes resolve the same way in both.
    """

    @staticmethod
    def check(data: Dataset) -> None:
        for target in data.schema.output_names:
            assert id3_build(data, data.schema, target) == naive_id3_build(data, data.schema, target)
            for attribute in data.schema.input_names:
                assert information_gain(data, attribute, target) == naive_gain(data, attribute, target)

    def test_small_datasets(self):
        for seed in range(2000):
            self.check(random_dataset(random.Random(seed), max_rows=40))

    @pytest.mark.parametrize("seed", range(5))
    def test_large_datasets(self, seed):
        self.check(random_dataset(random.Random(seed), max_rows=800, min_rows=500))


class TestOneLayout:
    @pytest.fixture
    def built(self, monkeypatch) -> list:
        """Every ``_Tidsets`` constructed while the test runs."""
        calls = []
        init = _Tidsets.__init__

        def counting(self, data):
            calls.append(data)
            init(self, data)

        monkeypatch.setattr(_Tidsets, "__init__", counting)
        return calls

    @pytest.fixture
    def two_outputs(self) -> Dataset:
        schema = Schema(
            [
                AttributeSchema("a", "input", ("0", "1")),
                AttributeSchema("b", "input", ("0", "1")),
                AttributeSchema("x", "output", ("0", "1")),
                AttributeSchema("y", "output", ("0", "1")),
            ]
        )
        rows = [
            TrainingRow({"a": a, "b": b}, {"x": a, "y": b}, 1 + (a == b))
            for a in "01"
            for b in "01"
        ]
        return Dataset(schema, rows + [TrainingRow({"a": "1"}, {"x": "0", "y": "1"})])

    def test_mine_shares_one_layout_across_outputs(self, built, two_outputs):
        rules, _ = mine(two_outputs, Thresholds(0.1, 0.5), "id3")
        assert {r.consequent.attributes() for r in rules} == {("x",), ("y",)}
        assert len(built) == 1

    def test_rules_read_leaf_counts(self, built, two_outputs):
        tree = id3_build(two_outputs, two_outputs.schema, "x")
        built.clear()
        assert id3_rules(tree, two_outputs, Thresholds(0.1, 0.5), "x")
        assert built == []
