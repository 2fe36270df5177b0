import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arlearn.errors import EngineError
from arlearn.model import (
    AttributeSchema,
    Dataset,
    Item,
    ItemSet,
    Rule,
    Schema,
    Thresholds,
    TrainingRow,
    format_attribute_literal,
    is_key,
    new_key,
    parse_attribute_literal,
    validate_row,
)

itemset_mappings = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.sampled_from(["0", "1", "2", "x y", 'q"z']),
    max_size=5,
)
# text with quotes, backslashes, control characters and non-ASCII, which JSON escapes or keeps
awkward_text = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "雪", "\U0001f600", "a"]) | st.characters()
)


class TestAttributeSchema:
    def test_valid(self):
        attr = AttributeSchema("hour", "input", ("morning", "evening"))
        assert attr.domain == ("morning", "evening")

    @pytest.mark.parametrize(
        "name,kind,domain",
        [
            ("", "input", ("a",)),
            ("x", "middle", ("a",)),
            ("x", "input", ()),
            ("x", "input", ("a", "a")),
            ("x", "output", ("a", "")),
        ],
    )
    def test_invalid(self, name, kind, domain):
        with pytest.raises(ValueError):
            AttributeSchema(name, kind, domain)

    def test_literal_round_trip(self):
        attr = AttributeSchema("hour", "input", ("morning", "evening"))
        assert parse_attribute_literal(format_attribute_literal(attr)) == attr

    @pytest.mark.parametrize(
        "literal", ["hour", "hour:input", "hour:sideways:{a}", "h:input:{a,{b}", ":input:{a}"]
    )
    def test_bad_literal(self, literal):
        with pytest.raises(ValueError):
            parse_attribute_literal(literal)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(
                [
                    AttributeSchema("x", "input", ("a",)),
                    AttributeSchema("x", "output", ("a",)),
                ]
            )

    def test_needs_both_kinds(self):
        with pytest.raises(ValueError):
            Schema([AttributeSchema("x", "input", ("a",))])

    def test_declaration_order_preserved(self, f1_schema):
        assert f1_schema.input_names == ("headphones", "hour")
        assert f1_schema.output_names == ("app",)

    def test_literals_round_trip(self, f1_schema):
        inputs, outputs = f1_schema.to_literals()
        assert Schema.from_literals(inputs, outputs) == f1_schema


class TestItemSet:
    def test_structural_equality(self):
        a = ItemSet([Item("b", "1"), Item("a", "2")])
        b = ItemSet([Item("a", "2"), Item("b", "1")])
        assert a == b
        assert hash(a) == hash(b)

    def test_one_value_per_attribute(self):
        with pytest.raises(ValueError):
            ItemSet([Item("a", "1"), Item("a", "2")])

    def test_subset_and_union(self):
        small = ItemSet([Item("a", "1")])
        big = ItemSet([Item("a", "1"), Item("b", "2")])
        assert small.issubset(big)
        assert not big.issubset(small)
        assert small.union(ItemSet([Item("b", "2")])) == big

    def test_encode_order_independent(self):
        a = ItemSet([Item("b", "1"), Item("a", "2")])
        b = ItemSet([Item("a", "2"), Item("b", "1")])
        assert a.encode() == b.encode()

    def test_encode_empty_sentinel(self):
        assert ItemSet().encode() == "[]"

    def test_encode_distinct_sets_differ(self):
        a = ItemSet([Item("a", "1")])
        b = ItemSet([Item("a", "1"), Item("b", "1")])
        assert a.encode() != b.encode()

    @given(itemset_mappings, itemset_mappings)
    def test_encode_injective(self, left, right):
        a, b = ItemSet.from_mapping(left), ItemSet.from_mapping(right)
        assert (a.encode() == b.encode()) == (a == b)

    @given(st.dictionaries(awkward_text, awkward_text, max_size=6))
    def test_encode_is_the_compact_json_of_its_pairs(self, mapping):
        itemset = ItemSet(Item(a, v) for a, v in mapping.items())
        pairs = [[a, v] for a, v in sorted(mapping.items())]
        for _ in range(2):  # the second pass reads every item's text from the cache
            assert itemset.encode() == json.dumps(pairs, separators=(",", ":"), ensure_ascii=False)


class TestTrainingRow:
    def test_null_inputs_dropped(self):
        row = TrainingRow({"a": "1", "b": None}, {"o": "x"})
        assert row.inputs == {"a": "1"}

    @pytest.mark.parametrize("weight", [0, -1, 1.5, True])
    def test_bad_weight(self, weight):
        with pytest.raises(ValueError):
            TrainingRow({}, {"o": "x"}, weight)

    def test_round_trip(self):
        row = TrainingRow({"a": "1"}, {"o": "x"}, 3)
        assert TrainingRow.from_dict(row.to_dict()) == row

    def test_non_text_value_rejected(self):
        with pytest.raises(ValueError):
            TrainingRow({"a": 1}, {"o": "x"})


class TestValidateRow:
    def test_in_domain_ok(self, f1_schema):
        validate_row(
            f1_schema, TrainingRow({"headphones": "yes"}, {"app": "music"})
        )

    def test_out_of_domain(self, f1_schema):
        with pytest.raises(EngineError) as err:
            validate_row(f1_schema, TrainingRow({"headphones": "maybe"}, {"app": "music"}))
        assert err.value.code == "out-of-domain-value"

    def test_missing_output(self, f1_schema):
        with pytest.raises(EngineError) as err:
            validate_row(f1_schema, TrainingRow({"headphones": "yes"}, {}))
        assert err.value.code == "missing-output"

    def test_unknown_attribute(self, f1_schema):
        with pytest.raises(EngineError) as err:
            validate_row(f1_schema, TrainingRow({"volume": "11"}, {"app": "music"}))
        assert err.value.code == "unknown-attribute"

    def test_output_as_input_rejected(self, f1_schema):
        with pytest.raises(EngineError) as err:
            validate_row(f1_schema, TrainingRow({"app": "music"}, {"app": "music"}))
        assert err.value.code == "unknown-attribute"

    @pytest.mark.parametrize(
        "inputs, outputs, code, message",
        [
            # inputs first, each binding in name order, then outputs, then the unbound outputs
            ({"headphones": "maybe", "volume": "11"}, {}, "out-of-domain-value", "headphones='maybe' is outside"),
            ({"hour": "noon", "app": "music"}, {}, "unknown-attribute", "'app' is not a declared input"),
            ({"volume": "11"}, {"app": "loud"}, "unknown-attribute", "'volume' is not a declared input"),
            ({"hour": "morning"}, {"app": "loud", "x": "1"}, "out-of-domain-value", "app='loud' is outside"),
            ({}, {"hour": "morning"}, "unknown-attribute", "'hour' is not a declared output"),
            ({}, {"app": "music", "mood": "calm"}, "unknown-attribute", "'mood' is not a declared output"),
            ({"headphones": "yes"}, {}, "missing-output", "output attribute 'app' is unbound"),
        ],
    )
    def test_the_first_defect_is_raised(self, f1_schema, inputs, outputs, code, message):
        with pytest.raises(EngineError) as err:
            validate_row(f1_schema, TrainingRow(inputs, outputs))
        assert err.value.code == code
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("bound, missing", [({"o2": "x"}, "o1"), ({"o1": "x"}, "o2"), ({}, "o2")])
    def test_the_first_unbound_output_in_schema_order_is_named(self, bound, missing):
        schema = Schema.from_literals(["i:input:{a}"], ["o2:output:{x}", "o1:output:{x}"])
        with pytest.raises(EngineError) as err:
            validate_row(schema, TrainingRow({"i": "a"}, bound))
        assert err.value.code == "missing-output"
        assert str(err.value) == f"output attribute {missing!r} is unbound"


class TestRowToItemset:
    def test_direct_mapping(self):
        row = TrainingRow({"headphones": "yes"}, {"app": "music"})
        assert row.itemset() == ItemSet(
            [Item("headphones", "yes"), Item("app", "music")]
        )

    def test_null_omission(self):
        row = TrainingRow({"headphones": None, "hour": None}, {"app": "none"})
        assert row.itemset() == ItemSet([Item("app", "none")])

    def test_distinct_null_patterns_distinct_itemsets(self):
        full = TrainingRow({"headphones": "yes", "hour": "morning"}, {"app": "music"})
        partial = TrainingRow({"headphones": "yes"}, {"app": "music"})
        assert full.itemset() != partial.itemset()

    def test_item_count_matches_bound_attributes(self, f1_schema, f1_rows):
        for row in f1_rows:
            validate_row(f1_schema, row)
            assert len(row.itemset()) == len(row.inputs) + len(row.outputs)


class TestRule:
    def _rule(self, **kwargs):
        base = dict(
            antecedent=ItemSet([Item("a", "1")]),
            consequent=ItemSet([Item("o", "x")]),
            support=0.5,
            confidence=0.9,
            source="apriori",
        )
        base.update(kwargs)
        return Rule(**base)

    def test_round_trip(self):
        rule = self._rule()
        assert Rule.from_dict(rule.to_dict()) == rule

    def test_empty_consequent_rejected(self):
        with pytest.raises(ValueError):
            self._rule(consequent=ItemSet())

    def test_overlapping_attributes_rejected(self):
        with pytest.raises(ValueError):
            self._rule(consequent=ItemSet([Item("a", "2")]))

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            self._rule(source="fpgrowth")

    def test_identity_is_full_itemset_encoding(self):
        rule = self._rule()
        assert rule.identity == '[["a","1"],["o","x"]]'

    def test_resupported_changes_only_the_support(self):
        rule = self._rule()
        identity = rule.identity
        copy = rule._resupported(0.25)
        assert copy == self._rule(support=0.25) and hash(copy) == hash(self._rule(support=0.25))
        assert copy.to_dict() == {**rule.to_dict(), "support": 0.25}
        assert copy.identity is identity
        assert rule.support == 0.5

    @pytest.mark.parametrize("support", [-0.1, 1.5, float("nan")])
    def test_resupported_checks_the_support(self, support):
        with pytest.raises(ValueError):
            self._rule(support=support)
        with pytest.raises(ValueError):
            self._rule()._resupported(support)


class TestThresholds:
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.2])
    def test_out_of_range(self, value):
        with pytest.raises(ValueError):
            Thresholds(value, 0.5)
        with pytest.raises(ValueError):
            Thresholds(0.5, value)

    def test_one_is_allowed(self):
        Thresholds(1.0, 1.0)


class TestKeys:
    def test_shape(self):
        key = new_key()
        assert is_key(key)
        assert len(key) == 32

    def test_distinct(self):
        assert len({new_key() for _ in range(64)}) == 64

    @pytest.mark.parametrize("bad", ["", "short", "x" * 31, "!" * 32, None, 42])
    def test_rejects(self, bad):
        assert not is_key(bad)


class TestDataset:
    def test_appends_validate(self, f1_schema):
        ds = Dataset(f1_schema)
        with pytest.raises(EngineError):
            ds.append(TrainingRow({"headphones": "maybe"}, {"app": "music"}))
        assert len(ds) == 0

    def test_insertion_order(self, f1):
        assert [r.inputs.get("hour") for r in f1.rows] == [
            "morning",
            "morning",
            "morning",
            "evening",
            "evening",
        ]

    def test_total_weight(self, f1_schema):
        ds = Dataset(f1_schema, [TrainingRow({}, {"app": "music"}, 4)])
        assert ds.total_weight() == 4
