import json
import random

import pytest

from arlearn.engine import Engine, FeedbackPolicy, context_fingerprint
from arlearn.errors import EngineError
from arlearn.model import (
    AttributeSchema,
    Item,
    ItemSet,
    Thresholds,
    TrainingRow,
    is_key,
)

from helpers import F1_ROW_DICTS

F1_INPUTS = [
    AttributeSchema("headphones", "input", ("yes", "no")),
    AttributeSchema("hour", "input", ("morning", "evening")),
]
F1_OUTPUTS = [AttributeSchema("app", "output", ("music", "none"))]
F1_ROWS = [TrainingRow(**r) for r in F1_ROW_DICTS]


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def app(engine):
    key = engine.register_app("MusicPlayer")
    engine.set_input_output(key, F1_INPUTS, F1_OUTPUTS)
    return key


@pytest.fixture
def trained(engine, app):
    engine.load_training_data(app, F1_ROWS)
    engine.generate_rules(app, Thresholds(0.4, 0.8), "apriori")
    return app


def code_of(excinfo):
    return excinfo.value.code


class TestRegisterApp:
    def test_distinct_keys(self, engine):
        k1 = engine.register_app("one")
        k2 = engine.register_app("two")
        assert k1 != k2
        assert is_key(k1) and is_key(k2)

    def test_empty_name(self, engine):
        with pytest.raises(EngineError) as err:
            engine.register_app("")
        assert code_of(err) == "empty-name"

    def test_duplicate_name(self, engine):
        engine.register_app("MusicPlayer")
        with pytest.raises(EngineError) as err:
            engine.register_app("MusicPlayer")
        assert code_of(err) == "duplicate-name"


class TestSetInputOutput:
    def test_fresh_key_gets_empty_dataset(self, engine, app):
        assert len(engine.context(app).dataset) == 0

    def test_unknown_key(self, engine):
        with pytest.raises(EngineError) as err:
            engine.set_input_output("x" * 32, F1_INPUTS, F1_OUTPUTS)
        assert code_of(err) == "unknown-key"

    def test_second_call_rejected(self, engine, app):
        with pytest.raises(EngineError) as err:
            engine.set_input_output(app, F1_INPUTS, F1_OUTPUTS)
        assert code_of(err) == "schema-already-set"

    def test_schema_without_outputs_invalid(self, engine):
        key = engine.register_app("bare")
        with pytest.raises(EngineError) as err:
            engine.set_input_output(key, F1_INPUTS, [])
        assert code_of(err) == "invalid-schema"

    def test_kind_mismatch_invalid(self, engine):
        key = engine.register_app("mixed")
        with pytest.raises(EngineError) as err:
            engine.set_input_output(key, F1_OUTPUTS, F1_INPUTS)
        assert code_of(err) == "invalid-schema"


class TestLoadTrainingData:
    def test_accepts_batch(self, engine, app):
        assert engine.load_training_data(app, F1_ROWS) == 5
        assert len(engine.context(app).dataset) == 5

    def test_atomic_on_bad_row(self, engine, app):
        batch = F1_ROWS[:2] + [TrainingRow({"headphones": "maybe"}, {"app": "music"})]
        with pytest.raises(EngineError) as err:
            engine.load_training_data(app, batch)
        assert code_of(err) == "validation-error"
        assert "row 2" in str(err.value)
        assert len(engine.context(app).dataset) == 0

    def test_empty_batch_ok(self, engine, app):
        assert engine.load_training_data(app, []) == 0

    def test_requires_schema(self, engine):
        key = engine.register_app("noschema")
        with pytest.raises(EngineError) as err:
            engine.load_training_data(key, F1_ROWS)
        assert code_of(err) == "no-schema"


class TestSetTrainingDataRow:
    def test_appends(self, engine, app):
        engine.set_training_data_row(app, F1_ROWS[0])
        assert len(engine.context(app).dataset) == 1

    def test_validation_leaves_dataset_unchanged(self, engine, app):
        with pytest.raises(EngineError) as err:
            engine.set_training_data_row(
                app, TrainingRow({"headphones": "maybe"}, {"app": "music"})
            )
        assert code_of(err) == "validation-error"
        assert len(engine.context(app).dataset) == 0

    def test_automated_mode_regenerates_each_insert(self, engine, app):
        engine.load_training_data(app, F1_ROWS[:1])
        engine.generate_rules(app, Thresholds(0.4, 0.8), "apriori")
        engine.set_generation_mode(app, "automated")
        engine.delete_training_data(app)
        for row in F1_ROWS:
            engine.set_training_data_row(app, row)
        rules = engine.context(app).rules
        assert any(
            r.antecedent == ItemSet([Item("headphones", "yes")])
            and r.consequent == ItemSet([Item("app", "music")])
            for r in rules
        )


class TestGenerateRules:
    def test_empty_training_data(self, engine, app):
        with pytest.raises(EngineError) as err:
            engine.generate_rules(app, Thresholds(0.4, 0.8), "apriori")
        assert code_of(err) == "empty-training-data"

    def test_f1_produces_headphones_rule(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        rules = engine.generate_rules(app, Thresholds(0.4, 0.8), "apriori")
        match = [
            r
            for r in rules
            if r.antecedent == ItemSet([Item("headphones", "yes")])
            and r.consequent == ItemSet([Item("app", "music")])
        ]
        assert len(match) == 1
        assert match[0].support == pytest.approx(0.6, abs=1e-12)
        assert match[0].confidence == 1.0

    def test_unreachable_support_gives_empty_success(self, engine, app):
        # max itemset support in F1 is 3/5
        engine.load_training_data(app, F1_ROWS)
        assert engine.generate_rules(app, Thresholds(0.95, 0.8), "apriori") == []
        assert engine.context(app).rules_generated

    @pytest.mark.parametrize("algorithm", ["apriori", "maxminer", "id3"])
    def test_all_algorithms_run(self, engine, app, algorithm):
        engine.load_training_data(app, F1_ROWS)
        rules = engine.generate_rules(app, Thresholds(0.4, 0.8), algorithm)
        assert rules
        assert all(r.source == algorithm for r in rules)

    def test_failed_generate_stores_no_config(self, engine, app):
        with pytest.raises(EngineError):
            engine.generate_rules(app, Thresholds(0.4, 0.8), "apriori")
        with pytest.raises(EngineError) as err:
            engine.set_generation_mode(app, "automated")
        assert code_of(err) == "no-generation-config"

    def test_regeneration_discards_feedback_adjustments(self, engine, trained):
        engine.get_current_output(trained, {"headphones": "yes"})
        engine.send_feedback_last_gco(trained, "negative")
        engine.generate_rules(trained, Thresholds(0.4, 0.8), "apriori")
        rules = engine.context(trained).rules
        yes_rule = next(
            r for r in rules if r.antecedent == ItemSet([Item("headphones", "yes")])
        )
        assert yes_rule.confidence == 1.0


class TestGenerationMode:
    def test_automated_after_manual_generate(self, engine, trained):
        engine.set_generation_mode(trained, "automated")
        assert engine.context(trained).mode == "automated"

    def test_automated_without_config(self, engine, app):
        with pytest.raises(EngineError) as err:
            engine.set_generation_mode(app, "automated")
        assert code_of(err) == "no-generation-config"

    def test_manual_mode_keeps_rules_frozen(self, engine, trained):
        before = list(engine.context(trained).rules)
        engine.set_training_data_row(
            trained, TrainingRow({"headphones": "no"}, {"app": "music"})
        )
        assert engine.context(trained).rules == before

    def test_automated_equivalent_to_manual_on_final_dataset(self, engine, app):
        rng = random.Random(5)
        engine.load_training_data(app, F1_ROWS[:1])
        engine.generate_rules(app, Thresholds(0.3, 0.6), "apriori")
        engine.set_generation_mode(app, "automated")
        for _ in range(20):
            row = TrainingRow(
                {
                    "headphones": rng.choice(["yes", "no"]),
                    "hour": rng.choice(["morning", "evening"]),
                },
                {"app": rng.choice(["music", "none"])},
            )
            engine.set_training_data_row(app, row)
            automated_rules = list(engine.context(app).rules)
            manual = Engine()
            key = manual.register_app("shadow")
            manual.set_input_output(key, F1_INPUTS, F1_OUTPUTS)
            manual.load_training_data(key, list(engine.context(app).dataset.rows))
            expected = manual.generate_rules(key, Thresholds(0.3, 0.6), "apriori")
            assert automated_rules == expected


class TestGetCurrentOutput:
    def test_subset_match(self, engine, trained):
        result = engine.get_current_output(
            trained, {"headphones": "yes", "hour": "morning"}
        )
        assert result.outputs == ItemSet([Item("app", "music")])
        assert result.confidence == 1.0

    def test_prefers_higher_support_on_confidence_tie(self, engine, trained):
        # {headphones=yes}=>music (0.6) and {headphones=yes,hour=morning}=>music
        # (0.4) both have confidence 1.0
        result = engine.get_current_output(
            trained, {"headphones": "yes", "hour": "morning"}
        )
        assert result.rule.antecedent == ItemSet([Item("headphones", "yes")])
        assert result.rule.support == pytest.approx(0.6, abs=1e-12)

    def test_no_match_is_null(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        # at min_support 0.5 the {headphones=no} itemsets (2/5) fall away
        engine.generate_rules(app, Thresholds(0.5, 0.8), "apriori")
        assert engine.get_current_output(app, {"headphones": "no"}) is None

    def test_empty_inputs_null(self, engine, trained):
        assert engine.get_current_output(trained, {}) is None

    def test_requires_generation(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        with pytest.raises(EngineError) as err:
            engine.get_current_output(app, {"headphones": "yes"})
        assert code_of(err) == "no-rules-generated"

    def test_returned_antecedent_subset_of_query(self, engine, trained):
        rng = random.Random(3)
        for _ in range(30):
            query = {}
            if rng.random() < 0.8:
                query["headphones"] = rng.choice(["yes", "no"])
            if rng.random() < 0.8:
                query["hour"] = rng.choice(["morning", "evening"])
            result = engine.get_current_output(trained, query)
            if result is not None:
                assert result.rule.antecedent.issubset(ItemSet.from_mapping(query))

    def test_inactive_rules_never_match(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        engine.generate_rules(app, Thresholds(0.4, 0.95), "apriori")
        assert engine.get_current_output(app, {"headphones": "no"}) is not None
        engine.get_current_output(app, {"headphones": "no"})
        engine.send_feedback_last_gco(app, "negative")  # 1.0 -> 0.9 < 0.95
        assert engine.get_current_output(app, {"headphones": "no"}) is None

    def test_match_order_is_total(self, engine, trained):
        from arlearn.engine import _match_order

        rules = engine.context(trained).rules
        keys = [_match_order(r) for r in rules]
        assert len(set(keys)) == len(rules)


class TestFeedback:
    def test_positive_clamped_at_ceiling(self, engine, trained):
        engine.get_current_output(trained, {"headphones": "yes"})
        assert engine.send_feedback_last_gco(trained, "positive") == 1.0

    def test_negative_drops_by_default_delta(self, engine, trained):
        engine.get_current_output(trained, {"headphones": "yes"})
        assert engine.send_feedback_last_gco(trained, "negative") == pytest.approx(0.9)

    def test_double_feedback_rejected(self, engine, trained):
        engine.get_current_output(trained, {"headphones": "yes"})
        engine.send_feedback_last_gco(trained, "positive")
        with pytest.raises(EngineError) as err:
            engine.send_feedback_last_gco(trained, "positive")
        assert code_of(err) == "no-pending-gco"

    def test_feedback_without_gco(self, engine, trained):
        with pytest.raises(EngineError) as err:
            engine.send_feedback_last_gco(trained, "positive")
        assert code_of(err) == "no-pending-gco"

    def test_null_result_clears_pending_record(self, engine, trained):
        engine.get_current_output(trained, {"headphones": "yes"})
        assert engine.get_current_output(trained, {}) is None
        with pytest.raises(EngineError) as err:
            engine.send_feedback_last_gco(trained, "positive")
        assert code_of(err) == "no-pending-gco"

    def test_regeneration_evicts_match(self, engine, trained):
        engine.get_current_output(trained, {"headphones": "yes"})
        engine.generate_rules(trained, Thresholds(0.4, 0.8), "apriori")
        with pytest.raises(EngineError) as err:
            engine.send_feedback_last_gco(trained, "positive")
        assert code_of(err) == "rule-evicted"

    def test_floor_clamp(self, engine, app):
        engine = Engine(FeedbackPolicy(negative_delta=0.9))
        key = engine.register_app("clamp")
        engine.set_input_output(key, F1_INPUTS, F1_OUTPUTS)
        engine.load_training_data(key, F1_ROWS)
        # low confidence floor keeps the rule active after the first drop
        engine.generate_rules(key, Thresholds(0.4, 0.05), "apriori")
        engine.get_current_output(key, {"headphones": "yes"})
        assert engine.send_feedback_last_gco(key, "negative") == pytest.approx(0.1)
        engine.get_current_output(key, {"headphones": "yes"})
        assert engine.send_feedback_last_gco(key, "negative") == 0.0

    def test_regeneration_reactivates(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        engine.generate_rules(app, Thresholds(0.4, 0.95), "apriori")
        engine.get_current_output(app, {"headphones": "no"})
        engine.send_feedback_last_gco(app, "negative")
        assert engine.get_current_output(app, {"headphones": "no"}) is None
        engine.generate_rules(app, Thresholds(0.4, 0.95), "apriori")
        assert engine.get_current_output(app, {"headphones": "no"}) is not None


class TestDeleteTrainingData:
    def test_generate_after_delete_errors(self, engine, trained):
        engine.delete_training_data(trained)
        with pytest.raises(EngineError) as err:
            engine.generate_rules(trained, Thresholds(0.4, 0.8), "apriori")
        assert code_of(err) == "empty-training-data"

    def test_idempotent(self, engine, trained):
        engine.delete_training_data(trained)
        engine.delete_training_data(trained)
        assert len(engine.context(trained).dataset) == 0

    def test_schema_and_rules_survive(self, engine, trained):
        rules_before = list(engine.context(trained).rules)
        engine.delete_training_data(trained)
        ctx = engine.context(trained)
        assert ctx.schema is not None
        assert ctx.rules == rules_before


class TestDeleteTrainingDataRow:
    def test_delete_all_matching(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        assert engine.delete_training_data_row(app, {"headphones": "yes"}, "all") == 3
        assert len(engine.context(app).dataset) == 2

    def test_delete_first_matching(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        assert engine.delete_training_data_row(app, {"headphones": "yes"}, "first") == 1
        remaining = engine.context(app).dataset.rows
        assert sum(1 for r in remaining if r.inputs.get("headphones") == "yes") == 2

    def test_absent_value_deletes_nothing(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        assert (
            engine.delete_training_data_row(
                app, {"headphones": "yes", "hour": "evening"}, "all"
            )
            == 1
        )
        assert engine.delete_training_data_row(app, {"hour": "noon"}, "all") == 0

    def test_invalid_attribute(self, engine, app):
        with pytest.raises(EngineError) as err:
            engine.delete_training_data_row(app, {"app": "music"}, "all")
        assert code_of(err) == "invalid-attribute"

    def test_all_then_exact_match_count_zero(self, engine, app):
        engine.load_training_data(app, F1_ROWS)
        engine.delete_training_data_row(app, {"headphones": "yes"}, "all")
        rows = engine.context(app).dataset.rows
        assert all(r.inputs.get("headphones") != "yes" for r in rows)


class TestChangeInputsOutputs:
    def test_drop_input_column(self, engine, trained):
        report = engine.change_inputs_outputs(
            trained, [F1_INPUTS[0]], F1_OUTPUTS
        )
        ctx = engine.context(trained)
        assert report.dropped_columns == 1
        assert report.quarantined_rows == 0
        assert len(ctx.dataset) == 5
        assert all("hour" not in r.inputs for r in ctx.dataset.rows)
        assert not ctx.rules_generated
        with pytest.raises(EngineError) as err:
            engine.get_current_output(trained, {"headphones": "yes"})
        assert code_of(err) == "no-rules-generated"

    def test_add_input_kept_null(self, engine, trained):
        new_inputs = F1_INPUTS + [AttributeSchema("location", "input", ("home", "work"))]
        report = engine.change_inputs_outputs(trained, new_inputs, F1_OUTPUTS)
        ctx = engine.context(trained)
        assert report.quarantined_rows == 0
        assert all("location" not in r.inputs for r in ctx.dataset.rows)

    def test_add_output_quarantines_history(self, engine, trained):
        new_outputs = F1_OUTPUTS + [AttributeSchema("volume", "output", ("low", "high"))]
        report = engine.change_inputs_outputs(trained, F1_INPUTS, new_outputs)
        ctx = engine.context(trained)
        assert report.quarantined_rows == 5
        assert len(ctx.dataset) == 0
        assert len(ctx.quarantine) == 5

    def test_domain_shrink_quarantines_out_of_domain_rows(self, engine, trained):
        shrunk = [
            AttributeSchema("headphones", "input", ("yes",)),
            F1_INPUTS[1],
        ]
        report = engine.change_inputs_outputs(trained, shrunk, F1_OUTPUTS)
        ctx = engine.context(trained)
        assert report.quarantined_rows == 2
        assert len(ctx.dataset) == 3

    def test_kind_change_counts_as_drop(self, engine, trained):
        flipped_inputs = [
            F1_INPUTS[0],
            F1_INPUTS[1],
            AttributeSchema("app", "input", ("music", "none")),
        ]
        new_outputs = [AttributeSchema("volume", "output", ("low", "high"))]
        report = engine.change_inputs_outputs(trained, flipped_inputs, new_outputs)
        assert report.dropped_columns == 1  # app changed kind
        assert report.quarantined_rows == 5  # nobody binds the new output

    def test_unknown_key(self, engine):
        with pytest.raises(EngineError) as err:
            engine.change_inputs_outputs("x" * 32, F1_INPUTS, F1_OUTPUTS)
        assert code_of(err) == "unknown-key"


@pytest.mark.parametrize(
    "request_",
    [
        lambda engine, key: engine.generate_rules(key, Thresholds(0.4, 0.8), "fpgrowth"),
        lambda engine, key: engine.set_generation_mode(key, "sometimes"),
        lambda engine, key: engine.send_feedback_last_gco(key, "meh"),
        lambda engine, key: engine.delete_training_data_row(key, {}, "some"),
    ],
    ids=["algorithm", "mode", "verdict", "delete-mode"],
)
def test_unknown_enumerated_values_are_malformed_params(engine, trained, request_):
    before = context_fingerprint(engine.context(trained))
    with pytest.raises(EngineError) as err:
        request_(engine, trained)
    assert code_of(err) == "malformed-params"
    assert context_fingerprint(engine.context(trained)) == before


def _normalized(ctx) -> str:
    state = json.loads(context_fingerprint(ctx))
    state["key"] = "KEY"
    return json.dumps(state, sort_keys=True)


class TestKeyIsolation:
    def test_interleaved_streams_leave_other_context_untouched(self):
        rng = random.Random(99)

        def drive(engine, key, op_seed):
            r = random.Random(op_seed)
            for _ in range(25):
                op = r.randrange(5)
                try:
                    if op == 0:
                        engine.set_training_data_row(
                            key,
                            TrainingRow(
                                {
                                    "headphones": r.choice(["yes", "no"]),
                                    "hour": r.choice(["morning", "evening"]),
                                },
                                {"app": r.choice(["music", "none"])},
                            ),
                        )
                    elif op == 1:
                        engine.generate_rules(key, Thresholds(0.3, 0.6), "apriori")
                    elif op == 2:
                        engine.get_current_output(key, {"headphones": "yes"})
                    elif op == 3:
                        engine.send_feedback_last_gco(key, r.choice(["positive", "negative"]))
                    else:
                        engine.delete_training_data_row(key, {"headphones": "yes"}, "first")
                except EngineError:
                    pass

        shared = Engine()
        key_a = shared.register_app("alpha")
        shared.set_input_output(key_a, F1_INPUTS, F1_OUTPUTS)
        key_b = shared.register_app("beta")
        shared.set_input_output(key_b, F1_INPUTS, F1_OUTPUTS)

        solo = Engine()
        solo_b = solo.register_app("beta")
        solo.set_input_output(solo_b, F1_INPUTS, F1_OUTPUTS)

        # interleave: each B step mirrored in the solo engine, A noise between
        for step in range(12):
            drive(shared, key_a, 1000 + step)
            drive(shared, key_b, 2000 + step)
            drive(solo, solo_b, 2000 + step)

        assert _normalized(shared.context(key_b)) == _normalized(solo.context(solo_b))
