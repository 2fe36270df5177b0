"""Remining a history of appended and deleted rows continues the last apriori or maxminer search.

Each gate compares with a fresh ``mining.mine`` of a copy of the rows, so
a search continued when the dataset's rows are not its rows edited, or a
layout changed under a search still held, or a set or rule the changed
rows change but the continued search carries unchanged, shows as a wrong
rule or a wrong count.
"""

import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arlearn.store as store_module
from arlearn import mining
from arlearn.daemon import dispatch
from arlearn.engine import Engine, _match_order
from arlearn.model import AttributeSchema, Dataset, Rule, Schema, Thresholds, TrainingRow
from arlearn.store import open_store

OUTPUTS = ["o:output:{m,n}"]
# a base schema, one that adds an attribute no row binds (the rows stay
# equal), and one that drops a column (the rows change)
SCHEMAS = [
    ["a:input:{x,y,z}", "b:input:{x,y}", "c:input:{p,q}"],
    ["a:input:{x,y,z}", "b:input:{x,y}", "c:input:{p,q}", "d:input:{u,v}"],
    ["a:input:{x,y,z}", "b:input:{x,y}"],
]
ALGORITHMS = ["apriori"] * 4 + ["maxminer", "id3"]


def rendered(rules) -> list:
    return [(r.to_dict(), r.identity) for r in rules]


def fresh_mine(schema: Schema, rows, thresholds: Thresholds, algorithm: str) -> tuple[list, mining.MiningStats]:
    """``mine`` over new row objects equal to ``rows``, its rules in match order."""
    copy = Dataset.restore(schema, [TrainingRow(r.inputs, r.outputs, r.weight) for r in rows])
    rules, stats = mining.mine(copy, thresholds, algorithm)
    return sorted(rules, key=_match_order), stats


def check_generation(engine: Engine, key: str) -> None:
    ctx = engine.context(key)
    want, _ = fresh_mine(ctx.schema, ctx.dataset, ctx.config.thresholds, ctx.config.algorithm)
    assert rendered(ctx.rules) == rendered(want)


def no_space(*args):
    raise OSError(28, "No space left on device")


def row_dict(data, schema: Schema, weights=st.just(1)) -> dict:
    inputs = {}
    for name in schema.input_names:
        value = data.draw(st.none() | st.sampled_from(schema.domain_of(name)))
        if value is not None:
            inputs[name] = value
    outputs = {name: data.draw(st.sampled_from(schema.domain_of(name))) for name in schema.output_names}
    return {"inputs": inputs, "outputs": outputs, "weight": data.draw(weights)}


def request(data, engine: Engine, key: str) -> tuple[str, dict]:
    """One keyed request, drawn for the application's current schema."""
    schema = engine.context(key).schema
    verb = data.draw(
        st.sampled_from(
            ["set_training_data_row"] * 5
            + ["generate_rules"] * 3
            + ["delete_training_data_row", "delete_training_data_row", "set_generation_mode"]
            + ["load_training_data", "delete_training_data", "change_inputs_outputs"]
        )
    )
    if verb == "set_training_data_row":
        return verb, {"row": row_dict(data, schema)}
    if verb == "load_training_data":
        rows = data.draw(st.integers(1, 4))
        return verb, {"rows": [row_dict(data, schema, st.integers(1, 3)) for _ in range(rows)]}
    if verb == "generate_rules":
        return verb, {
            "min_support": data.draw(st.sampled_from([0.1] * 6 + [0.05, 0.3])),
            "min_confidence": data.draw(st.sampled_from([0.5, 0.8])),
            "algorithm": data.draw(st.sampled_from(ALGORITHMS)),
        }
    if verb == "delete_training_data_row":
        name = data.draw(st.sampled_from(schema.input_names))
        match = {name: data.draw(st.sampled_from(schema.domain_of(name)))}
        return verb, {"match": match, "mode": data.draw(st.sampled_from(["first", "all"]))}
    if verb == "change_inputs_outputs":
        return verb, {"inputs": data.draw(st.sampled_from(SCHEMAS)), "outputs": OUTPUTS}
    if verb == "set_generation_mode":
        return verb, {"mode": data.draw(st.sampled_from(["automated", "manual"]))}
    return verb, {}


def append_request(data, schema: Schema) -> tuple[str, dict]:
    """A request that only appends rows, remines, or switches the generation mode."""
    verb = data.draw(
        st.sampled_from(["set_training_data_row"] * 4 + ["load_training_data", "generate_rules", "set_generation_mode"])
    )
    if verb == "set_training_data_row":
        return verb, {"row": row_dict(data, schema, st.integers(1, 3))}
    if verb == "load_training_data":
        rows = data.draw(st.integers(1, 3))
        return verb, {"rows": [row_dict(data, schema, st.integers(1, 3)) for _ in range(rows)]}
    if verb == "generate_rules":
        return verb, {
            "min_support": data.draw(st.sampled_from([0.1] * 4 + [0.05, 0.2, 0.3])),
            "min_confidence": data.draw(st.sampled_from([0.5, 0.6, 0.8])),
            "algorithm": data.draw(st.sampled_from(["apriori", "maxminer"])),
        }
    return verb, {"mode": data.draw(st.sampled_from(["automated"] * 3 + ["manual"]))}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_rules_remined_over_an_append_only_history_equal_a_fresh_mine(data):
    """Appends and remines alone, so that most remines continue the last search."""
    engine = Engine()

    def call(verb, params, key=None):
        return dispatch({"request": verb, "id": 1, "key": key, "params": params}, engine)

    key = call("register_app", {"name": "app"})["result"]["key"]
    assert call("set_input_output", {"inputs": SCHEMAS[0], "outputs": OUTPUTS}, key)["ok"]
    schema = engine.context(key).schema
    for _ in range(data.draw(st.integers(10, 50))):
        verb, params = append_request(data, schema)
        ctx = engine.context(key)
        epoch = ctx.generation_epoch
        call(verb, params, key)
        if ctx.rules_generated and ctx.generation_epoch != epoch:
            check_generation(engine, key)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_remined_rules_equal_a_fresh_mine_after_every_generation(data):
    engine = Engine()
    with tempfile.TemporaryDirectory() as root:
        store = open_store(Path(root))

        def call(verb, params, key=None):
            return dispatch({"request": verb, "id": 1, "key": key, "params": params}, engine, store)

        key = call("register_app", {"name": "app"})["result"]["key"]
        assert call("set_input_output", {"inputs": SCHEMAS[0], "outputs": OUTPUTS}, key)["ok"]
        for _ in range(data.draw(st.integers(10, 50))):
            verb, params = request(data, engine, key)
            if data.draw(st.integers(0, 5)) == 0:
                # a store write fails (the first, or an automated insert's snapshot after
                # its rows) and memory goes back to its checkpoint; then the request is
                # sent again, or another one in its place
                failing = data.draw(st.sampled_from(["_append", "_atomic_write"]))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(store_module, failing, no_space)
                    call(verb, params, key)
                if data.draw(st.booleans()):
                    verb, params = request(data, engine, key)
            ctx = engine.context(key)
            epoch = ctx.generation_epoch
            call(verb, params, key)
            if ctx.rules_generated and ctx.generation_epoch != epoch:
                check_generation(engine, key)


SCHEMA = Schema(
    [
        AttributeSchema("a", "input", ("x", "y")),
        AttributeSchema("b", "input", ("x", "y")),
        AttributeSchema("c", "input", ("p", "q")),
        AttributeSchema("o", "output", ("m", "n")),
    ]
)
ROWS = [
    TrainingRow({"a": a, "b": b, "c": c}, {"o": o})
    for a, b, c, o in [
        ("x", "x", "p", "m"),
        ("x", "y", "p", "m"),
        ("y", "x", "q", "n"),
        ("x", "x", "q", "m"),
        ("y", "y", "p", "n"),
        ("x", "x", "p", "m"),
        ("y", "x", "p", "n"),
        ("x", "y", "q", "m"),
        ("x", "x", "p", "n"),
        ("y", "y", "q", "n"),
    ]
]


def test_a_continued_search_counts_on_the_layout_only_what_it_never_counted():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, ROWS[:6])
    steps = [
        lambda: None,  # a fresh search counts every candidate
        lambda: dataset.extend(ROWS[6:7]),
        lambda: dataset.extend(ROWS[7:8]),
        lambda: None,  # no new rows: every count is carried
        # row 0 deleted and a row appended: the deleted row's subsets are counted too,
        # 23 distinct ones, since the two rows share the 7 without the output
        lambda: (dataset.remove_at([0]), dataset.extend(ROWS[8:9])),
        lambda: dataset.extend(ROWS[9:10]),
    ]
    counted = []
    search = None
    for n, step in enumerate(steps):
        step()
        rules, stats, search = mining.remine(dataset, thresholds, "apriori", search)
        want, fresh = fresh_mine(SCHEMA, dataset, thresholds, "apriori")
        assert rendered(sorted(rules, key=_match_order)) == rendered(want)
        if n == 0:
            assert stats == fresh
        counted.append(stats.candidates_generated)
    assert counted == [37, 15, 15, 0, 23, 15]  # an appended row of 4 items has 15 subsets


def test_a_refused_automated_insert_leaves_the_search_it_continued(tmp_path, monkeypatch):
    engine, store = Engine(), open_store(tmp_path)

    def call(verb, params, key=None):
        return dispatch({"request": verb, "id": 1, "key": key, "params": params}, engine, store)

    key = call("register_app", {"name": "app"})["result"]["key"]
    assert call("set_input_output", {"inputs": SCHEMAS[0], "outputs": OUTPUTS}, key)["ok"]
    rows = [
        {"inputs": {"a": a, "b": b, "c": c}, "outputs": {"o": o}}
        for a, b, c, o in [("x", "y", "p", "m"), ("y", "x", "q", "n"), ("x", "x", "p", "n")]
    ]
    assert call("load_training_data", {"rows": rows}, key)["ok"]
    assert call("generate_rules", {"min_support": 0.1, "min_confidence": 0.5}, key)["ok"]
    assert call("set_generation_mode", {"mode": "automated"}, key)["ok"]
    search = engine.context(key).search
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_atomic_write", no_space)  # the snapshot after the row
        # a row of items the search has seen, so that it continues rather than restarts
        refused = {"row": {"inputs": {"a": "y", "b": "y", "c": "q"}, "outputs": {"o": "m"}}}
        assert not call("set_training_data_row", refused, key)["ok"]
    assert engine.context(key).search is search
    assert call("set_training_data_row", {"row": rows[0]}, key)["ok"]
    check_generation(engine, key)


def subsets(rows) -> int:
    """The distinct nonempty subsets of ``rows``' items: what a continued search counts."""
    found = set()
    for row in rows:
        items = [*row.inputs.items(), *row.outputs.items()]
        found |= {frozenset(c) for k in range(1, len(items) + 1) for c in combinations(items, k)}
    return len(found)


def remined(dataset: Dataset, thresholds: Thresholds, search, algorithm: str = "apriori") -> tuple:
    """``remine`` checked against a fresh mine; its stats and search, and the fresh stats."""
    rules, stats, search = mining.remine(dataset, thresholds, algorithm, search)
    want, fresh = fresh_mine(dataset.schema, dataset, thresholds, algorithm)
    assert rendered(sorted(rules, key=_match_order)) == rendered(want)
    assert stats.rules_emitted == len(rules) == fresh.rules_emitted
    return stats, search, fresh


def test_a_maxminer_remine_after_a_one_row_append_continues_its_search():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, ROWS[:6])
    stats, search, fresh = remined(dataset, thresholds, None, "maxminer")
    assert stats == fresh  # a first mine runs Max-Miner
    dataset.extend(ROWS[6:7])
    stats, _, _ = remined(dataset, thresholds, search, "maxminer")
    assert stats.candidates_generated == subsets(ROWS[6:7]) == 15  # the delta path
    assert stats.support_counting_passes == 1
    assert 0 < stats.rules_reissued < stats.rules_emitted


@pytest.mark.parametrize("first, then", [("maxminer", "apriori"), ("apriori", "maxminer")])
def test_either_algorithm_continues_the_others_search_under_its_own_source(first, then):
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, ROWS[:6])
    _, search, _ = remined(dataset, thresholds, None, first)
    dataset.extend(ROWS[6:7])
    stats, grown, _ = remined(dataset, thresholds, search, then)
    assert stats.candidates_generated == subsets(ROWS[6:7])  # the delta path
    assert stats.rules_reissued == 0
    assert grown.rules and {rule.source for rule in grown.rules.values()} == {then}


def test_a_new_min_confidence_under_the_same_min_support_judges_every_rule_again():
    dataset = Dataset(SCHEMA, ROWS[:6])
    _, search, _ = remined(dataset, Thresholds(0.2, 0.6), None)
    for confidence, rows in [(0.9, ROWS[6:7]), (0.5, []), (0.5, ROWS[7:8]), (0.6, ROWS[8:9])]:
        dataset.extend(rows)
        stats, search, _ = remined(dataset, Thresholds(0.2, confidence), search)
        assert stats.candidates_generated == subsets(rows)  # the family was continued


def test_carried_sets_whose_count_misses_the_grown_need_leave_the_family():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, ROWS)
    _, search, _ = remined(dataset, thresholds, None)
    # 10 rows need a count of 2; 11 rows need 3, and the appended row holds none of a, b, c's values
    row = TrainingRow({}, {"o": "m"})
    dataset.extend([row])
    stats, grown, _ = remined(dataset, thresholds, search)
    assert stats.candidates_generated == 1
    dropped = [ids for ids, count in search.family.items() if count == 2]
    assert dropped and not any(ids in grown.family for ids in dropped)


def test_a_weighted_multi_row_append_continues_the_search():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, ROWS[:6])
    _, search, _ = remined(dataset, thresholds, None)
    rows = [
        TrainingRow({"a": "y", "b": "x"}, {"o": "n"}, 3),
        TrainingRow({"a": "y", "c": "q"}, {"o": "n"}, 2),
        TrainingRow({"b": "x"}, {"o": "m"}, 1),
    ]
    dataset.extend(rows)
    stats, _, _ = remined(dataset, thresholds, search)
    assert stats.candidates_generated == subsets(rows)
    assert stats.support_counting_passes == 1


def test_an_append_with_more_subsets_than_frequent_sets_counts_level_wise():
    thresholds = Thresholds(0.6, 0.6)  # few frequent sets
    dataset = Dataset(SCHEMA, ROWS[:6])
    _, search, _ = remined(dataset, thresholds, None)
    assert len(search.family) < 16  # fewer than a 4-item row's subsets
    dataset.extend(ROWS[6:7])  # a=y, b=x, c=p, o=n
    stats, _, fresh = remined(dataset, thresholds, search)
    # the row's 4 items, then the one pair of its 2 frequent items: only sets the row holds
    assert (stats.candidates_generated, stats.support_counting_passes) == (5, 2)
    assert stats.candidates_generated < fresh.candidates_generated


def test_a_delta_remine_drops_carried_rules_whose_antecedent_the_row_holds_and_set_it_does_not():
    thresholds = Thresholds(0.2, 0.75)
    dataset = Dataset(SCHEMA, ROWS[:6])
    _, search, _ = remined(dataset, thresholds, None)
    dataset.extend(ROWS[8:9])  # a=x, b=x, c=p, o=n
    stats, grown, _ = remined(dataset, thresholds, search)
    assert stats.candidates_generated == subsets(ROWS[8:9]) == 15  # the delta path
    dropped = [{"b": "x"}, {"c": "p"}, {"b": "x", "c": "p"}, {"a": "x", "b": "x", "c": "p"}]
    before = [(r.antecedent.as_mapping(), r.consequent.as_mapping()) for r in search.rules.values()]
    after = [(r.antecedent.as_mapping(), r.consequent.as_mapping()) for r in grown.rules.values()]
    for antecedent in dropped:
        assert (antecedent, {"o": "m"}) in before
        assert (antecedent, {"o": "m"}) not in after


def test_a_delta_remine_under_a_new_schema_judges_every_frequent_set_again(monkeypatch):
    thresholds = Thresholds(0.2, 0.6)
    _, search, _ = remined(Dataset(SCHEMA, ROWS[:6]), thresholds, None)
    wider = Schema([*SCHEMA.attributes, AttributeSchema("d", "input", ("u", "v"))])
    dataset = Dataset.restore(wider, ROWS[:6])  # the same rows: d is bound by none
    dataset.extend(ROWS[6:7])
    judged = []
    derive = mining._derive

    def recording(items, sets, *args, **kwargs):
        judged.append(set(sets))
        return derive(items, judged[-1], *args, **kwargs)

    monkeypatch.setattr(mining, "_derive", recording)
    stats, grown, _ = remined(dataset, thresholds, search)
    assert stats.candidates_generated == subsets(ROWS[6:7])  # the family was carried
    assert judged[0] == grown.family.keys()


def test_a_one_row_append_builds_only_the_rules_whose_confidence_changed(monkeypatch):
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, ROWS[:6])
    _, search, _ = remined(dataset, thresholds, None)
    dataset.extend(ROWS[6:7])
    built = []
    post_init = Rule.__post_init__

    def counting(rule):
        built.append(rule.identity)
        post_init(rule)

    with monkeypatch.context() as patch:
        patch.setattr(Rule, "__post_init__", counting)
        rules, stats, _ = mining.remine(dataset, thresholds, "apriori", search)
    want, _ = fresh_mine(SCHEMA, dataset, thresholds, "apriori")
    assert rendered(sorted(rules, key=_match_order)) == rendered(want)
    last = {rule.identity: rule.confidence for rule in search.rules.values()}
    changed = sorted(rule.identity for rule in rules if last.get(rule.identity) != rule.confidence)
    assert 0 < len(changed) < len(rules)
    assert sorted(built) == changed
    assert stats.rules_emitted - stats.rules_reissued == len(changed)


def spied_stats(monkeypatch) -> list:
    """The ``MiningStats`` of every ``mining.remine`` the engine makes from now on."""
    seen = []
    remine = mining.remine

    def spying(*args, **kwargs):
        result = remine(*args, **kwargs)
        seen.append(result[1])
        return result

    monkeypatch.setattr(mining, "remine", spying)
    return seen


def row_dicts(rows) -> list:
    return [{"inputs": dict(r.inputs), "outputs": dict(r.outputs), "weight": r.weight} for r in rows]


def keyed_app(engine: Engine):
    """An application on ``SCHEMAS[0]``, and a ``call`` that sends it a request and returns the result."""
    key = dispatch({"request": "register_app", "id": 1, "params": {"name": "app"}}, engine)["result"]["key"]

    def call(verb, params):
        response = dispatch({"request": verb, "id": 1, "key": key, "params": params}, engine)
        assert response["ok"], response
        return response["result"]

    call("set_input_output", {"inputs": SCHEMAS[0], "outputs": OUTPUTS})
    return key, call


def test_feedback_never_reaches_a_reissued_rule(monkeypatch):
    engine = Engine()
    key, call = keyed_app(engine)
    call("load_training_data", {"rows": row_dicts(ROWS[:8])})
    generate = {"min_support": 0.2, "min_confidence": 0.6, "algorithm": "apriori"}
    call("generate_rules", generate)
    stats = spied_stats(monkeypatch)
    queries = [{"a": "x", "b": "x", "c": "p"}, {"a": "y", "c": "q"}, {"b": "y"}]
    for step in ["append", "delete"]:
        for query, verdict in zip(queries, ["negative", "positive", "negative"]):
            assert call("get_current_output", {"inputs": query})["output"] is not None
            call("send_feedback_last_gco", {"verdict": verdict})
        ctx = engine.context(key)
        assert {rule.confidence for rule in ctx.rules} != {rule.confidence for rule in ctx.search.rules.values()}
        if step == "append":  # continues the search
            call("set_training_data_row", {"row": row_dicts(ROWS[8:9])[0]})
        else:  # a fresh search, given the last one's rules
            assert call("delete_training_data_row", {"match": {"a": "x"}, "mode": "first"})["deleted"] == 1
        call("generate_rules", generate)
        assert stats[-1].rules_reissued > 0
        check_generation(engine, key)


@pytest.mark.parametrize("algorithm", ["maxminer", "id3"])
def test_a_remine_after_an_apriori_search_gives_its_own_source(algorithm):
    engine = Engine()
    key, call = keyed_app(engine)
    call("load_training_data", {"rows": row_dicts(ROWS)})
    call("generate_rules", {"min_support": 0.2, "min_confidence": 0.6, "algorithm": "apriori"})
    assert engine.context(key).search is not None
    rules = call("generate_rules", {"min_support": 0.2, "min_confidence": 0.6, "algorithm": algorithm})["rules"]
    assert rules and {rule["source"] for rule in rules} == {algorithm}
    check_generation(engine, key)


def test_a_remine_under_a_schema_that_leaves_the_rows_equal_equals_a_fresh_mine(monkeypatch):
    engine = Engine()
    key, call = keyed_app(engine)
    call("load_training_data", {"rows": row_dicts(ROWS)})
    generate = {"min_support": 0.2, "min_confidence": 0.6, "algorithm": "apriori"}
    call("generate_rules", generate)
    rows = list(engine.context(key).dataset)
    stats = spied_stats(monkeypatch)
    call("change_inputs_outputs", {"inputs": SCHEMAS[1], "outputs": OUTPUTS})
    assert list(engine.context(key).dataset) == rows
    call("generate_rules", generate)
    assert stats[-1].rules_reissued > 0
    check_generation(engine, key)


# rows that bind every value of SCHEMAS[0], so that no later row brings a new item
COVERING = [
    {"inputs": {"a": a, "b": b, "c": c}, "outputs": {"o": o}}
    for a, b, c, o in [("x", "x", "p", "m"), ("y", "y", "q", "n"), ("z", "x", "p", "n")]
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_remine_after_inserts_and_a_delete_continues_its_search(data):
    """Blocks as serve-mixed sends them: inserts, a delete of the last insert's first match, a remine."""
    engine = Engine()
    key, call = keyed_app(engine)
    schema = engine.context(key).schema
    weights = st.integers(1, 2)
    rows = [row_dict(data, schema, weights) for _ in range(data.draw(st.integers(5, 30)))]
    call("load_training_data", {"rows": COVERING + rows})
    generate = {
        "min_support": data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])),
        "min_confidence": data.draw(st.sampled_from([0.4, 0.6, 0.8])),
        "algorithm": data.draw(st.sampled_from(["apriori", "maxminer"])),
    }
    call("generate_rules", generate)
    continued = []
    delta = mining._delta

    def counting(*args):
        continued.append(args[0])
        return delta(*args)

    remines = data.draw(st.integers(1, 6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mining, "_delta", counting)
        for _ in range(remines):
            for _ in range(data.draw(st.integers(2, 6))):
                row = row_dict(data, schema, weights)
                call("set_training_data_row", {"row": row})
            assert call("delete_training_data_row", {"match": row["inputs"], "mode": "first"})["deleted"] == 1
            call("generate_rules", generate)
            check_generation(engine, key)
    # every value was seen, and each deleted row weighs at most the two or more rows appended before it
    assert len(continued) == remines


def continues(grown: mining.Search, search: mining.Search) -> bool:
    """Whether ``grown`` continued ``search``: a continued layout keeps its items."""
    return grown.tidsets.items is search.tidsets.items


# a=x holds o=m in 3 of its 5 rows; row 3 holds a=x, b=y and o=n
EDITED = [
    TrainingRow({"a": a, "b": b, "c": c}, {"o": o})
    for a, b, c, o in [
        ("x", "x", "p", "m"),
        ("x", "y", "q", "m"),
        ("x", "x", "q", "m"),
        ("x", "y", "p", "n"),
        ("x", "x", "p", "n"),
        ("y", "x", "q", "n"),
        ("y", "y", "p", "m"),
        ("y", "x", "p", "n"),
    ]
]
ELSEWHERE = TrainingRow({"a": "y", "b": "y", "c": "q"}, {"o": "n"})  # holds neither a=x nor o=m


def test_a_remine_after_a_delete_heavier_than_the_appends_searches_from_empty():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, EDITED)
    _, search, _ = remined(dataset, thresholds, None)
    dataset.remove_at([0, 1])
    dataset.extend([ELSEWHERE])  # the total falls from 8 to 7
    stats, grown, fresh = remined(dataset, thresholds, search)
    assert stats == fresh
    assert not continues(grown, search)


def test_a_remine_after_most_rows_were_deleted_searches_from_empty():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, EDITED)
    _, search, _ = remined(dataset, thresholds, None)
    dataset.remove_at(range(5))
    dataset.extend([ELSEWHERE] * 5)  # the total stays 8, but 5 of the 8 rows searched are gone
    stats, grown, fresh = remined(dataset, thresholds, search)
    assert stats == fresh
    assert not continues(grown, search)


def test_a_delete_makes_a_rule_of_a_set_no_changed_row_holds():
    thresholds = Thresholds(0.2, 0.75)
    dataset = Dataset(SCHEMA, EDITED)
    _, search, _ = remined(dataset, thresholds, None)
    rule = ({"a": "x"}, {"o": "m"})
    assert rule not in [(r.antecedent.as_mapping(), r.consequent.as_mapping()) for r in search.rules.values()]
    dataset.remove_at([3])  # a=x now holds o=m in 3 of 4 rows; the set {a=x, o=m} keeps its count
    dataset.extend([ELSEWHERE])
    _, grown, _ = remined(dataset, thresholds, search)
    assert continues(grown, search)
    assert rule in [(r.antecedent.as_mapping(), r.consequent.as_mapping()) for r in grown.rules.values()]


def test_a_carried_set_only_a_deleted_row_held_leaves_the_family_below_the_need():
    thresholds = Thresholds(0.2, 0.6)  # 8 rows need a count of 2
    dataset = Dataset(SCHEMA, EDITED)
    _, search, _ = remined(dataset, thresholds, None)
    ids = tuple(search.tidsets.ids[item] for item in [("a", "x"), ("b", "y")])
    assert search.family[ids] == 2  # rows 1 and 3
    dataset.remove_at([3])
    dataset.extend([ELSEWHERE])
    _, grown, _ = remined(dataset, thresholds, search)
    assert continues(grown, search)
    assert ids not in grown.family


def test_deleting_the_only_row_of_a_weight_class_drops_the_class():
    thresholds = Thresholds(0.2, 0.6)
    heavy = TrainingRow({"a": "x", "b": "y"}, {"o": "n"}, 2)
    dataset = Dataset(SCHEMA, [*EDITED[:4], heavy, *EDITED[4:]])
    _, search, _ = remined(dataset, thresholds, None)
    assert [weight for weight, _ in search.tidsets.classes] == [1, 2]
    dataset.remove_at([4])
    dataset.extend([ELSEWHERE, EDITED[0]])
    _, grown, _ = remined(dataset, thresholds, search)
    assert continues(grown, search)
    assert grown.tidsets.classes == [(1, grown.tidsets.all_rows)]


def test_a_row_deleted_and_appended_again_leaves_every_count():
    thresholds = Thresholds(0.2, 0.6)
    dataset = Dataset(SCHEMA, EDITED)
    _, search, _ = remined(dataset, thresholds, None)
    dataset.remove_at([3])
    dataset.extend([TrainingRow(dict(EDITED[3].inputs), dict(EDITED[3].outputs))])  # equal, not the same object
    stats, grown, _ = remined(dataset, thresholds, search)
    assert continues(grown, search)
    assert grown.family == search.family
    assert stats.rules_reissued == stats.rules_emitted == len(search.rules)
