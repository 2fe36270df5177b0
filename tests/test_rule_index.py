"""How a query is answered: the first query of a generation scans, later ones use the bitmask index.

Every answer is checked against the plain-list definition: the active
rule whose antecedent the query holds that comes first in the match
order, with each identity recomputed from the rule's itemsets.
"""

import gc
import json
import random
import tempfile
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arlearn.store as store_module
from arlearn.daemon import dispatch
from arlearn.engine import AppContext, Engine, _match_order, context_fingerprint
from arlearn.errors import EngineError
from arlearn.model import AttributeSchema, Item, ItemSet, Rule, Schema, Thresholds, new_key
from arlearn.store import open_store

from helpers import F1_INPUT_LITERALS, F1_OUTPUT_LITERALS, F1_ROW_DICTS, random_dataset

MIN_CONFIDENCE = 0.6
# few distinct values, so that confidence, support and length tie often
CONFIDENCES = (0.6, 0.65, 0.7, 1.0)
SUPPORTS = (0.1, 0.2, 0.5)


def identity_of(rule: Rule) -> str:
    return rule.antecedent.union(rule.consequent).encode()


def expected(rules: list, query: ItemSet):
    matches = [r for r in rules if r.active and r.antecedent.issubset(query)]
    key = lambda r: (-r.confidence, -r.support, -len(r.antecedent), identity_of(r))
    return min(matches, key=key) if matches else None


def check_query(engine: Engine, key: str, query: dict):
    """Ask the engine and compare with a scan of a copy of its rules."""
    ctx = engine.context(key)
    want = expected(list(ctx.rules), ItemSet.from_mapping(query))
    got = engine.get_current_output(key, query)
    if want is None:
        assert got is None
        assert ctx.last_gco is None
    else:
        assert got is not None
        assert got.rule == want
        assert ctx.last_gco.rule_id == identity_of(want)
    return got


def check_feedback(engine: Engine, key: str, verdict: str) -> None:
    """Feedback changes the matched rule in place and moves no rule."""
    ctx = engine.context(key)
    before = list(ctx.rules)
    position = [identity_of(r) for r in before].index(ctx.last_gco.rule_id)
    confidence = engine.send_feedback_last_gco(key, verdict)
    after = list(ctx.rules)
    assert after[position].confidence == confidence
    assert after[position].active == (confidence >= MIN_CONFIDENCE)
    assert [r for i, r in enumerate(after) if i != position] == [
        r for i, r in enumerate(before) if i != position
    ]
    assert [identity_of(r) for r in after] == [identity_of(r) for r in before]


def random_query(rng: random.Random, schema: Schema) -> dict:
    query = {n: rng.choice(schema.domain_of(n)) for n in schema.input_names if rng.random() < 0.6}
    if rng.random() < 0.1:
        query["undeclared"] = "v0"
    return query


def random_rule_context(rng: random.Random) -> AppContext:
    """A context restored with a random rule list in no particular order."""
    inputs = [
        AttributeSchema(f"i{k}", "input", tuple(f"v{j}" for j in range(rng.randint(1, 3))))
        for k in range(rng.randint(1, 4))
    ]
    outputs = [AttributeSchema(f"o{k}", "output", ("x", "y")) for k in range(rng.randint(1, 2))]
    schema = Schema(inputs + outputs)
    rules = {}
    for _ in range(rng.randint(0, 60)):
        antecedent = ItemSet(Item(a.name, rng.choice(a.domain)) for a in inputs if rng.random() < 0.5)
        bound = [a for a in outputs if rng.random() < 0.7] or outputs[:1]
        consequent = ItemSet(Item(a.name, rng.choice(a.domain)) for a in bound)
        confidence = rng.choice(CONFIDENCES)
        rule = Rule(antecedent, consequent, rng.choice(SUPPORTS), confidence, "apriori")
        rules.setdefault((antecedent, consequent), rule)
    literals_in, literals_out = schema.to_literals()
    state = {
        "key": new_key(),
        "name": "app",
        "inputs": literals_in,
        "outputs": literals_out,
        "config": {"min_support": 0.1, "min_confidence": MIN_CONFIDENCE, "algorithm": "apriori"},
        "rules_generated": True,
        "generation_epoch": 1,
    }
    return AppContext.from_state(state, rules=rules.values())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_answers_equal_a_scan_through_feedback(seed):
    rng = random.Random(seed)
    ctx = random_rule_context(rng)
    engine = Engine.restore([ctx])
    for _ in range(rng.randint(1, 40)):
        got = check_query(engine, ctx.key, random_query(rng, ctx.schema))
        while got is not None and rng.random() < 0.5:
            check_feedback(engine, ctx.key, rng.choice(["positive", "negative"]))
            got = check_query(engine, ctx.key, random_query(rng, ctx.schema))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_answers_equal_a_scan_across_generations(seed):
    rng = random.Random(seed)
    dataset = random_dataset(rng, max_rows=60)
    schema = dataset.schema
    inputs = [schema.attribute(n) for n in schema.input_names]
    outputs = [schema.attribute(n) for n in schema.output_names]
    engine = Engine()
    key = engine.register_app("app")
    engine.set_input_output(key, inputs, outputs)
    engine.load_training_data(key, dataset.rows)

    def session():
        engine.generate_rules(
            key,
            Thresholds(rng.choice([0.05, 0.1, 0.3]), MIN_CONFIDENCE),
            rng.choice(["apriori", "maxminer", "id3"]),
        )
        for _ in range(rng.randint(1, 12)):
            got = check_query(engine, key, random_query(rng, engine.context(key).schema))
            if got is not None and rng.random() < 0.4:
                check_feedback(engine, key, rng.choice(["positive", "negative"]))

    session()
    session()
    engine.change_inputs_outputs(key, inputs[1:], outputs)
    with pytest.raises(EngineError) as err:
        engine.get_current_output(key, {})
    assert err.value.code == "no-rules-generated"
    session()


def call(engine, store, verb, key=None, **params):
    request = {"request": verb, "id": 1, "params": params}
    if key is not None:
        request["key"] = key
    return dispatch(request, engine, store)


def ok(response):
    assert response["ok"], response
    return response["result"]


QUERIES = [
    {"headphones": "yes", "hour": "morning"},
    {"headphones": "yes"},
    {"hour": "evening"},
    {"headphones": "no", "hour": "evening"},
    {},
]


@pytest.fixture
def served(tmp_path):
    engine, store = Engine(), open_store(tmp_path)
    key = ok(call(engine, store, "register_app", name="MusicPlayer"))["key"]
    ok(call(engine, store, "set_input_output", key, inputs=F1_INPUT_LITERALS, outputs=F1_OUTPUT_LITERALS))
    ok(call(engine, store, "load_training_data", key, rows=F1_ROW_DICTS))
    ok(call(engine, store, "generate_rules", key, min_support=0.2, min_confidence=MIN_CONFIDENCE))
    return engine, store, key


def test_reopened_store_with_journaled_feedback_answers_like_memory(tmp_path, served):
    engine, store, key = served
    for n, query in enumerate(QUERIES):
        if ok(call(engine, store, "get_current_output", key, inputs=query))["output"] is not None:
            verdict = "negative" if n % 3 else "positive"
            ok(call(engine, store, "send_feedback_last_gco", key, verdict=verdict))
    assert '"feedback"' in (tmp_path / key / "journal.log").read_text()
    reopened = Engine.restore(open_store(tmp_path).contexts().values())
    assert context_fingerprint(reopened.context(key)) == context_fingerprint(engine.context(key))
    for query in QUERIES * 2:
        got = check_query(reopened, key, query)
        assert got == engine.get_current_output(key, query)
        if got is not None:
            check_feedback(reopened, key, "positive")
            check_feedback(engine, key, "positive")


def test_feedback_rolled_back_after_io_error_leaves_answers_exact(served, monkeypatch):
    engine, store, key = served
    for query in QUERIES:
        check_query(engine, key, query)
    ok(call(engine, store, "get_current_output", key, inputs=QUERIES[0]))
    before = context_fingerprint(engine.context(key))

    def broken(path, text):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_append", broken)
        response = call(engine, store, "send_feedback_last_gco", key, verdict="negative")
    assert response["error"]["code"] == "io-error"
    assert context_fingerprint(engine.context(key)) == before
    check_feedback(engine, key, "negative")
    for query in QUERIES:
        if check_query(engine, key, query) is not None:
            check_feedback(engine, key, "negative")


def count_calls(monkeypatch, cls, name):
    calls = [0]
    real = getattr(cls, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_first_query_of_a_generation_scans_and_later_ones_use_the_index(served, monkeypatch):
    """A mined generation is in match order: the first query stops at its first active match."""
    engine, _, key = served
    query = ItemSet.from_mapping(QUERIES[0])
    scanned = count_calls(monkeypatch, ItemSet, "issubset")
    for _ in range(2):
        rules = engine.context(key).rules
        first = next(i for i, r in enumerate(rules) if r.active and r.antecedent.issubset(query))
        assert first + 1 < len(rules)
        scanned[0] = 0
        engine.get_current_output(key, QUERIES[0])
        assert scanned[0] == first + 1
        for later in QUERIES:
            engine.get_current_output(key, later)
        assert scanned[0] == first + 1
        engine.generate_rules(key, Thresholds(0.2, MIN_CONFIDENCE), "apriori")


def test_each_identity_is_computed_once(tmp_path, served, monkeypatch):
    engine, _, key = served
    encoded = count_calls(monkeypatch, ItemSet, "encode")
    engine.generate_rules(key, Thresholds(0.2, MIN_CONFIDENCE), "apriori")
    assert encoded[0] == 0  # the remine carries the identities of the fixture's mine
    store = open_store(tmp_path)
    engine = Engine.restore(store.contexts().values())
    rules = engine.generate_rules(key, Thresholds(0.2, MIN_CONFIDENCE), "apriori")
    assert encoded[0] == len(rules)  # a reopened context has no search: one per mined rule
    for query in QUERIES * 3:
        engine.get_current_output(key, query)
    assert engine.context(key).rule_position(rules[-1].identity) == len(rules) - 1
    assert encoded[0] == len(rules)
    store.persist_context(engine.context(key))
    encoded[0] = 0
    open_store(tmp_path)
    assert encoded[0] == 0  # nothing is computed eagerly on restore


def test_a_remine_lets_the_old_generation_go(served):
    engine, _, key = served
    for query in QUERIES * 2:
        engine.get_current_output(key, query)
    assert engine.get_current_output(key, QUERIES[0]) is not None
    engine.send_feedback_last_gco(key, "positive")
    old = [weakref.ref(r) for r in engine.context(key).rules]
    assert old
    engine.generate_rules(key, Thresholds(0.2, MIN_CONFIDENCE), "apriori")
    gc.collect()
    assert all(ref() is None for ref in old)


def in_match_order(ctx: AppContext) -> bool:
    """Whether the rules outside the context's ``moved`` positions are in match order."""
    moved = set(ctx.state_dict()["moved"])
    kept = [_match_order(r) for position, r in enumerate(ctx.rules) if position not in moved]
    return kept == sorted(kept)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_a_reopened_context_keeps_the_rules_outside_its_moved_mask_in_match_order(seed):
    """Random feedback, then a snapshot or a journal left to replay, then a reopen."""
    rng = random.Random(seed)
    dataset = random_dataset(rng, min_rows=5, max_rows=40)
    literals_in, literals_out = dataset.schema.to_literals()
    with tempfile.TemporaryDirectory() as root:
        engine, store = Engine(), open_store(root)
        key = ok(call(engine, store, "register_app", name="app"))["key"]
        ok(call(engine, store, "set_input_output", key, inputs=literals_in, outputs=literals_out))
        ok(call(engine, store, "load_training_data", key, rows=[r.to_dict() for r in dataset.rows]))
        ok(call(engine, store, "generate_rules", key, min_support=0.1, min_confidence=MIN_CONFIDENCE))
        for _ in range(rng.randint(1, 5)):
            for _ in range(rng.randint(1, 20)):
                got = ok(call(engine, store, "get_current_output", key, inputs=random_query(rng, dataset.schema)))
                if got["output"] is not None:
                    verdict = rng.choice(["positive", "negative"])
                    ok(call(engine, store, "send_feedback_last_gco", key, verdict=verdict))
            if rng.random() < 0.5:
                store.persist_context(engine.context(key))  # else the reopen replays the journal
            store = open_store(root)
            engine = Engine.restore(store.contexts().values())
            assert in_match_order(engine.context(key))
            for _ in range(3):
                check_query(engine, key, random_query(rng, dataset.schema))


def test_the_first_query_after_an_open_encodes_at_most_one_identity(tmp_path, served, monkeypatch):
    engine, store, key = served
    # a larger generation, where neighbours tie on confidence, support and length
    ok(call(engine, store, "generate_rules", key, min_support=0.05, min_confidence=0.3))
    encoded = count_calls(monkeypatch, ItemSet, "encode")
    for query in QUERIES:
        engine = Engine.restore(open_store(tmp_path).contexts().values())
        want = expected(list(engine.context(key).rules), ItemSet.from_mapping(query))
        encoded[0] = 0
        got = engine.get_current_output(key, query)
        assert encoded[0] <= 1
        assert (got.rule if got is not None else None) == want


def feedback_out_of_order(engine, store, key) -> None:
    """Negative feedback on matched rules until the rule list is out of match order."""
    for query in QUERIES * 3:
        if ok(call(engine, store, "get_current_output", key, inputs=query))["output"] is not None:
            ok(call(engine, store, "send_feedback_last_gco", key, verdict="negative"))
    keys = [_match_order(r) for r in engine.context(key).rules]
    assert keys != sorted(keys)


def test_a_snapshot_written_before_moved_was_saved_answers_like_a_scan(tmp_path, served):
    engine, store, key = served
    feedback_out_of_order(engine, store, key)
    store.persist_context(engine.context(key))
    meta_path = tmp_path / key / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta.pop("moved")
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    reopened = Engine.restore(open_store(tmp_path).contexts().values())
    assert context_fingerprint(reopened.context(key)) == context_fingerprint(engine.context(key))
    for query in QUERIES * 2:
        if check_query(reopened, key, query) is not None:
            check_feedback(reopened, key, "positive")


@pytest.mark.parametrize("writes_through", [0, 1])
def test_a_remine_whose_store_runs_out_of_space_reopens_whole_and_answers_like_a_scan(
    tmp_path, served, monkeypatch, writes_through
):
    """The remine's snapshot gets ``writes_through`` atomic writes, then every later one fails.

    Reopened, the store holds the state memory answers from: before the
    request when it failed, after it when it succeeded. It never pairs
    the new generation's ``moved`` mask with the older, reordered rules.
    """
    engine, store, key = served
    feedback_out_of_order(engine, store, key)
    store.persist_context(engine.context(key))
    before = context_fingerprint(engine.context(key))
    real, written = store_module._atomic_write, []

    def fail_after(path, text):
        if len(written) == writes_through:
            failing(path, text)
        written.append(path.name)
        real(path, text)

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_atomic_write", fail_after)
        response = call(engine, store, "generate_rules", key, min_support=0.2, min_confidence=MIN_CONFIDENCE)
    reopened = Engine.restore(open_store(tmp_path).contexts().values())
    assert context_fingerprint(reopened.context(key)) == context_fingerprint(engine.context(key))
    for query in QUERIES:
        check_query(reopened, key, query)
    if writes_through == 0:
        assert response["error"]["code"] == "io-error"
        assert context_fingerprint(engine.context(key)) == before
    else:
        ok(response)  # a snapshot is one write
        assert written == ["meta.json"]


@pytest.mark.parametrize(
    "moved",
    [3, "0", [True], [-1], "rules"],
    ids=["not-a-list", "text", "bool-entry", "negative", "past-the-rules"],
)
def test_a_malformed_moved_is_corrupt_meta(tmp_path, served, moved):
    engine, store, key = served
    store.persist_context(engine.context(key))
    meta_path = tmp_path / key / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["moved"] = [len(engine.context(key).rules)] if moved == "rules" else moved
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(EngineError) as err:
        open_store(tmp_path)
    assert err.value.code == "corrupt-meta"


def test_context_fingerprint_ignores_moved(served):
    engine, store, key = served
    ctx = engine.context(key)
    state = ctx.state_dict()
    assert state["moved"] == []
    everything = AppContext.from_state(
        {**state, "moved": list(range(len(ctx.rules)))}, ctx.dataset, ctx.quarantine, ctx.rules
    )
    assert everything.state_dict()["moved"] != state["moved"]
    assert context_fingerprint(everything) == context_fingerprint(ctx)


def check_served_query(engine: Engine, store, key: str, query: dict) -> None:
    """Ask through ``dispatch`` and compare with a scan of a copy of the rules."""
    want = expected(list(engine.context(key).rules), ItemSet.from_mapping(query))
    got = ok(call(engine, store, "get_current_output", key, inputs=query))
    assert got.get("rule_id") == (identity_of(want) if want is not None else None)


def failing(path, text):
    raise OSError(28, "No space left on device")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_served_answers_equal_a_scan_through_reopens_rollbacks_and_remines(seed):
    """Queries, feedback, snapshots, reopens with journal replay, failed writes and remines, in random order."""
    rng = random.Random(seed)
    dataset = random_dataset(rng, min_rows=5, max_rows=40)
    literals_in, literals_out = dataset.schema.to_literals()

    def remine():
        params = {
            "min_support": rng.choice([0.05, 0.1, 0.2]),
            "min_confidence": rng.choice([0.3, MIN_CONFIDENCE]),
            "algorithm": rng.choice(["apriori", "maxminer", "id3"]),
        }
        ok(call(engine, store, "generate_rules", key, **params))

    with tempfile.TemporaryDirectory() as root:
        engine, store = Engine(), open_store(root)
        key = ok(call(engine, store, "register_app", name="app"))["key"]
        ok(call(engine, store, "set_input_output", key, inputs=literals_in, outputs=literals_out))
        ok(call(engine, store, "load_training_data", key, rows=[r.to_dict() for r in dataset.rows]))
        remine()
        for _ in range(rng.randint(10, 60)):
            step = rng.random()
            ctx = engine.context(key)
            # feedback after a remine would rightly be refused as rule-evicted
            pending = ctx.last_gco is not None and ctx.last_gco.epoch == ctx.generation_epoch
            if step < 0.45:
                check_served_query(engine, store, key, random_query(rng, dataset.schema))
            elif step < 0.75:
                if pending:
                    ok(call(engine, store, "send_feedback_last_gco", key, verdict=rng.choice(["positive", "negative"])))
            elif step < 0.85:
                if rng.random() < 0.5:
                    store.persist_context(ctx)  # else the reopen replays the journal
                store = open_store(root)
                engine = Engine.restore(store.contexts().values())
            elif step < 0.95:
                before = context_fingerprint(ctx)
                with mock.patch.object(store_module, "_append", failing):
                    if pending:
                        response = call(engine, store, "send_feedback_last_gco", key, verdict="negative")
                    else:
                        query = random_query(rng, dataset.schema)
                        response = call(engine, store, "get_current_output", key, inputs=query)
                assert response["error"]["code"] == "io-error"
                assert context_fingerprint(engine.context(key)) == before
            else:
                remine()
