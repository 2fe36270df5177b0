"""Hand-counted cases for the benchmark's oracle.

Run with ``python -m pytest bench/test_oracle.py``.
"""

from oracle import at_least, best_rule, encode, expected_rules, id3_faults, subset_counts

# three rows, total weight 4:
#   a=1 b=1 y=p  (1)
#   a=1 b=2 y=p  (1)
#   a=2 b=1 y=q  (2)
ROWS = [
    {"inputs": {"a": "1", "b": "1"}, "outputs": {"y": "p"}, "weight": 1},
    {"inputs": {"a": "1", "b": "2"}, "outputs": {"y": "p"}, "weight": 1},
    {"inputs": {"a": "2", "b": "1"}, "outputs": {"y": "q"}, "weight": 2},
]

A1, A2, B1, B2 = ("a", "1"), ("a", "2"), ("b", "1"), ("b", "2")
YP, YQ = ("y", "p"), ("y", "q")


def rule(ant, cons, support, confidence, active=True):
    return {"antecedent": dict(ant), "consequent": dict(cons), "support": support,
            "confidence": confidence, "active": active}


def test_subset_counts_by_hand():
    counts, total = subset_counts(ROWS)
    assert total == 4
    assert counts[(A1,)] == 2 and counts[(A2,)] == 2
    assert counts[(B1,)] == 3 and counts[(B2,)] == 1
    assert counts[(A2, B1)] == 2 and counts[(A1, B1)] == 1
    assert counts[(B1, YQ)] == 2 and counts[(B1, YP)] == 1
    assert counts[(A2, B1, YQ)] == 2 and counts[(A1, B2, YP)] == 1
    assert (A1, A2) not in counts
    # 3 rows of 3 items: 7 nonempty subsets each, 17 of them distinct
    assert len(counts) == 17


def test_expected_rules_by_hand():
    rules = expected_rules(ROWS, ["a", "b"], 0.5, 0.6)
    assert rules == {
        ((A1,), (YP,), 0.5, 1.0),
        ((A2,), (YQ,), 0.5, 1.0),
        ((B1,), (YQ,), 0.5, 2 / 3),
        ((A2, B1), (YQ,), 0.5, 1.0),
    }
    # b=1 => y=q has confidence 2/3, just under 0.7
    assert ((B1,), (YQ,), 0.5, 2 / 3) not in expected_rules(ROWS, ["a", "b"], 0.5, 0.7)
    # at minsup 0.25 the single-row itemsets become frequent too
    low = expected_rules(ROWS, ["a", "b"], 0.25, 0.5)
    assert ((B2,), (YP,), 0.25, 1.0) in low
    assert ((A1, B1), (YP,), 0.25, 1.0) in low
    assert ((B1,), (YP,), 0.25, 1 / 3) not in low


def test_thresholds_are_exact_decimals():
    assert at_least(3, 10, 0.3)  # 0.3 means 3/10 exactly, not the nearest float
    assert not at_least(29, 100, 0.3)
    assert at_least(1, 3, 0.3333)


def test_encode_is_canonical():
    assert encode([B1, A2]) == '[["a","2"],["b","1"]]'
    assert encode([]) == "[]"


def test_best_rule_ranking():
    rules = [
        rule([A2], [YQ], 0.5, 1.0),
        rule([B1], [YQ], 0.75, 2 / 3),
        rule([A2, B1], [YQ], 0.5, 1.0),
        rule([A1], [YP], 0.5, 1.0),
    ]
    # equal confidence and support: the longer antecedent wins
    assert best_rule(rules, {"a": "2", "b": "1"}) is rules[2]
    # confidence outranks support
    assert best_rule(rules, {"a": "1", "b": "1"}) is rules[3]
    assert best_rule(rules, {"b": "1"}) is rules[1]
    assert best_rule(rules, {"b": "2"}) is None
    # inactive rules never answer
    rules[3]["active"] = False
    assert best_rule(rules, {"a": "1", "b": "1"}) is rules[1]
    # last resort: the identity text breaks a full tie
    tied = [rule([B1], [YQ], 0.5, 1.0), rule([A1], [YQ], 0.5, 1.0)]
    assert best_rule(tied, {"a": "1", "b": "1"}) is tied[1]


def test_id3_faults_by_hand():
    good = [rule([A1], [YP], 0.5, 1.0), rule([A2], [YQ], 0.5, 1.0)]
    assert id3_faults(ROWS, good, 0.5, 0.9) == []
    # a=1 => y=p has support 2/4, below 0.6
    assert any("below" in f for f in id3_faults(ROWS, good, 0.6, 0.9))
    wrong = [rule([A1], [YP], 0.25, 1.0)]
    assert any("recount" in f for f in id3_faults(ROWS, wrong, 0.25, 0.5))
    overlapping = [rule([A1], [YP], 0.5, 1.0), rule([B1], [YQ], 0.5, 2 / 3)]
    assert any("overlap" in f for f in id3_faults(ROWS, overlapping, 0.5, 0.5))
