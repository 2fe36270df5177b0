"""Frequent-itemset mining and association-rule derivation.

``mine(dataset, thresholds, algorithm)`` is the one entry point for
``ALGORITHMS``. ``apriori`` returns every frequent itemset, ``max_miner``
only the maximal ones (``expand_maximal`` recovers the full family).
Every support count goes through one vertical layout (Zaki's tidsets): an
item's rows are a Python-int bitmask, an itemset's rows the AND of its
items', and with one row mask per weight class a weighted count is
``Σ w·(rows & class).bit_count()``. The layout is built one attribute
column at a time, by one of two kernels (``_masks``): a column with few
distinct values is coded one byte per row and each value's mask read off
that text as base-2 digits, one C pass per value; any other column takes
one Python pass that ORs each row's bit into its value's mask. Neither
is the cheaper for every column (see ``_Tidsets``).
``brute_force_frequent`` is a naive enumeration kept apart from the
layout as a test oracle. A threshold ``p/q`` (its shortest decimal,
exactly) is met when ``count·q >= p·total``, with no epsilon, so results
are reproducible bit for bit.

Ids and objects. ``_Tidsets`` gives each distinct item an int id in
``Item`` order, so an ascending id tuple is an itemset in canonical
order. ``mine`` stays on ids from counting to rule derivation: the cores
``_apriori``, ``_max_miner`` and ``_expand_maximal`` return
``{id tuple: weighted count}``, and ``_derive``, the one rule derivation,
finds each antecedent's count by a dict lookup. Objects begin at the
emitted rules: ``_derive`` builds their itemsets with
``ItemSet._canonical``, which neither sorts nor checks. That is sound
because any subsequence of a frequent id tuple is sorted and binds each
attribute at most once (no row holds a set that binds one twice, so at
a positive threshold such a set is never frequent). Each rule's identity is encoded once, from its whole
frequent id tuple. The public ``apriori``, ``max_miner``,
``expand_maximal`` and ``derive_rules`` wrap the same cores: they build
``FrequentItemSet`` objects with the checking constructor, or intern
them back into ids, for tests, the benchmark and the oracle.

A carried search (FUP: Cheung et al., ICDE 1996; FUP2: Cheung, Lee and
Kao, DASFAA 1997). ``remine`` is ``mine`` that also takes and returns a
``Search``: the rows mined, the thresholds and schema, their layout, the
frequent family and the emitted rules. Apriori and maxminer find the
same family, so one search serves both, and either may continue the
other's. It continues the search under the same ``min_support`` when the
dataset's rows are the search's rows with some deleted and others
appended, and the appended rows weigh at least as much as the deleted
ones: the layout loses the deleted rows' bits and gains one per
appended row, ``_delta`` counts only the sets a changed row holds and
carries every other set, and ``_derive`` judges the sets that may have
changed. Otherwise (the total would fall, most of the search's rows
were deleted, or an appended row brings an item never seen) the search
is exactly a fresh mine by the algorithm asked for. A search is a pure function of its rows, thresholds and
schema and never changes, so that comparison is its whole validity, and
no caller needs an invalidation hook.

Either way the search's rules are handed to ``_derive`` when its ids
name the same items, split alike into inputs and outputs. A rule whose
source and confidence did not change is then issued as that rule with
only its support replaced. That is exact: a mined rule's other fields are
functions of its id tuple, the schema, its source and its confidence,
and the search's rules are never changed (feedback replaces the
engine's copy of a rule).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, groupby, repeat
from operator import and_
from typing import Callable, Container, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import EngineError
from .model import (
    ALGORITHMS,
    INPUT,
    Dataset,
    Item,
    ItemSet,
    Rule,
    Schema,
    Thresholds,
    TrainingRow,
)

MAX_ORACLE_ITEMS = 20

# A dataset, or raw transactions: bare item collections (weight 1) or
# (items, weight) pairs.
TransactionSource = Union[Dataset, Iterable]
# Frequent itemsets as ascending id tuples (see ``_Tidsets``) with their weighted counts.
Family = dict[tuple[int, ...], int]


@dataclass
class MiningStats:
    """Run telemetry: how much work a mining pass did.

    ``candidates_generated`` counts the itemsets counted on the layout and
    ``rules_emitted`` every rule returned. A fresh mine counts the search
    its algorithm ran (Max-Miner's alone for maxminer). A remine that
    continues a search (see ``remine``) describes the delta, whatever the
    algorithm: it counts as candidates the sets it counted that a changed
    (deleted or appended) row holds, either every subset of those rows in
    one pass or the level-wise candidates one pass per level (see
    ``_delta``), and its emitted rules include those carried from the
    search. ``rules_reissued`` counts the emitted rules
    that are copies of the last search's with a new support (see
    ``_derive``). It is left out of ``==``: it counts objects reused, not
    work the search did, so a remine that searched afresh still equals a
    fresh mine's stats.
    """

    candidates_generated: int = 0
    support_counting_passes: int = 0
    rules_emitted: int = 0
    rules_reissued: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Search:
    """A finished apriori or maxminer mine, for ``remine`` to continue on a longer history.

    A pure function of its rows and the thresholds and schema it was mined
    under: nothing in it changes after it is built, so whoever keeps one
    may keep an older one too.
    """

    rows: list[TrainingRow]  # the dataset rows searched, in order
    min_support: float
    min_confidence: float
    schema: Schema  # the schema the rules were derived under
    tidsets: _Tidsets  # the layout of ``rows``
    family: Family  # every frequent set with its count
    rules: dict[tuple[int, ...], Rule]  # the emitted rules by id tuple


@dataclass(frozen=True)
class FrequentItemSet:
    """An itemset together with its exact support count and fraction."""

    items: ItemSet
    support_count: int
    support: float


@lru_cache(maxsize=64)
def threshold_ratio(threshold: float) -> tuple[int, int]:
    """Exact rational meaning ``(p, q)`` of a threshold ``p/q``.

    Goes through the shortest decimal representation so that a threshold
    written ``0.4`` means 2/5 rather than the nearest binary float.
    """
    exact = Fraction(str(threshold))
    return exact.numerator, exact.denominator


def meets_threshold(count: int, total: int, threshold: float) -> bool:
    """Exact ``count/total >= threshold`` as ``count·q >= p·total``."""
    p, q = threshold_ratio(threshold)
    return count * q >= p * total


def _transactions(data: TransactionSource) -> Iterator[tuple[list[tuple[str, str]], int]]:
    """Each transaction as its ``(attribute, value)`` pairs and its weight."""
    if isinstance(data, Dataset):
        for row in data:
            yield [*row.inputs.items(), *row.outputs.items()], row.weight
        return
    for entry in data:
        weighted = isinstance(entry, tuple) and len(entry) == 2 and type(entry[1]) is int
        items, weight = entry if weighted else (entry, 1)
        if weight < 1:
            raise ValueError("transaction weight must be positive")
        yield [(i.attribute, i.value) for i in ItemSet(items)], weight


# the most distinct values (unbound included) a column masked by translation may have
_FEW_VALUES = 32
# _ONE_HOT[k] maps byte k to b"1" and every other byte to b"0"
_ONE_HOT = [b"0" * k + b"1" + b"0" * (255 - k) for k in range(_FEW_VALUES)]


def _masks(column: list) -> dict:
    """The row mask of each value of ``column``, which holds row ``r`` at ``column[-1 - r]``.

    ``None`` (unbound) gets no mask. A column with at most one distinct
    value per 64 rows, and at most ``_FEW_VALUES``, is masked by
    translation; any other by one OR per row (see ``_Tidsets``).
    """
    distinct = set(column)
    if len(distinct) <= min(_FEW_VALUES, len(column) >> 6):
        codes = {value: k for k, value in enumerate(distinct)}
        text = bytes(map(codes.__getitem__, column))  # row 0 last, so it becomes bit 0
        codes.pop(None, None)
        return {value: int(text.translate(_ONE_HOT[k]), 2) for value, k in codes.items()}
    masks = {}
    bit = 1
    for value in reversed(column):
        masks[value] = masks.get(value, 0) | bit
        bit <<= 1
    masks.pop(None, None)
    return masks


class _Tidsets:
    """A dataset in vertical layout; every miner counts support here.

    Row ``r`` is bit ``r``. ``items[i]`` is the item with id ``i`` and
    ``rows[i]`` its tidset; ids ascend in ``Item`` order. ``classes``
    holds one ``(weight, row mask)`` pair per distinct row weight. A
    layout is never changed once built: ``edited`` makes a new one with
    rows deleted and appended.

    It is built one column at a time. Each role (a dataset's inputs and
    outputs, or a raw transaction's items) is a list of ``{attribute:
    value}`` rows, last row first. Each attribute any row binds, in the
    schema or not, is taken as a column of values (None where unbound),
    and ``_masks`` gives each value's tidset; an attribute bound in both
    roles ORs its masks. The weights are one more column, whose masks are
    the classes.

    ``_masks`` has two kernels because their costs cross. Translation
    codes each row as one byte, then per value translates the coded text
    to ``b"0"``/``b"1"`` and parses it with ``int(text, 2)``: a few Python
    steps per column and one C pass per distinct value. The OR kernel
    takes one Python step per row, however many values there are, and at
    small sizes it is the cheaper (its ints are narrow). Timed on
    CPython 3.11, translation took half the OR kernel's time on a
    2000-row column of 3 values and tied with it near 32 values; at 200
    rows they tied near 16 values, and at 40 rows the OR kernel won at
    any count. Hence translation for at most one value per 64 rows and at
    most 32 values. Appended rows (``edited``) still take one step per
    pair, since only they are touched.
    """

    def __init__(self, data: TransactionSource):
        if isinstance(data, Dataset):
            rows = list(data)[::-1]
            roles = [[row.inputs for row in rows], [row.outputs for row in rows]]
            weights = [row.weight for row in rows]
        else:
            txns = list(_transactions(data))[::-1]
            roles = [[dict(pairs) for pairs, _ in txns]]
            weights = [weight for _, weight in txns]
        n = len(weights)
        columns: dict[str, dict[str, int]] = {}  # attribute -> value -> tidset
        for bindings in roles:
            # names from the rows, not the schema: _derive drops the sets touching one outside it
            for name in set().union(*bindings):
                masks = _masks(list(map(dict.get, bindings, repeat(name, n))))
                held = columns.setdefault(name, masks)
                if held is not masks:  # bound as an input and as an output
                    for value, mask in masks.items():
                        held[value] = held.get(value, 0) | mask
        self.items, tidsets = [], []
        for name in sorted(columns):
            masks = columns[name]
            for value in sorted(masks):
                self.items.append(Item(name, value))
                tidsets.append(masks[value])
        self.ids = dict(zip(self.items, range(len(self.items))))
        self._fill(tidsets, _masks(weights), (1 << n) - 1)

    def _fill(self, rows: list[int], classes: dict[int, int], all_rows: int) -> None:
        self.rows = rows
        self.classes = sorted(classes.items())
        self.all_rows = all_rows
        # every mask counted is a subset of the rows: with one weight class a count is one popcount,
        # and with two each row weighs the lighter weight plus, in the heavier class, the excess
        if len(self.classes) == 1:
            weight = self.classes[0][0]
            self.count = int.bit_count if weight == 1 else lambda rows: weight * rows.bit_count()
        elif len(self.classes) == 2:
            (light, _), (heavy, members) = self.classes
            excess = heavy - light
            self.count = lambda rows: light * rows.bit_count() + excess * (rows & members).bit_count()
        else:
            weighted = self.classes
            self.count = lambda rows: sum(w * (rows & members).bit_count() for w, members in weighted)
        self.total = self.count(all_rows)

    def edited(
        self, deleted: Sequence[int], rows: Sequence[TrainingRow]
    ) -> Optional[tuple["_Tidsets", list[tuple[int, ...]]]]:
        """This layout without the rows at the ascending bits ``deleted``, then with ``rows`` appended.

        Each deleted bit is squeezed out of every tidset and weight class
        (a class left empty goes), so row ``r`` of the edited rows is still
        bit ``r``; then each appended row takes the next bit. Also returns
        the ascending id tuple of every changed row, deleted and then
        appended. None if an appended row brings a new item. The new
        layout shares ``items`` and ``ids``; this one is unchanged.
        """
        appended: list[tuple[int, ...]] = []
        for row in rows:
            ids = [self.ids.get(pair) for pair in (*row.inputs.items(), *row.outputs.items())]
            if None in ids:  # an Item is a tuple, so a known pair finds it
                return None
            appended.append(tuple(sorted(ids)))
        gone = [tuple(i for i, t in enumerate(self.rows) if t >> d & 1) for d in deleted]
        # each run of kept bits as (its lowest bit, a mask of its width, where it lands)
        runs, start, at = [], 0, 0
        for end in (*deleted, self.all_rows.bit_length()):
            if end > start:
                runs.append((start, (1 << (end - start)) - 1, at))
                at += end - start
            start = end + 1

        def squeeze(mask: int) -> int:
            out = 0
            for low, width, to in runs:
                out |= (mask >> low & width) << to
            return out

        if deleted:
            tidsets = list(map(squeeze, self.rows))
            classes = {w: kept for w, members in self.classes if (kept := squeeze(members))}
        else:
            tidsets, classes = list(self.rows), dict(self.classes)
        bit = 1 << at
        for row, ids in zip(rows, appended):
            for i in ids:
                tidsets[i] |= bit
            classes[row.weight] = classes.get(row.weight, 0) | bit
            bit <<= 1
        edited = object.__new__(_Tidsets)
        edited.items, edited.ids = self.items, self.ids
        edited._fill(tidsets, classes, bit - 1)
        return edited, gone + appended

    def tidset(self, items: Iterable[Item]) -> int:
        """The rows holding every one of ``items``; none if one never occurs."""
        rows = self.all_rows
        for item in items:
            i = self.ids.get(item)
            if i is None:
                return 0
            rows &= self.rows[i]
        return rows

    def freeze(self, family: Family) -> set[FrequentItemSet]:
        """An id family as ``FrequentItemSet`` objects, built by the checking constructor."""
        return {
            FrequentItemSet(ItemSet(self.items[i] for i in ids), count, count / self.total)
            for ids, count in family.items()
        }


def _vertical(data: Union[TransactionSource, _Tidsets], empty_ok: bool = True) -> _Tidsets:
    vertical = data if isinstance(data, _Tidsets) else _Tidsets(data)
    if not (empty_ok or vertical.total):
        raise EngineError("empty-dataset", "cannot mine an empty dataset")
    return vertical


def support_count(target: ItemSet, data: TransactionSource) -> int:
    """Sum of weights of transactions whose itemset contains ``target``."""
    if isinstance(data, Dataset):
        for item in target:
            if data.schema.attribute(item.attribute) is None:
                raise EngineError(
                    "unknown-attribute", f"{item.attribute!r} is not in the dataset schema"
                )
    vertical = _vertical(data)
    return vertical.count(vertical.tidset(target))


def apriori(
    data: TransactionSource, min_support: float, stats: Optional[MiningStats] = None
) -> set[FrequentItemSet]:
    """Level-wise frequent-itemset mining with downward-closure pruning.

    Starts from single items and joins frequent (k-1)-sets that share a
    prefix; a candidate is counted only if every (k-1)-subset is frequent.
    Each frequent set keeps its tidset, so a candidate's rows are its
    prefix's rows ANDed with one item's. Returns every itemset whose
    support meets ``min_support``, with exact counts.
    """
    v = _vertical(data, empty_ok=False)
    return v.freeze(_apriori(v, min_support, stats if stats is not None else MiningStats()))


def _apriori(v: _Tidsets, min_support: float, stats: MiningStats, holders: Optional[list[int]] = None) -> Family:
    """``apriori``'s search over ids: every frequent id tuple with its count.

    Each level's candidates come from ``_join`` over the level before, and
    each is counted on the whole layout: its rows are its prefix's rows
    ANDed with its last item's. Given ``holders``, per item a mask over
    some rows (a remine's changed rows) holding it, only the sets one of
    those rows holds are counted and returned: a set's mask is the AND of
    its items', and every subset of such a set is one too, so the join
    over them misses none.
    """
    p, q = threshold_ratio(min_support)
    need = p * v.total
    attribute = [item.attribute for item in v.items]
    result: Family = {}
    level: dict[tuple[int, ...], int] = {(): v.all_rows}  # frequent set -> tidset
    held = {(): -1}  # with holders: candidate -> mask of the rows marked that hold it
    candidates = [(i,) for i in range(len(v.items))]
    while True:
        if holders is not None:
            for cand in candidates:
                held[cand] = held[cand[:-1]] & holders[cand[-1]]
            candidates = [cand for cand in candidates if held[cand]]
            if not candidates:
                return result
        stats.support_counting_passes += 1
        stats.candidates_generated += len(candidates)
        next_level: dict[tuple[int, ...], int] = {}
        for cand in candidates:
            rows = level[cand[:-1]] & v.rows[cand[-1]]
            count = v.count(rows)
            if count * q >= need:
                result[cand] = count
                next_level[cand] = rows
        level = next_level
        candidates = _join(sorted(next_level), level, attribute)
        if not candidates:
            return result


def _join(
    keys: list[tuple[int, ...]], level: Container[tuple[int, ...]], attribute: list[str]
) -> list[tuple[int, ...]]:
    """The next level's candidates from the frequent sets ``keys``, sorted, and ``level``.

    Joins two frequent k-sets that share their first k-1 ids, unless their
    last items bind one attribute; a candidate is kept only if every one
    of its k-subsets is frequent.
    """
    candidates: list[tuple[int, ...]] = []
    for prefix, group in groupby(keys, key=lambda t: t[:-1]):
        # dropping either of the last two ids leaves a joined set, so only the prefix's are checked
        drops = range(len(prefix))
        for left, right in combinations(group, 2):
            if attribute[left[-1]] == attribute[right[-1]]:
                continue  # one value per attribute
            cand = left + (right[-1],)
            if not drops or all(cand[:k] + cand[k + 1 :] in level for k in drops):
                candidates.append(cand)
    return candidates


def max_miner(
    data: TransactionSource, min_support: float, stats: Optional[MiningStats] = None
) -> set[FrequentItemSet]:
    """Maximal frequent itemsets via set-enumeration with head/tail expansion.

    Each node commits a head and carries candidate tail extensions. When
    head∪tail is frequent the whole subtree collapses into one candidate
    maximal set; otherwise infrequent extensions are dropped and the rest
    are reordered by ascending support before expanding. A final filter
    removes any candidate subsumed by a set found in another subtree.
    """
    v = _vertical(data, empty_ok=False)
    return v.freeze(_max_miner(v, min_support, stats if stats is not None else MiningStats()))


def _max_miner(v: _Tidsets, min_support: float, stats: MiningStats) -> Family:
    """``max_miner``'s search over ids: every maximal frequent id tuple with its count."""
    stats.candidates_generated += len(v.items)
    stats.support_counting_passes += 1

    singles = ((v.count(rows), i) for i, rows in enumerate(v.rows))
    frequent_singles = sorted(s for s in singles if meets_threshold(s[0], v.total, min_support))

    found: dict[frozenset[int], int] = {}
    holders = [0] * len(v.items)  # per item: a mask over ``found``'s sets holding it

    def record(items: frozenset[int], count: int) -> None:
        if items and items not in found:
            bit = 1 << len(found)
            found[items] = count
            for i in items:
                holders[i] |= bit

    def holding(items: frozenset[int]) -> int:
        """A mask over ``found``'s sets that are supersets of nonempty ``items``."""
        mask = -1
        for i in items:
            mask &= holders[i]
        return mask

    def expand(head: frozenset[int], head_count: int, tail: Sequence[int], head_rows: int) -> None:
        """Search below ``head`` (its count and rows given) with the extensions ``tail``.

        The tail is disjoint from the head: it holds the extensions ordered
        after the one that joined the head, by ascending support of
        head∪{item} (re-sorted at every expansion).
        """
        if not tail:
            record(head, head_count)
            return
        hut = head.union(tail)
        if holding(hut):
            return  # subtree subsumed by an already-found maximal set
        stats.candidates_generated += 1
        stats.support_counting_passes += 1
        hut_rows = head_rows
        for item in tail:
            hut_rows &= v.rows[item]
        hut_count = v.count(hut_rows)
        if meets_threshold(hut_count, v.total, min_support):
            record(hut, hut_count)
            return  # everything below is a subset of hut
        extensions: list[tuple[int, int, int]] = []
        for item in tail:
            stats.candidates_generated += 1
            rows = head_rows & v.rows[item]
            count = v.count(rows)
            if meets_threshold(count, v.total, min_support):
                extensions.append((count, item, rows))
        if not extensions:
            record(head, head_count)
            return
        extensions.sort()  # dynamic reordering by (support, item)
        for idx, (count, item, rows) in enumerate(extensions):
            expand(head | {item}, count, [e[1] for e in extensions[idx + 1 :]], rows)

    for idx, (count, item) in enumerate(frequent_singles):
        expand(frozenset((item,)), count, [p[1] for p in frequent_singles[idx + 1 :]], v.rows[item])

    # a found set is maximal when the only found superset is itself
    return {
        tuple(sorted(items)): count
        for n, (items, count) in enumerate(found.items())
        if holding(items) == 1 << n
    }


def expand_maximal(
    maximal: set[FrequentItemSet], data: TransactionSource, min_support: float
) -> set[FrequentItemSet]:
    """Recover the full frequent family (with exact supports) from maximal sets.

    Enumerates every nonempty subset of each maximal set, deduplicates, and
    counts each subset once, its tidset built from a one-item-smaller
    subset's; the result equals ``apriori`` on the same inputs. An item
    that never occurs in ``data`` is left out, since every set holding it
    has count 0.
    """
    v = _vertical(data)
    interned = (tuple(sorted(v.ids[it] for it in fis.items if it in v.ids)) for fis in maximal)
    return v.freeze(_expand_maximal(v, interned, min_support))


def _expand_maximal(
    v: _Tidsets, maximal: Iterable[tuple[int, ...]], min_support: float, stats: Optional[MiningStats] = None
) -> Family:
    """``expand_maximal`` over ids: every frequent subset of ascending id tuples, counted once.

    ``stats``, if given, counts the subsets counted as candidates.
    """
    counts: Family = {}
    for ids in maximal:
        tidsets = [v.rows[i] for i in ids]
        rows = [v.all_rows] + [0] * ((1 << len(ids)) - 1)
        keys: list[tuple[int, ...]] = [()] * len(rows)
        for mask in range(1, len(rows)):
            low = mask & -mask
            j = low.bit_length() - 1
            rows[mask] = rows[mask ^ low] & tidsets[j]
            # ids[j] is the smallest id in the subset, so the key stays ascending
            keys[mask] = key = (ids[j],) + keys[mask ^ low]
            if key not in counts:
                counts[key] = v.count(rows[mask])
    if stats is not None:
        stats.candidates_generated += len(counts)
    return {key: count for key, count in counts.items() if meets_threshold(count, v.total, min_support)}


def brute_force_frequent(data: TransactionSource, min_support: float) -> set[FrequentItemSet]:
    """Exhaustive oracle: count every itemset realized by some transaction.

    Independent of the miners and of their vertical layout — per
    transaction it enumerates all nonempty sub-itemsets via bitmask submask
    iteration and tallies weights, then filters by support. Guarded to at
    most ``MAX_ORACLE_ITEMS`` distinct items.
    """
    txns = list(_transactions(data))
    total = sum(w for _, w in txns)
    if total == 0:
        return set()
    universe = sorted({pair for t, _ in txns for pair in t})
    if len(universe) > MAX_ORACLE_ITEMS:
        raise EngineError(
            "too-many-items",
            f"{len(universe)} distinct items exceeds the oracle bound of {MAX_ORACLE_ITEMS}",
        )
    bit_of = {pair: 1 << i for i, pair in enumerate(universe)}
    counts: Counter = Counter()
    for t, w in txns:
        mask = 0
        for pair in t:
            mask |= bit_of[pair]
        sub = mask
        while sub:
            counts[sub] += w
            sub = (sub - 1) & mask
    family: set[FrequentItemSet] = set()
    for mask, count in counts.items():
        if meets_threshold(count, total, min_support):
            items = ItemSet(Item(*universe[i]) for i in range(len(universe)) if mask & (1 << i))
            family.add(FrequentItemSet(items, count, count / total))
    return family


def _derive(
    items: Sequence[Item],
    judged: Iterable[tuple[int, ...]],
    family: Family,
    support: Callable[[tuple[int, ...]], float],
    schema: Schema,
    min_confidence: float,
    stats: Optional[MiningStats],
    source: str,
    previous: Mapping[tuple[int, ...], Rule] = {},
) -> dict[tuple[int, ...], Rule]:
    """The one rule derivation: the rules among the ``judged`` members of an id family.

    ``items[i]`` is id ``i``'s item, ids ascend in ``Item`` order, and
    ``support(ids)`` is the support of a member of ``family``, where each
    judged set's antecedent count is looked up. Returns the emitted rules
    by id tuple. Objects are built only for emitted rules. ``previous``
    holds mined rules by id tuple, derived under the same ``items`` and
    the same split of ids into inputs and outputs. A rule whose id tuple
    is in it takes that rule's itemsets and identity instead of building
    them again. If that rule also has this rule's ``source`` and
    confidence, compared as floats with ``==``, the rule is that one with
    its support replaced (``Rule._resupported``). Its antecedent,
    consequent, identity and ``active`` (always true on a mined rule) are
    then what this derivation would give, so the copy equals, field for
    field, the rule built here.
    """
    inputs = {a.name: a.kind == INPUT for a in schema.attributes}
    is_input = [inputs.get(item.attribute) for item in items]  # None: outside the schema
    if None in is_input:  # a set touching an attribute outside the schema is no rule
        outside = {i for i, known in enumerate(is_input) if known is None}
        judged = [ids for ids in judged if outside.isdisjoint(ids)]
    p, q = threshold_ratio(min_confidence)

    def itemset(ids: tuple[int, ...]) -> ItemSet:
        # any subsequence of a frequent id tuple is sorted and binds each attribute once
        return ItemSet._canonical(tuple(items[i] for i in ids))

    rules: dict[tuple[int, ...], Rule] = {}
    reissued = 0
    for ids in judged:
        ant = tuple([i for i in ids if is_input[i]])
        if not ant or ant == ids:
            continue  # no input, or no output
        ant_count = family.get(ant)
        if ant_count is None:
            missing = ItemSet(items[i] for i in ant)
            raise ValueError(f"frequent family is not downward closed: missing {missing!r}")
        count = family[ids]
        if count * q >= p * ant_count:  # meets_threshold(count, ant_count, min_confidence)
            confidence = count / ant_count
            last = previous.get(ids)
            if last is None:
                cons = tuple([i for i in ids if not is_input[i]])
                antecedent, consequent, identity = itemset(ant), itemset(cons), itemset(ids).encode()
            elif last.confidence == confidence and last.source == source:
                rules[ids] = last._resupported(support(ids))
                reissued += 1
                continue
            else:
                antecedent, consequent, identity = last.antecedent, last.consequent, last.identity
            rules[ids] = Rule._mined(antecedent, consequent, support(ids), confidence, source, identity)
    if stats is not None:
        stats.rules_emitted += len(rules)
        stats.rules_reissued += reissued
    return rules


def derive_rules(
    frequent: set[FrequentItemSet],
    schema: Schema,
    min_confidence: float,
    stats: Optional[MiningStats] = None,
    source: str = "apriori",
) -> set[Rule]:
    """Split each frequent itemset into input antecedent and output consequent.

    A frequent itemset with at least one input and one output item yields a
    rule iff support(itemset)/support(input part) meets ``min_confidence``.
    Empty antecedents are never emitted. Itemsets touching attributes the
    schema does not declare are skipped.
    """
    items = sorted({item for fis in frequent for item in fis.items})
    ids = {item: i for i, item in enumerate(items)}
    family: Family = {}
    supports: dict[tuple[int, ...], float] = {}
    for fis in frequent:
        key = tuple(ids[item] for item in fis.items)
        family[key] = fis.support_count
        supports[key] = fis.support
    rules = _derive(items, family, family, supports.__getitem__, schema, min_confidence, stats, source)
    return set(rules.values())


def mine(
    dataset: Dataset, thresholds: Thresholds, algorithm: str
) -> tuple[set[Rule], MiningStats]:
    """Run one of ``ALGORITHMS`` over a dataset: threshold-passing rules plus stats.

    The vertical layout is built once and shared: by ``max_miner`` and
    ``expand_maximal``, and by the ID3 trees of every output attribute.
    Rules come back unordered, and each caller sorts them its own way.
    """
    rules, stats, _ = remine(dataset, thresholds, algorithm)
    return set(rules), stats


def remine(
    dataset: Dataset,
    thresholds: Thresholds,
    algorithm: str,
    last: Optional[Search] = None,
) -> tuple[list[Rule], MiningStats, Optional[Search]]:
    """``mine``, continuing the search ``last``; also returns the search to continue next.

    The rules come back as an unordered list. ID3 builds its trees afresh
    and returns no search. Apriori and maxminer find the same family, so
    either continues ``last`` whichever of them made it; after a switch
    every rule is rebuilt under its new ``source``. The algorithm only
    chooses which fresh search runs. ``last`` is continued (see
    ``_delta``) only under the same ``min_support``. ``_changes`` finds
    which of its rows the dataset deleted and which rows it appended;
    a prefix is one list comparison, which passes over identical row
    objects without comparing them. The stats then describe the delta,
    not a search by the algorithm. The search and its stats are exactly
    ``mine``'s when the deleted rows weigh more than the appended ones
    (the need ``p·total`` would fall, and a set no changed row holds
    could become frequent), when more than half of ``last``'s rows were
    deleted (as after a migration that rewrites most rows, where editing
    the layout costs more than building it), or when an appended row
    brings an item ``last`` never saw and so would renumber the ids. Its
    rules may still be ``last``'s copied with a new support (see
    ``_derive``), which equal the rules ``mine`` builds.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if not len(dataset):
        raise EngineError("empty-training-data", "the training data set is empty")
    stats = MiningStats()
    if algorithm == "id3":
        from .id3 import _id3_build, id3_rules  # id3 imports this module

        v = _Tidsets(dataset)
        rules: set[Rule] = set()
        for target in dataset.schema.output_names:
            tree = _id3_build(v, dataset.schema, target)
            rules |= id3_rules(tree, dataset, thresholds, target, stats)
        return list(rules), stats, None
    min_support, min_confidence, schema = thresholds.min_support, thresholds.min_confidence, dataset.schema
    rows = list(dataset)
    edited = None
    if last is not None and last.min_support == min_support:
        deleted, appended = _changes(last.rows, rows)
        lost = sum(last.rows[d].weight for d in deleted)
        # the total must not fall, and a layout that loses most of its rows is cheaper built afresh
        if lost <= sum(row.weight for row in appended) and 2 * len(deleted) <= len(last.rows):
            edited = last.tidsets.edited(deleted, appended)
    if edited is not None:
        v, changed = edited
        family, judged = _delta(last, v, changed, bool(deleted), min_confidence, schema, stats)
        # after a delete under a new schema an item of a carried rule may have changed role
        previous = last.rules if not deleted or schema == last.schema else {}
    else:
        v = _Tidsets(dataset)
        if algorithm == "apriori":
            family = _apriori(v, min_support, stats)
        else:
            family = _expand_maximal(v, _max_miner(v, min_support, stats), min_support)
        judged, previous = family, {}
        if last is not None and last.schema == schema and last.tidsets.items == v.items:
            previous = last.rules  # its ids name the same items, split alike into inputs and outputs
    derived = _derive(
        v.items, judged, family, lambda ids: family[ids] / v.total, schema, min_confidence, stats, algorithm, previous
    )
    search = Search(rows, min_support, min_confidence, schema, v, family, derived)
    return list(derived.values()), stats, search


def _changes(old: list[TrainingRow], new: list[TrainingRow]) -> tuple[list[int], list[TrainingRow]]:
    """How ``new`` is ``old`` edited: the positions of the old rows deleted, and the rows appended.

    ``new`` is then ``old`` without the deleted rows, followed by the
    appended ones. Rows compare by ``is``, then ``==``. A prefix is
    checked first, in one list comparison; otherwise each old row is
    matched in turn to the first new row not yet matched, or deleted.
    """
    if new[: len(old)] == old:
        return [], new[len(old) :]
    deleted, j = [], 0
    for i, row in enumerate(old):
        if j < len(new) and (new[j] is row or new[j] == row):
            j += 1
        else:
            deleted.append(i)
    return deleted, new[j:]


def _delta(
    last: Search,
    v: _Tidsets,
    changed: list[tuple[int, ...]],
    deleted: bool,
    min_confidence: float,
    schema: Schema,
    stats: MiningStats,
) -> tuple[Family, Iterable[tuple[int, ...]]]:
    """``last``'s family continued over ``v``, its layout edited by the rows ``changed`` (by id tuple).

    Returns the frequent family and the sets ``_derive`` must judge. It
    builds no rule. ``remine`` continues only when the appended weight is
    at least the deleted weight, so the need ``p·total`` never falls, and
    a set no changed row holds keeps its count: it stays frequent only if
    that count still meets the need. Every frequent set a changed row
    holds is counted on ``v``: when the changed rows have no more subsets
    than ``last`` has frequent sets, by counting each subset
    (``_expand_maximal``); otherwise level-wise, by ``_apriori`` limited
    to the sets a changed row holds. After appends alone, under
    ``last``'s ``min_confidence`` and schema, an untouched set's
    confidence can only fall, since its antecedent's count can only grow,
    and every set that became frequent is touched; so the sets to judge
    are the touched ones and the carried rules still frequent. A deleted
    row lowers the counts of the antecedents it holds, so an untouched
    set may become a rule: after a delete, as under a new
    ``min_confidence`` or schema, every frequent set is judged.
    """
    p, q = threshold_ratio(last.min_support)
    need = p * v.total
    holders = [0] * len(v.items)  # per item: a mask over the changed rows holding it
    for n, ids in enumerate(changed):
        for i in ids:
            holders[i] |= 1 << n
    if sum(1 << len(ids) for ids in changed) <= len(last.family):
        touched = _expand_maximal(v, changed, last.min_support, stats)
        stats.support_counting_passes += bool(changed)
    else:
        touched = _apriori(v, last.min_support, stats, holders)
    if deleted:  # a deleted row lowered the counts it held: a set a changed row holds comes only from touched
        family = {
            ids: count
            for ids, count in last.family.items()
            if count * q >= need and not reduce(and_, map(holders.__getitem__, ids))
        }
    elif min(last.family.values(), default=0) * q >= need:
        family = dict(last.family)  # every carried set still meets the need
    else:
        family = {ids: count for ids, count in last.family.items() if count * q >= need}
    family.update(touched)
    if deleted or min_confidence != last.min_confidence or schema != last.schema:
        return family, family
    return family, [*touched, *(ids for ids in last.rules if ids in family and ids not in touched)]
