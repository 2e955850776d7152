"""Exact Stanley depth: poset construction, the decision search and its witnesses."""

import gc
import json
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdepth import sdepth
from circdepth.formulas import formula_for_spec
from circdepth.graphs import (
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    LadderSpec,
    PathSpec,
    build_graph,
    graph_from_edges,
    parse_graph_spec,
)
from circdepth.homology import hochster_betti_table
from circdepth.ideals import (
    MonomialIdeal,
    colon_by_monomial,
    edge_ideal,
    standard_supports,
)
from circdepth.sdepth import (
    Interval,
    IntervalPartition,
    PosetSizeError,
    char_poset,
    counting_bound,
    find_partition,
    sdepth_exact,
    validate_partition,
)

from conftest import random_connected_graph


def test_char_poset_examples():
    assert len(char_poset(MonomialIdeal.create(3, [])).elements) == 8
    p3 = char_poset(edge_ideal(build_graph(PathSpec(3))))
    assert p3.elements == (0b000, 0b001, 0b010, 0b100, 0b101)
    k4 = char_poset(edge_ideal(build_graph(CompleteSpec(4))))
    assert len(k4.elements) == 5
    assert k4.max_rank == 1


def test_char_poset_cap():
    with pytest.raises(PosetSizeError):
        char_poset(MonomialIdeal.create(15, []))


def test_char_poset_downward_closed():
    poset = char_poset(edge_ideal(build_graph(CycleSpec(6))))
    members = set(poset.elements)
    for m in members:
        for v in range(6):
            if (m >> v) & 1:
                assert m ^ (1 << v) in members


def test_sdepth_zero_ideal():
    r = sdepth_exact(MonomialIdeal.create(4, []))
    assert r.value == 4 and r.is_exact
    assert r.witness.min_top_size == 4


@pytest.mark.parametrize(
    "spec,value",
    [
        (PathSpec(3), 1),
        (CycleSpec(5), 2),
        (LadderSpec("B", 2), 2),
        (CompleteSpec(4), 1),
    ],
)
def test_sdepth_examples(spec, value):
    ideal = edge_ideal(build_graph(spec))
    r = sdepth_exact(ideal)
    assert r.is_exact and r.value == value
    assert validate_partition(char_poset(ideal), r.witness)


def test_partition_validation_catches_bad_partitions():
    poset = char_poset(edge_ideal(build_graph(PathSpec(3))))
    # overlap: [0, x1] and [x1, x1x3] both cover x1
    bad = IntervalPartition((Interval(0b000, 0b001), Interval(0b001, 0b101),
                             Interval(0b010, 0b010), Interval(0b100, 0b100)))
    assert not validate_partition(poset, bad)
    # missing element x3
    partial = IntervalPartition((Interval(0b000, 0b001), Interval(0b010, 0b010),
                                 Interval(0b100, 0b100)))
    assert not validate_partition(poset, partial)


@pytest.mark.parametrize(
    "text", ["path:1", "star:5", "cubic:4:1", "complete:6", "ladderB:0", None]
)
def test_find_partition_at_zero_is_all_singletons(text):
    # sdepth_exact seeds its search with find_partition(poset, 0), whose
    # witness is every standard support as its own interval; None is the
    # zero-variable ring
    if text is None:
        ideal = MonomialIdeal.create(0, [])
    else:
        ideal = edge_ideal(build_graph(parse_graph_spec(text)))
    poset = char_poset(ideal)
    want = IntervalPartition(tuple(Interval(m, m) for m in poset.elements))
    assert find_partition(poset, 0) == want
    r = sdepth_exact(ideal)
    assert r.is_exact and validate_partition(poset, r.witness)


def test_find_partition_decision_boundary():
    poset = char_poset(edge_ideal(build_graph(CycleSpec(5))))
    assert find_partition(poset, 2) is not None
    assert find_partition(poset, 3) is None


def _greedy_cover(poset, k):
    """The dive's rule on sets: cover the lowest uncovered element (rank, then
    mask) with its first rank-k top in poset order whose interval still fits,
    never backtracking.  True when it covers the rank <= k prefix."""
    uncovered = {m for m in poset.elements if m.bit_count() <= k}
    tops = sorted(m for m in uncovered if m.bit_count() == k)
    while uncovered:
        bottom = min(uncovered, key=lambda m: (m.bit_count(), m))
        for top in tops:
            cells = _cells(bottom, top)
            if top & bottom == bottom and uncovered.issuperset(cells):
                uncovered.difference_update(cells)
                break
        else:
            return False
    return True


def test_dive_dead_end_falls_back_to_the_complete_search():
    """An ideal where the dive dead-ends at k = 3 though a partition exists.

    Found by drawing ideals with ``random.Random(0)``: 2-6 variables and 0-4
    random generators each, keeping those where ``find_partition`` succeeds
    at some k while ``_greedy_cover`` fails; this is the smallest poset
    found (20 elements, draw 1068): generators x1x5, x1x2x3 and x2x3x4.
    """
    ideal = MonomialIdeal.create(5, [0b10001, 0b00111, 0b01110])
    poset = char_poset(ideal)
    assert poset.rank_counts == (1, 5, 9, 5)
    assert not _greedy_cover(poset, 3)
    got = find_partition(poset, 3)
    assert got is not None and _find_partition_reference(poset, 3) is not None
    assert validate_partition(poset, got) and got.min_top_size == 3
    assert sdepth_exact(ideal).value == 3


@pytest.mark.parametrize("text", ["ladderA:6", "ladderB:6"])
def test_sdepth_settles_native_ladders_without_a_budget(text):
    """On native labels the dive certifies k = 4 at once: the upper end of the
    closed-form range [3, 4] for ladderA:6, and the closed-form value of
    ladderB:6, whose decision at k = 4 the complete search alone did not
    finish in 5 s."""
    spec = parse_graph_spec(text)
    ideal = edge_ideal(build_graph(spec))
    r = sdepth_exact(ideal, floor=formula_for_spec(spec).sdepth.lo)
    assert (r.value, r.is_exact) == (4, True)
    assert validate_partition(char_poset(ideal), r.witness)
    assert r.witness.min_top_size == 4


def test_floor_seed_and_contradiction():
    ideal = edge_ideal(build_graph(CubicCirculantSpec(5, 1)))
    seeded = sdepth_exact(ideal, floor=3)
    assert seeded.value == 3 and seeded.is_exact
    with pytest.raises(ValueError, match="lower bound"):
        sdepth_exact(ideal, floor=7)


def test_floor_at_the_counting_bound_is_exact(monkeypatch):
    # K_5: the floor 1 is the counting bound, so one call certifies it
    ideal = edge_ideal(build_graph(CompleteSpec(5)))
    poset = char_poset(ideal)
    assert counting_bound(poset) == 1
    real, calls = sdepth.find_partition, []
    monkeypatch.setattr(
        sdepth, "find_partition", lambda p, k, deadline=None: calls.append(k) or real(p, k, deadline)
    )
    r = sdepth_exact(ideal, floor=1)
    assert (r.value, r.is_exact, calls) == (1, True, [1])
    assert validate_partition(poset, r.witness)


def test_budget_exhaustion_returns_lower_bound():
    ideal = edge_ideal(build_graph(CubicCirculantSpec(7, 1)))
    r = sdepth_exact(ideal, time_budget=1e-9, floor=3)
    assert not r.is_exact
    # the deadline is checked every 256 nodes of the complete search, so the
    # floor and any k that the dive or fewer nodes settle are certified; the
    # witness backs the value
    assert r.value >= 3
    assert validate_partition(char_poset(ideal), r.witness)
    assert r.witness.min_top_size >= r.value


def test_sdepth_colon_monotonicity():
    rng = random.Random(47)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 7))
        ideal = edge_ideal(g)
        base = sdepth_exact(ideal).value
        v = rng.randrange(g.num_vertices)
        colon = colon_by_monomial(ideal, 1 << v)
        assert sdepth_exact(colon).value >= base


def test_known_bound_compliance_small_members():
    specs = (
        [LadderSpec("A", n) for n in range(2, 6)]
        + [LadderSpec("B", n) for n in range(0, 5)]
        + [LadderSpec("C", n) for n in range(1, 5)]
        + [LadderSpec("D", n) for n in range(1, 5)]
        + [CubicCirculantSpec(n, a) for n in range(2, 6) for a in range(1, n)]
    )
    for spec in specs:
        rep = formula_for_spec(spec)
        r = sdepth_exact(edge_ideal(build_graph(spec)), floor=rep.sdepth.lo)
        assert r.is_exact, spec
        assert rep.sdepth.contains(r.value), (spec, r.value, str(rep.sdepth))
        if rep.sdepth.is_exact:
            assert r.value == rep.sdepth.value, spec


def test_stanley_inequality_on_solved_instances():
    for text in ["path:5", "cycle:6", "ladderB:3", "cubic:4:2", "star:5"]:
        g = build_graph(parse_graph_spec(text))
        assert sdepth_exact(edge_ideal(g)).value >= hochster_betti_table(g).depth


def test_stanley_inequality_on_random_graphs():
    rng = random.Random(67)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 8))
        r = sdepth_exact(edge_ideal(g))
        assert r.is_exact
        assert r.value >= hochster_betti_table(g).depth


def test_zero_check_examples():
    """Stanley depth 0 exactly when the poset is the empty set alone.

    For a proper squarefree ideal, depth(S/I) = 0 forces I to be the whole
    maximal ideal, whose poset is {0}; the converse is the zero Stanley
    depth criterion for cyclic modules.
    """
    ideals = [
        edge_ideal(build_graph(PathSpec(3))),
        edge_ideal(build_graph(CompleteSpec(4))),
        MonomialIdeal.create(3, []),
        # the maximal ideal is the one depth-zero squarefree quotient
        MonomialIdeal.create(3, [0b001, 0b010, 0b100]),
    ]
    zero = [sdepth_exact(ideal).value == 0 for ideal in ideals]
    assert zero == [char_poset(ideal).elements == (0,) for ideal in ideals]
    assert zero == [False, False, False, True]


def _cells(lower, upper):
    diff = upper & ~lower
    out, sub = [], diff
    while True:
        out.append(lower | sub)
        if sub == 0:
            return out
        sub = (sub - 1) & diff


def _sdepth_brute(elements):
    """Reference value: maximize min top size over all interval partitions.

    Plain optimization by recursion on the first uncovered element (which
    must bottom its interval), memoized on the uncovered set.  Exponential,
    fine for tiny posets; deliberately shares no code with the solver's
    decision search.
    """
    order = sorted(elements, key=lambda m: (m.bit_count(), m))
    memo = {}

    def best(uncovered):
        if not uncovered:
            return 10**9
        key = frozenset(uncovered)
        if key in memo:
            return memo[key]
        bottom = next(e for e in order if e in uncovered)
        result = -1
        for top in order:
            if top & bottom != bottom:
                continue
            ivl = _cells(bottom, top)
            if any(c not in uncovered for c in ivl):
                continue
            rest = best(uncovered - set(ivl))
            result = max(result, min(top.bit_count(), rest))
        memo[key] = result
        return result

    return best(frozenset(elements))


def test_solver_matches_brute_force_on_random_ideals():
    rng = random.Random(59)
    checked = 0
    while checked < 40:
        nvars = rng.randint(1, 5)
        gens = {
            rng.randrange(1, 1 << nvars)
            for _ in range(rng.randint(0, 4))
        }
        ideal = MonomialIdeal.create(nvars, gens)
        poset = char_poset(ideal)
        if len(poset.elements) > 22:  # keep the exponential reference cheap
            continue
        want = _sdepth_brute(poset.elements)
        got = sdepth_exact(ideal)
        assert got.is_exact
        assert got.value == want, (nvars, sorted(gens))
        assert validate_partition(poset, got.witness)
        checked += 1


def test_solver_matches_brute_force_on_small_graphs():
    rng = random.Random(61)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 5))
        ideal = edge_ideal(g)
        assert sdepth_exact(ideal).value == _sdepth_brute(char_poset(ideal).elements)


def _find_partition_reference(poset, k):
    """Reference decision search: a set-based kernel over the whole poset.

    It tries every top of size >= k and tests every candidate interval's
    cell set against the uncovered set at each node.  The solver only uses
    tops of size exactly k on the poset truncated at rank k, so the two
    agree on whether a partition exists but may return different witnesses.
    """
    elements = poset.elements
    big = [e for e in elements if e.bit_count() >= k]
    supersets = {}
    for a in elements:
        sup = [b for b in big if b & a == a]
        if not sup:
            return None
        supersets[a] = sup
    uncovered = set(elements)
    chosen = []
    intervals = {}  # bottom -> [(top, cells)], listed once per bottom

    def viable(bottom):
        ivs = intervals.get(bottom)
        if ivs is None:
            ivs = intervals[bottom] = [
                (top, _cells(bottom, top)) for top in supersets[bottom]
            ]
        return [(top, cells) for top, cells in ivs if uncovered.issuperset(cells)]

    def extend():
        if not uncovered:
            return True
        rmin = min(c.bit_count() for c in uncovered)
        best = None
        for bottom in sorted(c for c in uncovered if c.bit_count() == rmin):
            options = viable(bottom)
            if not options:
                return False
            if best is None or len(options) < len(best[1]):
                best = (bottom, options)
                if len(options) == 1:
                    break
        bottom, options = best
        for top, cells in options:
            uncovered.difference_update(cells)
            chosen.append(Interval(bottom, top))
            if extend():
                return True
            chosen.pop()
            uncovered.update(cells)
        return False

    if extend():
        return IntervalPartition(tuple(chosen))
    return None


def _edge_ideal_from_pairs(n, keep):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return edge_ideal(graph_from_edges(
        [f"v{i+1}" for i in range(n)], [e for e, k in zip(pairs, keep) if k]))


# Random squarefree ideals on <= 8 variables and edge ideals of random graphs.
_small_ideals = st.one_of(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(1, (1 << n) - 1), max_size=6).map(
            lambda gens: MonomialIdeal.create(n, gens))
    ),
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(lambda keep: _edge_ideal_from_pairs(n, keep))
    ),
)


@given(_small_ideals)
@settings(max_examples=150, deadline=None)
def test_find_partition_matches_reference(ideal):
    poset = char_poset(ideal)
    q = ideal.ambient_vars
    gens = ideal.generators
    brute = sorted(
        (m for m in range(1 << q) if not any(g & ~m == 0 for g in gens)),
        key=lambda m: (m.bit_count(), m),
    )
    assert poset.elements == tuple(brute)
    for k in range(poset.max_rank + 2):
        got = find_partition(poset, k)
        assert (got is None) == (_find_partition_reference(poset, k) is None), k
        if got is not None:
            assert validate_partition(poset, got), k
            for iv in got.intervals:
                assert iv.top_size == k or (
                    iv.lower == iv.upper and iv.top_size > k
                ), (k, iv)


@given(_small_ideals)
@settings(max_examples=150, deadline=None)
def test_counting_bound_is_an_upper_bound(ideal):
    poset = char_poset(ideal)
    value = next(
        k for k in range(poset.max_rank, -1, -1)
        if _find_partition_reference(poset, k) is not None
    )
    assert counting_bound(poset) >= value
    assert sdepth_exact(ideal).value == value


def _counting_bound_reference(poset):
    """Herzog's counting test as the written-out double sum of binomials."""
    alpha = poset.rank_counts
    for k in range(poset.max_rank, 0, -1):
        if all(
            sum((-1) ** (j - i) * comb(k - i, j - i) * alpha[i] for i in range(j + 1)) >= 0
            for j in range(k + 1)
        ):
            return k
    return 0


@given(st.lists(st.integers(0, 60), max_size=12))
@settings(max_examples=300, deadline=None)
def test_counting_bound_matches_the_binomial_sum(counts):
    """Any rank vector, realized as masks of each size: one empty set, then
    counts[i - 1] distinct masks of rank i."""
    alpha = [1] + counts
    elements = tuple(
        ((1 << i) - 1) << j for i, count in enumerate(alpha) for j in range(count)
    )
    poset = sdepth.CharPoset(elements)
    assert list(poset.rank_counts) == alpha[: poset.max_rank + 1]
    assert counting_bound(poset) == _counting_bound_reference(poset)


@pytest.mark.parametrize(
    "text,bound", [("star:8", 4), ("cubic:5:2", 3), ("cycle:7", 2), ("ladderD:4", 4)]
)
def test_counting_bound_examples(text, bound):
    poset = char_poset(edge_ideal(build_graph(parse_graph_spec(text))))
    assert counting_bound(poset) == bound


def test_interval_cells_work_guard(monkeypatch):
    """The search never lists interval cells; it reads them as bitsets."""

    def listing(lower, upper):
        raise AssertionError(f"cells of [{lower}, {upper}] listed during the search")

    monkeypatch.setattr(sdepth, "_interval_cells", listing)
    spec = parse_graph_spec("star:8")
    floor = formula_for_spec(spec).sdepth.lo
    assert sdepth_exact(edge_ideal(build_graph(spec)), floor=floor).is_exact


def _record(monkeypatch, name):
    """Patch the sdepth helper ``name`` to append each result it returns."""
    results = []
    original = getattr(sdepth, name)

    def recording(*args):
        out = original(*args)
        results.append(out)
        return out

    monkeypatch.setattr(sdepth, name, recording)
    return results


@pytest.mark.parametrize("text,ks", [("star:10", (1, 2)), ("cubic:5:2", (2, 3))])
def test_find_partition_builds_only_rank_k_tops(monkeypatch, text, ks):
    """The decision for k only builds intervals whose top has size exactly k."""
    built = _record(monkeypatch, "_interval_options")
    poset = char_poset(edge_ideal(build_graph(parse_graph_spec(text))))
    built_tops = 0
    for k in ks:
        built.clear()
        find_partition(poset, k)
        tops = [poset.elements[c.bit_length() - 1].bit_count()
                for options in built for c in options]
        assert set(tops) <= {k}, (k, sorted(set(tops)))
        built_tops += len(tops)
    assert built_tops


def test_find_partition_builds_only_the_rank_k_prefix(monkeypatch):
    """A small k on a large poset builds bitsets for the rank <= k prefix only.

    For k = 2 the center of the star lies under no element of rank 2, so
    the prefix build refuses k after its forward pass, before the superset
    bitsets and before the search lists a single interval.
    """
    built = _record(monkeypatch, "_prefix_bitsets")
    options = _record(monkeypatch, "_interval_options")
    poset = char_poset(edge_ideal(build_graph(parse_graph_spec("star:13"))))
    assert len(poset.elements) == 4097
    assert find_partition(poset, 1) is not None
    assert [(len(down), len(up)) for down, up in built] == [(14, 14)]
    options.clear()
    assert find_partition(poset, 2) is None
    assert built[-1] is None and options == []


@given(_small_ideals)
@settings(max_examples=150, deadline=None)
def test_interval_options_match_interval_cells(ideal):
    """Each option is the index set of the interval's cells, tops in poset order."""
    poset = char_poset(ideal)
    for k in range(poset.max_rank + 1):
        prefix = poset.elements[: sum(poset.rank_counts[: k + 1])]
        index = {m: i for i, m in enumerate(prefix)}
        tops = poset._rank_blocks[k]
        rank_k = prefix[len(prefix) - poset.rank_counts[k]:]
        assert all(top.bit_count() == k for top in rank_k)
        # None exactly when some element lies under no element of rank k
        bitsets = sdepth._prefix_bitsets(poset, k)
        stranded = [m for m in prefix if not any(top & m == m for top in rank_k)]
        assert (bitsets is None) == bool(stranded), (k, stranded)
        if bitsets is None:
            continue
        down, up = bitsets
        assert len(down) == len(up) == len(prefix)
        for i, bottom in enumerate(prefix):
            want = [
                sum(1 << index[c] for c in sdepth._interval_cells(bottom, top))
                for top in rank_k if top & bottom == bottom
            ]
            assert sdepth._interval_options(down, up[i], tops) == want, (k, bottom)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
    max_size=8))))
@settings(max_examples=200, deadline=None)
def test_char_poset_matches_brute_force_on_mixed_degrees(case):
    """Generators of degree 1, 2 and 3; a degree-1 generator excludes its variable."""
    n, supports = case
    gens = [sum(1 << v for v in support) for support in supports]
    ideal = MonomialIdeal.create(n, gens)
    brute = sorted(
        (m for m in range(1 << n) if not any(g & ~m == 0 for g in gens)),
        key=lambda m: (m.bit_count(), m),
    )
    assert char_poset(ideal).elements == tuple(brute)
    assert char_poset(ideal).elements == tuple(standard_supports(ideal))


_WITNESSES = json.loads(
    (Path(__file__).parent / "data" / "sdepth_witnesses.json").read_text()
)


@pytest.mark.parametrize("text", sorted(_WITNESSES))
def test_recorded_witness_settles_open_case(text):
    """Checked-in partitions for cases the closed forms leave as a range.

    Each was found by ``find_partition`` on the graph relabeled by
    ``random.Random(seed).shuffle(list(range(q)))`` (vertex v sent to
    perm[v]) and mapped back to the native labels.  A witness with all tops
    of size >= the formula's upper end settles the value exactly.
    """
    entry = _WITNESSES[text]
    spec = parse_graph_spec(text)
    g = build_graph(spec)
    pos = {label: i for i, label in enumerate(g.labels)}

    def mask(labels):
        return sum(1 << pos[label] for label in labels)

    witness = IntervalPartition(tuple(
        Interval(mask(lower), mask(upper)) for lower, upper in entry["intervals"]
    ))
    assert validate_partition(char_poset(edge_ideal(g)), witness)
    assert witness.min_top_size == entry["sdepth"]
    closed = formula_for_spec(spec).sdepth
    assert closed.lo < entry["sdepth"] == closed.hi


def test_solver_leaves_no_cyclic_garbage():
    ideal = edge_ideal(build_graph(parse_graph_spec("cubic:5:2")))
    gc.collect()
    gc.disable()
    try:
        assert sdepth_exact(ideal).value == 3
        assert gc.collect() == 0
    finally:
        gc.enable()
