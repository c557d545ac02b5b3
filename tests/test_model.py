import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from fairalloc import (
    Allocation,
    EnumerationBudgetError,
    Profile,
    ProfileFormatError,
    allocation_count,
    dumps_profile,
    loads_allocation,
    loads_profile,
    dumps_allocation,
)
from fairalloc import model
from fairalloc.errors import AllocationFormatError
from fairalloc.model import DEFAULT_ENUMERATION_BUDGET, _blocks, _scaled_rows


rationals = st.fractions(
    min_value=0, max_value=20, max_denominator=12
)

profiles = st.integers(1, 3).flatmap(
    lambda n: st.integers(0, 4).flatmap(
        lambda m: st.lists(
            st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n
        ).map(lambda rows: Profile(tuple(tuple(r) for r in rows)))
    )
)


class TestProfile:
    def test_shape_and_exactness(self):
        p = Profile([[0, 2, 2], ["1/2", 1, 1]])
        assert (p.n, p.m) == (2, 3)
        assert p.utilities[1][0] == Fraction(1, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative utility"):
            Profile([[0, -1]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="expected"):
            Profile([[1, 2], [1]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Profile([])

    def test_no_goods_is_fine(self):
        assert Profile([[], []]).m == 0

    def test_cached_scaled_rows_leave_value_semantics_alone(self):
        rows = [["1/3", 0, 2**60], ["1/2", 1, "7/12"]]
        filled = Profile(rows)
        assert filled._scaled == (((4, 0, 12 * 2**60), (6, 12, 7)), 12)
        fresh = Profile(rows)
        for twin in (pickle.loads(pickle.dumps(filled)), copy.deepcopy(filled), copy.copy(filled)):
            assert "_scaled" not in vars(twin)
            assert twin == filled == fresh
            assert twin._scaled == filled._scaled
        assert hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert pickle.dumps(filled) == pickle.dumps(fresh)


class TestBundleUtility:
    def test_two_entries(self):
        p = Profile([[0, 2, 2], ["1/2", 1, 1]])
        assert oracles.bundle_value(p, 0, {1, 2}) == 4

    def test_empty_bundle(self):
        p = Profile([[0, 2, 2], ["1/2", 1, 1]])
        assert oracles.bundle_value(p, 1, set()) == 0

    def test_rational_sum(self):
        p = Profile([[0, 2, 2], ["1/2", 1, 1]])
        assert oracles.bundle_value(p, 1, {0, 1, 2}) == Fraction(5, 2)

    def test_out_of_range_agent(self):
        p = Profile([[1]])
        with pytest.raises(IndexError):
            oracles.bundle_value(p, 1, {0})

    def test_out_of_range_good(self):
        p = Profile([[1]])
        with pytest.raises(IndexError):
            oracles.bundle_value(p, 0, {3})

    @settings(max_examples=60)
    @given(profiles, st.randoms(use_true_random=False))
    def test_additive_over_disjoint_bundles(self, profile, rng):
        goods = list(range(profile.m))
        rng.shuffle(goods)
        cut = rng.randint(0, len(goods))
        first, second = set(goods[:cut]), set(goods[cut:])
        for agent in range(profile.n):
            assert oracles.bundle_value(profile, agent, first | second) == oracles.bundle_value(
                profile, agent, first
            ) + oracles.bundle_value(profile, agent, second)


def walk(profile, budget=DEFAULT_ENUMERATION_BUDGET):
    """Every assignment the kernel visits, block by block, in its order."""
    rows, _ = _scaled_rows(profile, budget)
    suffixes, _, _, prefixes = _blocks(rows)
    return [tuple(prefix) + suffix for prefix, _ in prefixes for suffix in suffixes]


class TestEnumeration:
    @pytest.mark.parametrize("n,m,count", [(2, 2, 4), (3, 2, 9), (2, 0, 1)])
    def test_counts(self, n, m, count):
        profile = Profile([[1] * m for _ in range(n)])
        assert len(walk(profile)) == count

    def test_exhaustive_distinct_and_ordered(self):
        for n in (1, 2, 3):
            for m in range(0, 9):
                profile = Profile([[0] * m for _ in range(n)])
                seen = walk(profile)
                assert len(seen) == n**m == len(set(seen))
                assert seen == sorted(seen)
                assert seen == list(product(range(n), repeat=m))

    def test_budget_exceeded_names_count(self):
        profile = Profile([[0] * 30, [0] * 30])
        with pytest.raises(EnumerationBudgetError) as excinfo:
            walk(profile)
        assert excinfo.value.count == 2**30
        assert str(2**30) in str(excinfo.value)

    def test_budget_override(self):
        profile = Profile([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(EnumerationBudgetError):
            walk(profile, budget=7)
        assert len(walk(profile, budget=8)) == 8

    def test_partition_by_index_range(self):
        """Each block is one index range of the full order, whatever its size."""
        profile = Profile([[0] * 4, [0] * 4, [0] * 4])
        full = list(product(range(3), repeat=4))
        for block in (1, 3, 9, 27, 81, 256):
            with mock.patch.object(model, "_BLOCK", block):
                rows, _ = _scaled_rows(profile, 81)
                suffixes, _, _, prefixes = _blocks(rows)
                size = len(suffixes)
                assert size == min(block, 81)
                for index, (prefix, _) in enumerate(prefixes):
                    assert [tuple(prefix) + suffix for suffix in suffixes] == full[index * size:(index + 1) * size]

    def test_allocation_count(self):
        assert allocation_count(Profile([[1, 1], [1, 1], [1, 1]])) == 9


class TestSerialization:
    def test_round_trip_example(self):
        p = Profile([[0, 2, 2], ["1/2", 1, 1]])
        assert loads_profile(dumps_profile(p)) == p

    @settings(max_examples=80)
    @given(profiles)
    def test_round_trip_is_identity(self, profile):
        assert loads_profile(dumps_profile(profile)) == profile

    def test_reads_documented_shape(self):
        text = '{"agents": 2, "goods": 3, "utilities": [[0, 2, 2], ["1/2", 1, 1]]}'
        p = loads_profile(text)
        assert p.utilities[1][0] == Fraction(1, 2)

    def test_empty_goods(self):
        p = loads_profile('{"agents": 2, "goods": 0, "utilities": [[], []]}')
        assert p.m == 0

    def test_negative_entry_rejected_with_location(self):
        text = '{"agents": 2, "goods": 2, "utilities": [[1, 1], [1, "-1/2"]]}'
        with pytest.raises(ProfileFormatError, match="agent 1, good 1"):
            loads_profile(text)

    def test_bad_json_reports_position(self):
        with pytest.raises(ProfileFormatError, match="line 1"):
            loads_profile("{nope")

    def test_missing_fields(self):
        with pytest.raises(ProfileFormatError, match="missing"):
            loads_profile('{"agents": 1}')

    def test_agent_count_mismatch(self):
        with pytest.raises(ProfileFormatError, match="rows"):
            loads_profile('{"agents": 2, "goods": 1, "utilities": [[1]]}')

    def test_good_count_mismatch(self):
        with pytest.raises(ProfileFormatError, match="agent 0"):
            loads_profile('{"agents": 1, "goods": 2, "utilities": [[1]]}')

    def test_float_entry_rejected(self):
        with pytest.raises(ProfileFormatError, match="p/q"):
            loads_profile('{"agents": 1, "goods": 1, "utilities": [[0.5]]}')

    def test_negative_denominator_rejected(self):
        with pytest.raises(ProfileFormatError, match="unreadable"):
            loads_profile('{"agents": 1, "goods": 1, "utilities": [["1/-2"]]}')

    def test_allocation_round_trip(self):
        a = Allocation((1, 0, 2))
        assert loads_allocation(dumps_allocation(a)) == a

    def test_allocation_bad_entry(self):
        with pytest.raises(AllocationFormatError):
            loads_allocation('{"assignment": [0, null]}')

    @pytest.mark.parametrize("entry, shown", [("true", "True"), ("-1", "-1"), ('"0"', "'0'")])
    def test_allocation_bad_agent_message(self, entry, shown):
        with pytest.raises(AllocationFormatError) as excinfo:
            loads_allocation(f'{{"assignment": [0, {entry}]}}')
        assert str(excinfo.value) == f"good 1 assigned to invalid agent {shown}"

    def test_allocation_not_object(self):
        with pytest.raises(AllocationFormatError):
            loads_allocation("[0, 1]")


class TestAllocation:
    def test_bundles_partition(self):
        a = Allocation((1, 0, 1, 2))
        bundles = a.bundles(3)
        assert bundles == (frozenset({1}), frozenset({0, 2}), frozenset({3}))
        assert set().union(*bundles) == {0, 1, 2, 3}

    def test_rejects_negative_agent(self):
        with pytest.raises(ValueError):
            Allocation((0, -1))
