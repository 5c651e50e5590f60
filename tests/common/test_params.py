"""Unit tests for the address-space geometry helpers."""

import pytest

from repro.common import params
from repro.common.params import (
    FOUR_KB,
    ONE_GB,
    TWO_MB,
    align_up,
    is_canonical,
    level_shift,
    level_span,
    page_base,
    page_number,
    page_offset,
    pt_index,
    walk_levels,
)


class TestGeometryConstants:
    def test_va_width_is_48_bits(self):
        assert params.VA_BITS == 48
        assert params.VA_LIMIT == 1 << 48

    def test_four_levels_of_nine_bits(self):
        assert params.NUM_LEVELS == 4
        assert params.ENTRIES_PER_NODE == 512

    def test_page_sizes(self):
        assert FOUR_KB.bytes == 4096
        assert TWO_MB.bytes == 2 * 1024 * 1024
        assert ONE_GB.bytes == 1024 ** 3

    def test_leaf_levels_match_x86(self):
        assert FOUR_KB.leaf_level == 1
        assert TWO_MB.leaf_level == 2
        assert ONE_GB.leaf_level == 3


class TestLevelShift:
    def test_known_shifts(self):
        assert level_shift(1) == 12
        assert level_shift(2) == 21
        assert level_shift(3) == 30
        assert level_shift(4) == 39

    @pytest.mark.parametrize("level", [0, 5, -1])
    def test_rejects_bad_level(self, level):
        with pytest.raises(ValueError):
            level_shift(level)

    def test_shift_table_matches_the_formula(self):
        """The walk loops index LEVEL_SHIFTS instead of calling
        level_shift; both must agree on every level."""
        assert params.LEVEL_SHIFTS == {
            level: 12 + 9 * (level - 1) for level in range(1, 5)}
        for level, shift in params.LEVEL_SHIFTS.items():
            assert level_shift(level) == shift
        assert params.INDEX_MASK == params.ENTRIES_PER_NODE - 1


class TestPtIndex:
    def test_extracts_each_field(self):
        va = (5 << 39) | (17 << 30) | (111 << 21) | (511 << 12) | 0x123
        assert pt_index(va, 4) == 5
        assert pt_index(va, 3) == 17
        assert pt_index(va, 2) == 111
        assert pt_index(va, 1) == 511

    def test_index_is_nine_bits(self):
        va = (1 << 48) - 1
        for level in range(1, 5):
            assert pt_index(va, level) == 511

    def test_zero_va(self):
        for level in range(1, 5):
            assert pt_index(0, level) == 0

    @pytest.mark.parametrize("level", [0, 5, -1])
    def test_rejects_bad_level(self, level):
        with pytest.raises(ValueError):
            pt_index(0x1234_5678, level)


class TestPageHelpers:
    def test_page_number_and_offset_partition_va(self):
        va = 0x1234_5678
        assert (page_number(va) << 12) | page_offset(va) == va

    def test_page_base(self):
        assert page_base(0x1234) == 0x1000
        assert page_base(0x1234, 21) == 0

    def test_offsets_at_2m(self):
        va = TWO_MB.bytes + 12345
        assert page_number(va, 21) == 1
        assert page_offset(va, 21) == 12345

    def test_align_up(self):
        assert align_up(1, 4096) == 4096
        assert align_up(4096, 4096) == 4096
        assert align_up(0, 4096) == 0

    def test_canonical(self):
        assert is_canonical(0)
        assert is_canonical((1 << 48) - 1)
        assert not is_canonical(1 << 48)
        assert not is_canonical(-1)

    def test_level_span(self):
        assert level_span(1) == 4096
        assert level_span(2) == TWO_MB.bytes
        assert level_span(3) == ONE_GB.bytes

    def test_walk_levels_order(self):
        assert list(walk_levels()) == [4, 3, 2, 1]
        assert list(walk_levels(2)) == [4, 3, 2]
