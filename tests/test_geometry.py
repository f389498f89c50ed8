from fractions import Fraction

import pytest

from flatfold.geometry import (
    ANGLE_KEY,
    octant,
    on_segment,
    orient,
    polygon_signed_area2,
    primitive,
    sector_45,
    segments_conflict,
)

F = Fraction


def test_orient_signs():
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    assert orient((0, 0), (0, 1), (1, 0)) == -1
    assert orient((0, 0), (1, 1), (2, 2)) == 0


def test_primitive_reduces():
    assert primitive((F(2, 3), F(4, 3))) == (1, 2)
    assert primitive((F(-4), F(6))) == (-2, 3)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_angle_sort_counterclockwise():
    dirs = [(0, -1), (1, 0), (-1, 0), (1, 1), (0, 1), (-1, -1)]
    assert sorted(dirs, key=ANGLE_KEY) == [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def test_octants_and_sectors():
    assert octant((1, 0)) == 0
    assert octant((3, 3)) == 1
    assert octant((0, -2)) == 6
    assert octant((2, 1)) is None
    assert sector_45((1, 0), (0, 1)) == 90
    assert sector_45((1, 1), (-1, 1)) == 90
    assert sector_45((1, 0), (1, -1)) == 315
    assert sector_45((2, 1), (0, 1)) is None


def test_segment_conflicts():
    a, b = (F(0), F(0)), (F(2), F(2))
    assert segments_conflict(a, b, (F(0), F(2)), (F(2), F(0)))        # proper cross
    assert not segments_conflict(a, b, b, (F(3), F(0)))               # shared endpoint
    assert segments_conflict(a, b, (F(1), F(1)), (F(3), F(0)))        # T-touch
    assert segments_conflict(a, b, (F(1), F(1)), (F(3), F(3)))        # collinear overlap
    assert not segments_conflict(a, b, (F(0), F(1)), (F(-2), F(5)))   # disjoint


def test_polygon_area_orientation():
    sq = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    assert polygon_signed_area2(sq) == 2
    assert polygon_signed_area2(list(reversed(sq))) == -2
