import re
from fractions import Fraction
from itertools import product

import pytest

from flatfold import cone_at, count_colorings, count_locally_valid, kawasaki_check, tile
from flatfold.errors import BadMaskLength, FlatfoldError, InvalidParameter, ValidationError
from flatfold.generators import (PatternSpec, _ray_to_rect, crane, miura, modified_miura,
                                 snake, triangle_twist)
from flatfold.saw import baby_gadget


def all_kawasaki(cp):
    return all(kawasaki_check(cone_at(cp, v)) for v in cp.interior_vertex_ids())


def test_miura_smallest():
    cp = miura(1, 1)
    assert cp.interior_vertex_ids() == []
    assert len(cp.interior_faces()) == 1
    assert len(cp.creases) == 0


def test_miura_2x2_is_birds_foot():
    cp = miura(2, 2)
    assert len(cp.interior_vertex_ids()) == 1
    v = cp.interior_vertex_ids()[0]
    angles = sorted(cone_at(cp, v).angles)
    assert [str(a) for a in angles] == ["60", "60", "120", "120"]
    assert count_locally_valid(cp) == 6


def test_miura_3x3_shape():
    cp = miura(3, 3)
    assert len(cp.interior_vertex_ids()) == 4
    assert len(cp.interior_faces()) == 9


def test_miura_all_vertices_kawasaki():
    assert all_kawasaki(miura(3, 4))
    assert all_kawasaki(snake(3, 3))
    assert all_kawasaki(triangle_twist(3))
    assert all_kawasaki(crane())


def test_miura_second_angle_same_counts():
    # counts are angle-independent within the bird's-foot class
    from fractions import Fraction
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        assert (count_locally_valid(miura(m, n, acute=Fraction(75)))
                == count_locally_valid(miura(m, n)))


def test_miura_shear_is_presentation_only():
    from fractions import Fraction
    a = modified_miura(3, 3, (True, False))
    b = modified_miura(3, 3, (True, False), shear=Fraction(1, 3))
    assert count_locally_valid(a) == count_locally_valid(b)
    assert count_colorings(tile(b)) == count_locally_valid(a)


def test_modified_miura_mask_rules():
    cp = modified_miura(3, 3, (False, False))
    base = miura(3, 3)
    assert cp.creases.keys() == base.creases.keys()
    assert count_locally_valid(cp) == count_locally_valid(base)
    with pytest.raises(BadMaskLength):
        modified_miura(3, 3, (True,))
    # a parameter error like the others, so the CLI reports it as a usage error
    assert issubclass(BadMaskLength, InvalidParameter)


def test_generators_refuse_bad_sizes_and_shears():
    from fractions import Fraction
    with pytest.raises(ValueError, match=re.escape("shear must be in (0, 1/2)")):
        modified_miura(2, 2, (False,), shear=Fraction(1, 2))
    with pytest.raises(ValueError, match="^m, n >= 1$"):
        snake(0, 2)


def test_modified_miura_counts_match_standard():
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        base = count_locally_valid(miura(m, n))
        for mask in product([False, True], repeat=n - 1):
            assert count_locally_valid(modified_miura(m, n, mask)) == base


def test_snake_counts_match_miura():
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        assert count_locally_valid(snake(m, n)) == count_locally_valid(miura(m, n))


def test_snake_no_waterbomb_degenerate():
    cp = snake(2, 2)  # single zig column: no adjacent pair to merge
    assert all(len(cp.ccw_creases[v]) == 4 for v in cp.interior_vertex_ids())


def test_snake_waterbomb_split_equivalence():
    from flatfold import split_waterbomb
    cp = snake(2, 4)
    wb = next(v for v in cp.interior_vertex_ids() if len(cp.ccw_creases[v]) == 6)
    assert count_locally_valid(split_waterbomb(cp, wb)) == count_locally_valid(cp)


def test_split_waterbomb_lets_other_errors_through(monkeypatch):
    # only a ValidationError means "embed the split closer"; anything else
    # is a fault and must not be retried into NotWaterbomb
    import flatfold.generators as generators
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise ZeroDivisionError("fault in the pattern build")

    cp = snake(2, 4)
    wb = next(v for v in cp.interior_vertex_ids() if len(cp.ccw_creases[v]) == 6)
    monkeypatch.setattr(generators, "build_crease_pattern", broken)
    with pytest.raises(ZeroDivisionError):
        generators.split_waterbomb(cp, wb)
    assert len(calls) == 1


def test_twist_counts():
    assert count_locally_valid(triangle_twist(1)) == 26
    assert count_locally_valid(triangle_twist(2)) == 170
    assert count_locally_valid(triangle_twist(3)) == 1112


def test_twist_structure():
    cp = triangle_twist(2)
    assert len(cp.interior_vertex_ids()) == 6
    assert len(cp.creases) == 16
    interior = sum(1 for a, b in cp.creases.values()
                   if a in cp.vertices and b in cp.vertices)
    assert interior == 8  # 6 triangle edges + 2 shared strip creases
    with pytest.raises(ValueError):
        triangle_twist(4)


def test_twist_tile_uses_surgery():
    cp = triangle_twist(3)
    g = tile(cp)
    assert count_colorings(g) == 1112
    # surgery leaves undirected edges on the final boundary
    assert any(not g.edges[e].directed for _, e in g.walk)


def test_pattern_spec_dispatch():
    from flatfold.generators import PatternSpec
    assert count_locally_valid(PatternSpec("miura", m=2, n=2).build()) == 6
    assert count_locally_valid(PatternSpec("joined-twists", count=2).build()) == 170
    with pytest.raises(ValueError):
        PatternSpec("nope").build()


def test_crane_structure():
    cp = crane()
    degs = sorted(len(cp.ccw_creases[v]) for v in cp.interior_vertex_ids())
    assert degs == [4] * 10 + [6]
    assert len(cp.creases) == 30


def test_crane_counts():
    cp = crane()
    g = tile(cp)
    n = count_colorings(g)
    assert n == 93312
    assert n == count_locally_valid(cp)


def test_ray_to_rect_miss_raises_validation_error():
    assert _ray_to_rect((0, 0), (1, 1), -2, 2, -1, 1) == (1, 1)
    # from outside the rectangle, pointing away from it
    with pytest.raises(ValidationError, match="ray misses the region"):
        _ray_to_rect((5, 0), (1, 0), -2, 2, -1, 1)


@pytest.mark.parametrize("call", [
    lambda: miura(0, 3),
    lambda: snake(2, 0),
    lambda: triangle_twist(4),
    lambda: modified_miura(2, 2, (False,), shear=Fraction(1, 2)),
    lambda: PatternSpec("x").build(),
    lambda: baby_gadget(2, ("a",)),
], ids=["miura", "snake", "twists", "shear", "family", "baby-gadget"])
def test_a_bad_parameter_raises_a_library_error(call):
    # one class, a FlatfoldError that is still the ValueError the earlier
    # tests expect
    with pytest.raises(FlatfoldError) as info:
        call()
    assert isinstance(info.value, ValueError)
