import math

import pytest
from hypothesis import given, settings, strategies as st

from annigraph.ideals import (
    all_ideals,
    annihilating_ideals,
    annihilator,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    ideal_to_json,
    lattice_to_json,
    name_ideal,
    principal_ideal,
    sub_ideals,
)
from annigraph.rings import (
    RingError,
    make_poly_quotient,
    make_product,
    make_structure_constants,
    make_zn,
)

from conftest import (
    brute_force_ideals,
    divisors,
    make_f2xy_x2y2,
    make_f2xyz_m2,
    zn_ideal_sets,
)


def members(ideal):
    return set(ideal.members)


def test_principal_fixtures():
    z12 = make_zn(12)
    assert members(principal_ideal(z12, 4)) == {0, 4, 8}
    assert members(principal_ideal(z12, 0)) == {0}
    assert members(principal_ideal(z12, 5)) == set(range(12))  # 5 is a unit


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 16, 18, 24, 27, 36])
def test_all_ideals_matches_divisor_oracle(n):
    lattice = all_ideals(make_zn(n))
    assert {frozenset(i.members) for i in lattice} == zn_ideal_sets(n)
    assert len(lattice) == len(divisors(n))


def test_all_ideals_field_and_quadratic():
    assert len(all_ideals(make_poly_quotient(2, (1, 1, 1)))) == 2
    lattice = all_ideals(make_f2xy_x2y2())
    assert len(lattice) == 7


@pytest.mark.parametrize("builder", [
    lambda: make_zn(12),
    lambda: make_zn(16),
    make_f2xy_x2y2,
])
def test_all_ideals_matches_subset_closure_oracle(builder):
    ring = builder()
    lattice = all_ideals(ring)
    assert {frozenset(i.members) for i in lattice} == brute_force_ideals(ring)


def test_lattice_order_and_endpoints():
    lattice = all_ideals(make_zn(12))
    cards = [i.cardinality for i in lattice]
    assert cards == sorted(cards)
    assert lattice.zero.is_zero
    assert lattice.unit.is_unit


def test_lattice_cap():
    with pytest.raises(RingError, match="cap"):
        all_ideals(make_zn(12), cap=3)


def test_sum_and_intersection_against_gcd_lcm():
    z12 = make_zn(12)
    for a in divisors(12):
        for b in divisors(12):
            ia, ib = principal_ideal(z12, a % 12), principal_ideal(z12, b % 12)
            assert members(ideal_sum(ia, ib)) == set(range(0, 12, math.gcd(a, b)))
            expected = {x for x in range(12) if x % a == 0 and x % b == 0}
            assert members(ideal_intersection(ia, ib)) == expected


def test_sum_intersection_fixtures():
    z12 = make_zn(12)
    i4, i6 = principal_ideal(z12, 4), principal_ideal(z12, 6)
    assert members(ideal_sum(i4, i6)) == members(principal_ideal(z12, 2))
    assert members(ideal_intersection(i4, i6)) == {0}
    zero = principal_ideal(z12, 0)
    lattice = all_ideals(z12)
    for i in lattice:
        assert ideal_sum(i, zero).mask == i.mask


def test_product_fixtures():
    z12 = make_zn(12)
    assert ideal_product(principal_ideal(z12, 3), principal_ideal(z12, 4)).is_zero
    assert members(ideal_product(principal_ideal(z12, 2), principal_ideal(z12, 3))) \
        == {0, 6}
    unit = principal_ideal(z12, 1)
    for i in all_ideals(z12):
        assert ideal_product(i, unit).mask == i.mask


def test_power_fixtures():
    z8 = make_zn(8)
    two = principal_ideal(z8, 2)
    assert members(ideal_power(two, 2)) == {0, 4}
    assert ideal_power(two, 3).is_zero
    assert ideal_power(two, 1).mask == two.mask
    with pytest.raises(RingError):
        ideal_power(two, 0)


def test_annihilator_fixtures():
    z12 = make_zn(12)
    assert members(annihilator(principal_ideal(z12, 4))) == {0, 3, 6, 9}
    assert annihilator(principal_ideal(z12, 0)).is_unit
    assert annihilator(principal_ideal(z12, 1)).is_zero


def test_sub_ideals_fixtures():
    z16 = make_zn(16)
    lattice = all_ideals(z16)
    assert len(sub_ideals(principal_ideal(z16, 2), lattice)) == 4
    assert len(sub_ideals(principal_ideal(z16, 4), lattice)) == 3
    assert len(sub_ideals(lattice.zero, lattice)) == 1


def test_annihilating_ideals_fixtures():
    z12 = make_zn(12)
    lattice = all_ideals(z12)
    names = {name_ideal(i, lattice) for i in annihilating_ideals(lattice)}
    assert names == {"(2)", "(3)", "(4)", "(6)"}

    assert annihilating_ideals(all_ideals(make_poly_quotient(2, (1, 1, 1)))) == []

    z4 = make_zn(4)
    lat4 = all_ideals(z4)
    assert [members(i) for i in annihilating_ideals(lat4)] == [{0, 2}]


def test_lattice_keeps_principals_and_annihilators():
    for ring in (make_zn(12), make_zn(36), make_f2xy_x2y2(),
                 make_poly_quotient(2, (1, 1, 1))):
        lattice = all_ideals(ring)
        want = {}
        for x in range(ring.size):
            want.setdefault(principal_ideal(ring, x).mask, x)
        assert list(lattice.principals.items()) == list(want.items())
        assert lattice.annihilators == tuple(annihilator(i).mask for i in lattice)


def _named_by_search(ideal, lattice):
    """What name_ideal means: the first generator, then the first pair a < b
    of nonzero members with Ra + Rb = I, by exhaustive search."""
    r = ideal.ring
    for x in ideal.members:
        if principal_ideal(r, x).mask == ideal.mask:
            return f"({r.labels[x]})"
    nonzero = [x for x in ideal.members if x != r.zero]
    for k, a in enumerate(nonzero):
        for b in nonzero[k + 1:]:
            if ideal_sum(principal_ideal(r, a), principal_ideal(r, b)).mask == ideal.mask:
                return f"({r.labels[a]},{r.labels[b]})"
    return f"I#{lattice.index_of(ideal)}"


def _socle_first():
    """F2[x,y]/(x^2,y^2) with xy as the second basis element, so the least
    principal ideal inside (x, y) is the socle (xy), in no generating pair."""
    def e(i):
        return [1 if j == i else 0 for j in range(4)]

    zero = [0, 0, 0, 0]
    table = [
        [e(0), e(1), e(2), e(3)],
        [e(1), zero, zero, zero],
        [e(2), zero, zero, e(1)],
        [e(3), zero, e(1), zero],
    ]
    return make_structure_constants(2, 4, ("1", "xy", "x", "y"), table)


@pytest.mark.parametrize("builder", [
    lambda: make_zn(36),
    make_f2xy_x2y2,
    _socle_first,
    make_f2xyz_m2,
    lambda: make_product(make_zn(4), make_zn(4)),
    lambda: make_product(make_zn(2), make_poly_quotient(2, (0, 0, 0, 1))),
])
def test_name_ideal_matches_exhaustive_search(builder):
    ring = builder()
    lattice = all_ideals(ring)
    assert [name_ideal(i, lattice) for i in lattice] \
        == [_named_by_search(i, lattice) for i in lattice]


def test_socle_first_maximal_ideal_has_two_generators():
    lattice = all_ideals(_socle_first())
    assert name_ideal(lattice.ideals[-2], lattice) == "(x,y)"


def test_name_ideal_without_lattice():
    ring = make_f2xy_x2y2()
    lattice = all_ideals(ring)
    assert [name_ideal(i) for i in lattice] == [name_ideal(i, lattice) for i in lattice]
    assert name_ideal(lattice.unit) == "(1)"


def test_mixed_ring_operations_rejected():
    i = principal_ideal(make_zn(12), 2)
    j = principal_ideal(make_zn(8), 2)
    with pytest.raises(RingError):
        ideal_sum(i, j)


def test_serialization_carries_fingerprint():
    z12 = make_zn(12)
    lattice = all_ideals(z12)
    blob = lattice_to_json(lattice)
    assert blob["ring"] == z12.fingerprint
    assert blob["ideals"][0] == [0]
    single = ideal_to_json(lattice.ideals[1])
    assert single["ring"] == z12.fingerprint


_RINGS = [make_zn(12), make_zn(16), make_zn(24), make_f2xy_x2y2(),
          make_poly_quotient(2, (0, 0, 0, 1))]
_LATTICES = [all_ideals(r) for r in _RINGS]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_algebra_invariants(data):
    k = data.draw(st.integers(0, len(_RINGS) - 1))
    lattice = _LATTICES[k]
    pick = st.integers(0, len(lattice) - 1)
    i = lattice.ideals[data.draw(pick)]
    j = lattice.ideals[data.draw(pick)]
    l = lattice.ideals[data.draw(pick)]

    # I <= Ann(Ann(I)); Ann is antitone.
    assert i.issubset(annihilator(annihilator(i)))
    if i.issubset(j):
        assert annihilator(j).issubset(annihilator(i))
        assert len(sub_ideals(i, lattice)) <= len(sub_ideals(j, lattice))

    prod = ideal_product(i, j)
    assert prod.issubset(ideal_intersection(i, j))
    assert prod.mask == ideal_product(j, i).mask
    assert ideal_product(prod, l).mask == ideal_product(i, ideal_product(j, l)).mask

    # Sums and products of lattice members stay in the lattice.
    assert ideal_sum(i, j).mask in {x.mask for x in lattice}
    assert prod.mask in {x.mask for x in lattice}
