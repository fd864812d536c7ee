import json
import math
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from annigraph import ideals
from annigraph.cli import main
from annigraph.classify import classify, unique_minimal_ideal
from annigraph.graphs import build_ag
from annigraph.ideals import (
    all_ideals,
    annihilating_ideals,
    members,
    name_ideal,
    sub_ideals,
)
from annigraph.rings import (
    RingError,
    make_poly_quotient,
    make_product,
    make_structure_constants,
    make_zn,
)
from annigraph.specs import catalog_names, parse_ring_spec

from conftest import (
    brute_annihilator,
    brute_force_ideals,
    brute_principal,
    brute_product,
    brute_sum,
    divisors,
    make_f2xy_x2y2,
    make_f2xyz_m2,
    zn_ideal_sets,
)


def member_set(ideal):
    return set(members(ideal))


def mask(elements):
    return sum(1 << e for e in set(elements))


def test_principal_fixtures():
    lattice = all_ideals(make_zn(12))
    assert lattice.principals[mask({0, 4, 8})] == 4
    assert lattice.principals[mask({0})] == 0
    assert lattice.principals[mask(range(12))] == 1  # 5 is a unit: (5) = (1)
    assert len(lattice.principals) == 6
    assert member_set(lattice.smallest_containing(mask({8}))) == {0, 4, 8}


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 16, 18, 24, 27, 36])
def test_all_ideals_matches_divisor_oracle(n):
    lattice = all_ideals(make_zn(n))
    assert {frozenset(members(i)) for i in lattice.ideals} == zn_ideal_sets(n)
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
    assert {frozenset(members(i)) for i in lattice.ideals} == brute_force_ideals(ring)


def test_lattice_order_and_endpoints():
    lattice = all_ideals(make_zn(12))
    cards = [i.bit_count() for i in lattice.ideals]
    assert cards == sorted(cards)
    assert lattice.zero == 1 << lattice.ring.zero
    assert lattice.unit == (1 << lattice.ring.size) - 1


def test_lattice_cap(monkeypatch):
    monkeypatch.setattr("annigraph.ideals.LATTICE_CAP", 3)
    with pytest.raises(RingError, match="cap"):
        all_ideals(make_zn(12))


def test_lattice_cap_names_the_ring_before_any_tuple(monkeypatch):
    # Z2^3 has 8 ideals; the cap trips on the third factor, and the error
    # names the product, not the factor.
    monkeypatch.setattr("annigraph.ideals.LATTICE_CAP", 5)
    ring = reduce(make_product, [make_zn(2)] * 3)
    with mock.patch.object(ideals, "_preimages", wraps=ideals._preimages) as spy:
        with pytest.raises(RingError, match=ring.fingerprint[:12]):
            all_ideals(ring)
    assert spy.call_count == 2


# Factors for the factor-path tests: Z_n up to 64, the catalog rings and
# the chain rings Z_p[x]/(x^k) of the benchmark corpus.
_FACTOR_SPECS = (
    [f"zn:{n}" for n in range(2, 65)]
    + [f"cat:{name}" for name in catalog_names() if "<" not in name]
    + ["polyq:2:0,0,0,0,1", "polyq:2:0,0,0,0,0,1", "polyq:3:0,0,0,1", "polyq:5:0,0,1"]
)
_FACTORS = {spec: parse_ring_spec(spec).build() for spec in _FACTOR_SPECS}
_LOCAL_SPECS = [spec for spec, ring in _FACTORS.items()
                if len(ideals._primitive_idempotents(ring)) == 1]


def _is_prime_power(n):
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return n == 1


def test_local_factor_specs_are_the_local_rings():
    # Z_n is local exactly when n is a prime power; the catalog and chain
    # rings are all local.
    prime_powers = [f"zn:{n}" for n in range(2, 65) if _is_prime_power(n)]
    assert _LOCAL_SPECS == prime_powers + [s for s in _FACTOR_SPECS
                                           if not s.startswith("zn:")]


def _assert_extremal_ideals(ring, lattice):
    """Maximal ideals and the unique minimal one agree with the all-pairs
    definitions."""
    proper = lattice.ideals[:-1]
    maximal = tuple(
        i for i in proper if not any(i != j and i & ~j == 0 for j in proper))
    minimal = [i for i in lattice.ideals[1:-1] if len(sub_ideals(i, lattice)) == 2]
    assert classify(ring, lattice).maximal_ideals == maximal
    assert unique_minimal_ideal(lattice) == (minimal[0] if len(minimal) == 1 else None)


@pytest.mark.parametrize("spec", _LOCAL_SPECS)
def test_local_ring_takes_the_closure(spec):
    ring = _FACTORS[spec]
    with mock.patch.object(ideals, "_closure", wraps=ideals._closure) as spy:
        lattice = all_ideals(ring)
    assert [call.args for call in spy.call_args_list] == [(ring, ring)]
    assert lattice.ideals == ideals._closure(ring, ring)[0].ideals
    _assert_extremal_ideals(ring, lattice)


@st.composite
def _products(draw):
    """The product of 2-4 drawn factors, of at most 256 elements."""
    k = draw(st.integers(2, 4))
    budget, rings = 256, []
    for left in range(k - 1, -1, -1):
        fits = [s for s in _FACTOR_SPECS if _FACTORS[s].size * 2 ** left <= budget]
        ring = _FACTORS[draw(st.sampled_from(fits))]
        rings.append(ring)
        budget //= ring.size
    return reduce(make_product, rings)


@settings(max_examples=40, deadline=None)
@given(_products())
def test_factor_path_matches_closure(ring):
    with mock.patch.object(ideals, "_closure", wraps=ideals._closure) as spy:
        lattice = all_ideals(ring)
    assert spy.call_count >= 2
    assert all(call.args[0].size < ring.size for call in spy.call_args_list)
    oracle = ideals._closure(ring, ring)[0]
    assert lattice.ideals == oracle.ideals
    assert list(lattice.principals.items()) == list(oracle.principals.items())
    assert build_ag(ring, lattice) == build_ag(ring, oracle)
    _assert_extremal_ideals(ring, lattice)



def _principal(lattice, x):
    return lattice.smallest_containing(1 << x)


def test_sum_and_intersection_against_gcd_lcm():
    lattice = all_ideals(make_zn(12))
    masks = set(lattice.ideals)
    for a in divisors(12):
        for b in divisors(12):
            ia, ib = _principal(lattice, a % 12), _principal(lattice, b % 12)
            total = lattice.smallest_containing(ia | ib)
            assert member_set(total) == set(range(0, 12, math.gcd(a, b)))
            expected = {x for x in range(12) if x % a == 0 and x % b == 0}
            assert ia & ib == mask(expected) and mask(expected) in masks


def test_sum_intersection_fixtures():
    lattice = all_ideals(make_zn(12))
    i4, i6 = _principal(lattice, 4), _principal(lattice, 6)
    assert lattice.smallest_containing(i4 | i6) == _principal(lattice, 2)
    assert i4 & i6 == lattice.zero
    for i in lattice.ideals:
        assert lattice.smallest_containing(i | lattice.zero) == i


def test_product_fixtures():
    lattice = all_ideals(make_zn(12))
    assert lattice.product(_principal(lattice, 3), _principal(lattice, 4)) == lattice.zero
    assert member_set(lattice.product(_principal(lattice, 2), _principal(lattice, 3))) \
        == {0, 6}
    for i in lattice.ideals:
        assert lattice.product(i, lattice.unit) == i
        assert lattice.product(lattice.zero, i) == lattice.zero


def test_power_fixtures():
    z8 = make_zn(8)
    lattice = all_ideals(z8)
    two = _principal(lattice, 2)
    square = lattice.product(two, two)
    assert member_set(square) == {0, 4}
    assert lattice.product(square, two) == lattice.zero
    cls = classify(z8, lattice)
    assert [member_set(p) for p in cls.powers] == [{0, 2, 4, 6}, {0, 4}, {0}]
    assert "powers" not in repr(cls)


def test_annihilator_fixtures():
    lattice = all_ideals(make_zn(12))

    def ann(x):
        return lattice.annihilators[lattice.index_of(_principal(lattice, x))]

    assert ann(4) == mask({0, 3, 6, 9})
    assert ann(0) == lattice.unit
    assert ann(1) == lattice.zero


def test_sub_ideals_fixtures():
    z16 = make_zn(16)
    lattice = all_ideals(z16)
    assert len(sub_ideals(_principal(lattice, 2), lattice)) == 4
    assert len(sub_ideals(_principal(lattice, 4), lattice)) == 3
    assert len(sub_ideals(lattice.zero, lattice)) == 1


def test_annihilating_ideals_fixtures():
    z12 = make_zn(12)
    lattice = all_ideals(z12)
    names = {name_ideal(i, lattice) for i in annihilating_ideals(lattice)}
    assert names == {"(2)", "(3)", "(4)", "(6)"}

    assert annihilating_ideals(all_ideals(make_poly_quotient(2, (1, 1, 1)))) == []

    z4 = make_zn(4)
    lat4 = all_ideals(z4)
    assert [member_set(i) for i in annihilating_ideals(lat4)] == [{0, 2}]


def test_lattice_keeps_principals_and_annihilators():
    for ring in (make_zn(12), make_zn(36), make_f2xy_x2y2(),
                 make_poly_quotient(2, (1, 1, 1))):
        lattice = all_ideals(ring)
        want = {}
        for x in range(ring.size):
            want.setdefault(brute_principal(ring, x), x)
        assert list(lattice.principals.items()) == list(want.items())
        assert lattice.annihilators == tuple(brute_annihilator(ring, i)
                                             for i in lattice.ideals)


def per_row_least_generators(ring):
    """The principal masks and least generators one row at a time: Rx is
    the value set of row x of ``mul``, and x is least when no smaller
    element gave the same mask."""
    principals, least = {}, []
    for x, row in enumerate(ring.mul.tolist()):
        least.append(principals.setdefault(mask(set(row)), x))
    return principals, least


@pytest.mark.parametrize("spec", [
    "zn:2", "zn:12", "zn:36", "zn:97", "zn:1000", "zn:1024",
    "prod:(zn:4,zn:6)", "prod:(zn:2,prod:(zn:3,cat:f4))", "prod:(zn:8,zn:128)",
    "polyq:2:0,0,0,1",
])
def test_least_generators_match_per_row_oracle(spec):
    # zn:1024 and the 1024-element product span several scatter blocks.
    ring = parse_ring_spec(spec).build()
    principals, least = ideals._least_generators(ring)
    want_principals, want_least = per_row_least_generators(ring)
    assert list(principals.items()) == list(want_principals.items())
    assert least.tolist() == want_least


def _named_by_search(ideal, lattice):
    """What name_ideal means: the first generator, then the first pair a < b
    of nonzero members with Ra + Rb = I, by exhaustive search."""
    r = lattice.ring
    for x in members(ideal):
        if brute_principal(r, x) == ideal:
            return f"({r.labels[x]})"
    nonzero = [x for x in members(ideal) if x != r.zero]
    for k, a in enumerate(nonzero):
        for b in nonzero[k + 1:]:
            if brute_sum(r, brute_principal(r, a), brute_principal(r, b)) == ideal:
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
    assert [name_ideal(i, lattice) for i in lattice.ideals] \
        == [_named_by_search(i, lattice) for i in lattice.ideals]


def test_socle_first_maximal_ideal_has_two_generators():
    lattice = all_ideals(_socle_first())
    assert name_ideal(lattice.ideals[-2], lattice) == "(x,y)"


def test_serialization_carries_fingerprint(capsys):
    assert main(["ideals", "zn:12", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ring"] == make_zn(12).fingerprint
    assert blob["ideals"][0] == [0]


_RINGS = [make_zn(12), make_zn(16), make_zn(24), make_f2xy_x2y2(),
          make_poly_quotient(2, (0, 0, 0, 1))]
_LATTICES = [all_ideals(r) for r in _RINGS]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_algebra_invariants(data):
    k = data.draw(st.integers(0, len(_RINGS) - 1))
    ring, lattice = _RINGS[k], _LATTICES[k]
    pick = st.integers(0, len(lattice) - 1)
    i = lattice.ideals[data.draw(pick)]
    j = lattice.ideals[data.draw(pick)]
    l = lattice.ideals[data.draw(pick)]

    def ann(x):
        return lattice.annihilators[lattice.index_of(x)]

    def subset(a, b):
        return a & ~b == 0

    # I <= Ann(Ann(I)); Ann is antitone.
    assert subset(i, ann(ann(i)))
    if subset(i, j):
        assert subset(ann(j), ann(i))
        assert len(sub_ideals(i, lattice)) <= len(sub_ideals(j, lattice))

    prod = lattice.product(i, j)
    assert prod == brute_product(ring, i, j)
    assert subset(prod, i & j)
    assert prod == lattice.product(j, i)
    assert lattice.product(prod, l) == lattice.product(i, lattice.product(j, l))

    # Sums and products of lattice members stay in the lattice.
    masks = set(lattice.ideals)
    total = brute_sum(ring, i, j)
    assert total in masks
    assert lattice.smallest_containing(i | j) == total
    assert prod in masks
