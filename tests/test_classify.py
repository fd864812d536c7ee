import pytest

from annigraph.classify import classify, unique_minimal_ideal
from annigraph.ideals import all_ideals, members, name_ideal
from annigraph.rings import make_zn
from annigraph.specs import parse_ring_spec

from conftest import brute_force_ideals, brute_product, make_f2xy_x2xyy2, make_f2xy_x2y2


def classify_ring(ring):
    lattice = all_ideals(ring)
    return lattice, classify(ring, lattice)


def test_z8_is_a_spir():
    ring = make_zn(8)
    lattice, cls = classify_ring(ring)
    assert cls.is_local and not cls.is_field
    assert set(members(cls.m)) == {0, 2, 4, 6}
    assert cls.t == 2
    assert cls.residue_size == 2
    assert cls.vdim_profile == (1, 1)
    assert set(members(cls.socle)) == {0, 4}
    assert cls.is_gorenstein and cls.is_spir
    assert cls.ideal_count == len(brute_force_ideals(ring)) == 4


def test_quadratic_is_gorenstein_not_spir():
    ring = make_f2xy_x2y2()
    lattice, cls = classify_ring(ring)
    assert cls.is_local and cls.t == 2 and cls.residue_size == 2
    assert cls.vdim_profile == (2, 1)
    assert name_ideal(cls.socle, lattice) == "(xy)"
    assert cls.is_gorenstein and not cls.is_spir
    assert cls.ideal_count == len(brute_force_ideals(ring)) == 7


def test_square_zero_maximal_is_not_gorenstein():
    ring = make_f2xy_x2xyy2()
    lattice, cls = classify_ring(ring)
    assert cls.is_local and cls.t == 1
    assert cls.vdim_profile == (2,)
    assert cls.socle == cls.m
    assert cls.socle_dim == 2
    assert not cls.is_gorenstein
    assert cls.ideal_count == len(brute_force_ideals(ring)) == 6


def test_non_local_ring_gets_maximal_ideals_only():
    ring = make_zn(12)
    lattice, cls = classify_ring(ring)
    assert not cls.is_local
    names = {name_ideal(i, lattice) for i in cls.maximal_ideals}
    assert names == {"(2)", "(3)"}
    assert cls.m is None and cls.socle is None
    assert cls.is_gorenstein is None


@pytest.mark.parametrize("spec", ["zn:2", "zn:31", "cat:f4", "cat:f8", "cat:f9"])
def test_field_conventions(spec):
    ring = parse_ring_spec(spec).build()
    lattice, cls = classify_ring(ring)
    assert cls.is_local and cls.is_field
    assert cls.m == lattice.zero
    assert cls.t == 0 and cls.powers == (cls.m,)
    assert cls.residue_size == ring.size
    assert cls.vdim_profile == ()
    assert cls.socle == lattice.unit and cls.socle_dim == 1
    assert cls.is_gorenstein and cls.is_spir
    assert unique_minimal_ideal(lattice) is None


def test_unique_minimal_fixtures():
    z12 = make_zn(12)
    assert unique_minimal_ideal(all_ideals(z12)) is None
    z8 = make_zn(8)
    minimal = unique_minimal_ideal(all_ideals(z8))
    assert set(members(minimal)) == {0, 4}


def test_corpus_invariants(corpus):
    for name, ring in corpus.items():
        lattice = all_ideals(ring)
        cls = classify(ring, lattice)
        if not cls.is_local or cls.is_field:
            continue
        q = cls.residue_size
        assert cls.m.bit_count() == q ** sum(cls.vdim_profile)
        mt = cls.powers[cls.t - 1]
        if cls.is_gorenstein:
            assert cls.socle == mt
            minimal = unique_minimal_ideal(lattice)
            assert minimal == mt
        if cls.is_spir:
            assert cls.ideal_count == cls.t + 2
            assert set(cls.vdim_profile) == {1}


def test_powers_are_repeated_products(corpus):
    """cls.powers is m, m^2, ..., (0), each power the oracle's product of the
    previous one with m; non-local rings have none."""
    for name, ring in corpus.items():
        cls = classify(ring, all_ideals(ring))
        if not cls.is_local:
            assert cls.powers == (), name
            continue
        want = [cls.m]
        while want[-1] != 1 << ring.zero:
            want.append(brute_product(ring, want[-1], cls.m))
        assert list(cls.powers) == want, name
        assert len(cls.powers) == cls.t + 1, name


@pytest.mark.parametrize("ring", [make_zn(7), make_zn(12), make_zn(16)])
def test_classify_hashes_the_ring_only_for_output(ring):
    _, cls = classify_ring(ring)
    assert "fingerprint" not in vars(ring)
    assert cls.ring is ring
    assert cls.ring.fingerprint == ring.fingerprint
