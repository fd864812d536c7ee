import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annigraph.rings import (
    FiniteRing,
    _additive_generators,
    _algebra,
    _frozen_table,
    RingError,
    make_poly_quotient,
    make_product,
    make_structure_constants,
    make_zn,
    ring_from_json,
    ring_to_json,
    validate_ring,
)
from annigraph.ideals import all_ideals

from conftest import brute_validate, make_f2xy_x2y2, violates


def test_zn_smallest_field():
    r = make_zn(2)
    assert r.size == 2
    assert r.one == 1
    assert r.add[1][1] == 0


def test_zn_modular_arithmetic():
    r = make_zn(12)
    assert r.mul[4][6] == 0
    assert r.mul[3][4] == 0
    assert r.add[7][8] == 3
    assert validate_ring(r).ok


@pytest.mark.parametrize("n", [0, 1])
def test_zn_rejects_trivial(n):
    with pytest.raises(RingError):
        make_zn(n)


def test_product_is_z6_under_crt_map():
    r = make_product(make_zn(2), make_zn(3))
    assert r.size == 6
    # phi(a mod 6) = index of (a mod 2, a mod 3)
    phi = [(a % 2) * 3 + a % 3 for a in range(6)]
    z6 = make_zn(6)
    for a in range(6):
        for b in range(6):
            assert r.add[phi[a]][phi[b]] == phi[z6.add[a][b]]
            assert r.mul[phi[a]][phi[b]] == phi[z6.mul[a][b]]


def test_product_identity_and_size():
    r = make_product(make_zn(2), make_zn(2))
    assert r.size == 4
    assert r.labels[r.one] == "(1,1)"
    assert validate_ring(r).ok


def test_structure_constants_quadratic():
    r = make_f2xy_x2y2()
    assert r.size == 16
    assert validate_ring(r).ok
    assert r.labels[1] == "1"
    assert "x+y" in r.labels


def test_structure_constants_square_zero():
    def e(i):
        return [1 if j == i else 0 for j in range(3)]

    zero = [0, 0, 0]
    r = make_structure_constants(
        2, 3, ("1", "x", "y"),
        [[e(0), e(1), e(2)], [e(1), zero, zero], [e(2), zero, zero]],
    )
    assert r.size == 8
    assert validate_ring(r).ok


def test_structure_constants_rejects_noncommutative():
    # x*1 declared differently from 1*x
    table = [
        [[1, 0], [0, 1]],
        [[1, 0], [0, 0]],
    ]
    with pytest.raises(RingError, match="identity|commutative"):
        make_structure_constants(2, 2, ("1", "x"), table)

    def e(i):
        return [1 if j == i else 0 for j in range(3)]

    zero = [0, 0, 0]
    # Identity row/column fine, but x*y != y*x.
    asym = [
        [e(0), e(1), e(2)],
        [e(1), zero, e(1)],
        [e(2), e(2), zero],
    ]
    with pytest.raises(RingError, match="commutative"):
        make_structure_constants(2, 3, ("1", "x", "y"), asym)


def test_structure_constants_rejects_nonassociative():
    def e(i):
        return [1 if j == i else 0 for j in range(3)]

    zero = [0, 0, 0]
    # x*x = y, x*y = y*x = 1, y*y = 0: (x*x)*y = 0 but x*(x*y) = x.
    table = [
        [e(0), e(1), e(2)],
        [e(1), e(2), e(0)],
        [e(2), e(0), zero],
    ]
    with pytest.raises(RingError, match="associative.*witness"):
        make_structure_constants(2, 3, ("1", "x", "y"), table)


def test_structure_constants_rejects_nonprime_modulus():
    with pytest.raises(RingError, match="prime"):
        make_structure_constants(4, 1, ("1",), [[[1]]])


def test_poly_quotient_f4_and_degenerate():
    f4 = make_poly_quotient(2, (1, 1, 1))
    assert f4.size == 4
    assert validate_ring(f4).ok
    assert len(all_ideals(f4)) == 2  # a field

    f2 = make_poly_quotient(2, (0, 1))  # quotient by (x)
    assert f2.size == 2

    dual = make_poly_quotient(3, (0, 0, 1))  # Z_3[x]/(x^2)
    assert dual.size == 9
    x = 3  # index of x
    assert dual.mul[x][x] == 0


def test_poly_quotient_errors():
    with pytest.raises(RingError, match="monic"):
        make_poly_quotient(2, (1, 2))
    with pytest.raises(RingError, match="prime"):
        make_poly_quotient(4, (0, 1))
    with pytest.raises(RingError, match="degree"):
        make_poly_quotient(2, (1,))


def test_validate_detects_broken_identity():
    z2 = make_zn(2)
    bad = FiniteRing(size=2, add=z2.add, mul=((0, 0), (0, 0)), one=1)
    report = validate_ring(bad)
    assert not report.ok
    assert report.axiom == "mul_identity"
    assert report.witness == (1,)


def test_validate_detects_distributivity_break():
    z4 = make_zn(4)
    mul = [list(row) for row in z4.mul]
    mul[2][2] = 2  # 2*2 becomes 2; associativity survives, distributivity dies
    bad = FiniteRing(size=4, add=z4.add, mul=tuple(tuple(r) for r in mul))
    report = validate_ring(bad)
    assert not report.ok
    assert report.axiom == "distributive"
    assert report.witness == (2, 1, 1)


def test_validate_triple_guard(monkeypatch):
    r = make_zn(16)
    full = validate_ring(r)
    assert full.ok and full.triples_checked
    monkeypatch.setattr("annigraph.rings.TRIPLE_CHECK_CAP", 8)
    guarded = validate_ring(r)
    assert guarded.ok and not guarded.triples_checked


def test_validate_reports_distributive_before_mul_associative():
    z4 = make_zn(4)
    mul = z4.mul.copy()
    mul[2, 2] = 1  # 2*2 becomes 1: both distributivity and associativity die
    bad = FiniteRing(size=4, add=z4.add, mul=mul)
    assert violates(bad, "mul_associative", (2, 2, 3))
    assert violates(bad, "distributive", (2, 1, 1))
    assert brute_validate(bad).axiom == "distributive"
    report = validate_ring(bad)
    assert (report.ok, report.axiom, report.witness) == (False, "distributive", (2, 1, 1))


def test_forced_triples_above_the_cap(monkeypatch):
    z600 = make_zn(600)
    mul = z600.mul.copy()
    mul[2, 3] = mul[3, 2] = 0
    bad = FiniteRing(size=600, add=z600.add, mul=mul)
    assert validate_ring(bad) == validate_ring(z600)
    assert not validate_ring(bad).triples_checked
    monkeypatch.setattr("annigraph.rings.TRIPLE_CHECK_CAP", 600)
    report = validate_ring(bad)
    assert report.axiom == "distributive" and violates(bad, report.axiom, report.witness)
    assert validate_ring(z600).ok


def test_additive_generators_generate(corpus):
    for name, r in corpus.items():
        gens = _additive_generators(r.add, r.zero)
        assert 1 <= len(gens) <= (r.size - 1).bit_length(), name
        reached, frontier = set(gens), list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = int(r.add[x, g])
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(range(r.size)), name


def test_validate_checks_every_generator():
    # F_2-algebra on 1, e, f with e^2 = f, ef = e, f^2 = 0: commutative and
    # bilinear, so only mul_associative fails, (ee)f = 0 but e(ef) = f, and
    # never with the identity, the first additive generator.
    e0, e1, e2, zero = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
    consts = [[e0, e1, e2], [e1, e2, e1], [e2, e1, zero]]
    with pytest.raises(RingError, match="not associative"):
        make_structure_constants(2, 3, ("1", "e", "f"), consts)
    bad = _algebra(2, ("1", "e", "f"), np.array(consts))
    assert _additive_generators(bad.add, bad.zero) == [1, 2, 4]
    report = validate_ring(bad)
    assert report.axiom == brute_validate(bad).axiom == "mul_associative"
    assert report.witness[0] != bad.one
    assert violates(bad, report.axiom, report.witness)


PERTURBED_RINGS = {
    "Z4": make_zn(4),
    "Z6": make_zn(6),
    "Z8": make_zn(8),
    "Z9": make_zn(9),
    "Z12": make_zn(12),
    "Z2xZ4": make_product(make_zn(2), make_zn(4)),
    "F4": make_poly_quotient(2, (1, 1, 1)),
    "Z2[x]/(x^3)": make_poly_quotient(2, (0, 0, 0, 1)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_agrees_with_brute_oracle_on_perturbed_tables(data):
    r = PERTURBED_RINGS[data.draw(st.sampled_from(sorted(PERTURBED_RINGS)))]
    n = r.size
    tables = {"add": r.add.copy(), "mul": r.mul.copy()}
    for _ in range(data.draw(st.integers(1, 2))):
        table = tables[data.draw(st.sampled_from(["add", "mul"]))]
        i, j, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[i, j] = v
        if data.draw(st.booleans()):
            table[j, i] = v
    bad = FiniteRing(size=n, add=tables["add"], mul=tables["mul"])
    report, oracle = validate_ring(bad), brute_validate(bad)
    assert (report.ok, report.axiom) == (oracle.ok, oracle.axiom)
    if not report.ok:
        assert violates(bad, report.axiom, report.witness)
        assert violates(bad, oracle.axiom, oracle.witness)


def whole_table_first_mismatch(left: np.ndarray, right: np.ndarray):
    """validate_ring's commutativity check as ``_first_mismatch(T, T.T)``
    over the whole table, before the tiled check; the oracle for it."""
    differ = left != right
    if not differ.any():
        return None
    return tuple(int(x) for x in np.argwhere(differ)[0])


def planted_edit_sets(n: int, rng) -> list[list[tuple[int, int]]]:
    """Sets of one to three cells (i, j), i != j, no two on mirror cells:
    fixed ones on the borders of the 128-square tiles, inside the diagonal
    block and left of it, then random ones drawn half from border rows."""
    fixed = [[(0, 1)], [(n - 1, n - 2)], [(1, 0), (0, n - 1)]]
    if n > 129:
        fixed += [[(127, 128)], [(128, 127)], [(129, 5)], [(130, 129)],
                  [(200, 3), (127, 250), (128, 129)], [(n - 1, 127)]]
    border = [x for x in (0, 1, 2, 126, 127, 128, 129, 254, 255, 256, n - 2, n - 1)
              if x < n]
    for _ in range(12):
        fixed.append([tuple(int(rng.choice(border)) if rng.random() < 0.5
                            else int(rng.integers(n)) for _ in range(2))
                      for _ in range(rng.integers(1, 4))])
    out = []
    for cells in fixed:
        kept = []
        for i, j in cells:
            if i != j and all({i, j} != {a, b} for a, b in kept):
                kept.append((i, j))
        out.append(kept)
    return out


@pytest.mark.parametrize("n", [2, 127, 128, 129, 255, 257, 1024])
def test_commutativity_witness_matches_whole_table_oracle(n):
    # Asymmetric edits to Z_n that keep every earlier pair axiom: no add
    # edit in row 0 or on a row's zero, no mul edit in row 1.  Each edited
    # cell differs from its untouched mirror, so the table is asymmetric.
    rng = np.random.default_rng(n)
    ring = make_zn(n)
    checked = 0
    for name, skip_row in (("add", 0), ("mul", 1)):
        for cells in planted_edit_sets(n, rng):
            tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
            table = tables[name]
            cells = [(i, j) for i, j in cells
                     if i != skip_row and not (name == "add" and table[i, j] == 0)]
            if not cells:
                continue
            for i, j in cells:
                table[i, j] = (table[j, i] + 1 + rng.integers(n - 1)) % n
            bad = FiniteRing(size=n, add=tables["add"], mul=tables["mul"])
            report = validate_ring(bad)
            want = whole_table_first_mismatch(table, table.T)
            assert want is not None
            assert (report.ok, report.axiom, report.witness) \
                == (False, f"{name}_commutative", want), cells
            checked += 1
    assert checked >= 10


def test_zn_tables_are_owned_modular_arithmetic():
    for n in [*range(2, 71), 1023, 1024, 1031]:
        r = make_zn(n)
        i = np.arange(n)
        assert np.array_equal(r.add, (i[:, None] + i) % n)
        assert np.array_equal(r.mul, (i[:, None] * i) % n)
        # a + (n - a) = 0: row a has its zero at column (n - a) % n.
        assert np.array_equal(r.add[i, (n - i) % n], np.zeros(n))
        for table in (r.add, r.mul):
            assert table.dtype == np.int32 and table.shape == (n, n)
            assert table.flags.c_contiguous and not table.flags.writeable
            assert table.flags.owndata and table.base is None


def test_constructors_are_deterministic():
    assert make_zn(12) == make_zn(12)
    assert make_f2xy_x2y2() == make_f2xy_x2y2()
    assert make_zn(12).fingerprint == make_zn(12).fingerprint


def test_ring_json_round_trip():
    r = make_f2xy_x2y2()
    again = ring_from_json(json.loads(json.dumps(ring_to_json(r))))
    assert again == r


def test_ring_json_normalizes_zero():
    z4 = make_zn(4)
    data = ring_to_json(z4)
    # Relabel so the additive identity sits at index 2.
    perm = [2, 1, 0, 3]
    inv = [perm.index(i) for i in range(4)]
    data2 = {
        "size": 4,
        "zero": 2,
        "one": inv[1],
        "add": [[inv[z4.add[perm[i]][perm[j]]] for j in range(4)] for i in range(4)],
        "mul": [[inv[z4.mul[perm[i]][perm[j]]] for j in range(4)] for i in range(4)],
        "labels": [str(perm[i]) for i in range(4)],
    }
    loaded = ring_from_json(data2)
    assert loaded.zero == 0
    assert validate_ring(loaded).ok
    assert loaded.labels[0] == "0"


def test_tables_are_read_only_int32():
    r = make_zn(6)
    for table in (r.add, r.mul):
        assert table.dtype == np.int32 and table.shape == (6, 6)
        with pytest.raises(ValueError):
            table[0, 0] = 1
    # The constructor copies a caller's writable array instead of freezing it.
    mine = np.array([[0, 1], [1, 0]])
    ring = FiniteRing(size=2, add=mine, mul=[[0, 0], [0, 1]])
    mine[0, 0] = 1
    assert ring.add[0, 0] == 0 and not ring.add.flags.writeable


def test_frozen_table_keeps_read_only_int32_and_copies_writable():
    table = np.array([[0, 1], [1, 0]], dtype=np.int32)
    copied = _frozen_table("add", table, 2)
    assert copied is not table and table.flags.writeable
    assert not copied.flags.writeable and np.array_equal(copied, table)
    table.flags.writeable = False
    assert _frozen_table("add", table, 2) is table


def test_constructors_hand_over_their_tables(monkeypatch):
    from annigraph import rings

    copied = []

    def spy(name, table, n):
        out = _frozen_table(name, table, n)
        if out is not table:
            copied.append(name)
        return out

    monkeypatch.setattr(rings, "_frozen_table", spy)
    make_zn(6)
    make_product(make_zn(2), make_zn(3))
    make_f2xy_x2y2()
    make_poly_quotient(3, (0, 0, 1))
    assert copied == []


def read_only(arr):
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("add, match", [
    ([[0, 1], [1, "x"]], "integers"),
    ([[0, 1], [1, 0.5]], "integers"),
    ([[0, 1], [1]], "n x n|shape"),
    ([[0, 1, 0], [1, 0, 1]], "shape"),
    ([[0, 1], [1, 2]], "out of range"),
    ([[0, 1], [1, -1]], "out of range"),
    (read_only(np.array([[0, 1], [1, 2]], dtype=np.int32)), "out of range"),
    (np.array([[0, 1], [1, 2]], dtype=">i4"), "out of range"),
    (np.array([[0, 1], [1, 255]], dtype=np.uint8), "out of range"),
])
def test_malformed_tables_raise_ring_error(add, match):
    with pytest.raises(RingError, match=match):
        FiniteRing(size=2, add=add, mul=[[0, 0], [0, 1]])


def test_negative_int8_entry_is_out_of_range_above_128_elements():
    # Viewed as uint8, -1 reads 255, which is in range at n = 300.
    add = np.zeros((300, 300), dtype=np.int8)
    add[3, 5] = -1
    with pytest.raises(RingError, match="entry -1 out of range at row 3"):
        FiniteRing(size=300, add=add, mul=np.zeros((300, 300), dtype=np.int32))


@pytest.mark.parametrize("dtype", ["i1", "u1", ">i2", "<u2", ">i4", "i8", ">u8"])
def test_in_range_tables_of_any_integer_type_are_accepted(dtype):
    zn = make_zn(7)
    ring = FiniteRing(size=7, add=zn.add.astype(dtype), mul=zn.mul.astype(dtype))
    assert ring == zn and ring.add.dtype == np.int32


def test_rings_compare_by_value():
    r = make_f2xy_x2y2()
    again = ring_from_json(json.loads(json.dumps(ring_to_json(r))))
    assert again is not r and again == r and hash(again) == hash(r)
    assert len({make_zn(12), make_zn(12), make_zn(6)}) == 2
    assert make_zn(4) != make_zn(5)
    relabeled = FiniteRing(size=4, add=make_zn(4).add, mul=make_zn(4).mul,
                           labels=("a", "b", "c", "d"))
    assert relabeled != make_zn(4)
    assert relabeled.fingerprint == make_zn(4).fingerprint
    assert make_zn(2) != "zn:2"


def test_fingerprints_are_pinned():
    from annigraph.specs import parse_ring_spec

    assert parse_ring_spec("zn:12").build().fingerprint == (
        "a03ff53f9abd6b5df1bb914db7eadf7ac917306cdb41adce9e33d47eab7f31aa")
    assert parse_ring_spec("cat:f3xy_x2y2").build().fingerprint == (
        "e8bae8f2234b05e5fd0ae72eacce9f3cc87c31789c93447d27f40969fbd88a6c")


def _oracle_fingerprint(blob: dict) -> str:
    """The digest recomputed from the table exchange form: the header text,
    then each table as little-endian int32 bytes."""
    digest = hashlib.sha256(f"{blob['size']},{blob['zero']},{blob['one']}".encode())
    for key in ("add", "mul"):
        digest.update(np.asarray(blob[key], dtype="<i4").tobytes())
    return digest.hexdigest()


def test_fingerprint_matches_an_independent_oracle():
    r = make_product(make_zn(3), make_f2xy_x2y2())
    blob = ring_to_json(r)
    assert r.fingerprint == _oracle_fingerprint(blob)

    # Any dtype or memory layout of the same tables gives the same digest.
    def read_only(table):
        table.flags.writeable = False
        return table

    for convert in (lambda t: t.astype(np.int64), lambda t: t.astype(np.uint16),
                    lambda t: read_only(np.asfortranarray(t)),
                    lambda t: read_only(np.repeat(t, 2, axis=1)[:, ::2])):
        again = FiniteRing(size=r.size, add=convert(r.add), mul=convert(r.mul),
                           one=r.one, labels=r.labels)
        assert again.fingerprint == r.fingerprint
    assert not again.add.flags.c_contiguous  # a strided view, kept as given

    # A file whose additive identity is not index 0: swapping indices 0 and
    # 5 there and back in ring_from_json leaves the ring and its digest.
    perm = np.arange(r.size)
    perm[[0, 5]] = 5, 0
    grid = np.ix_(perm, perm)
    swapped = {"size": r.size, "zero": 5, "one": int(perm[r.one]),
               "add": perm[r.add[grid]].tolist(), "mul": perm[r.mul[grid]].tolist()}
    loaded = ring_from_json(json.loads(json.dumps(swapped)))
    assert loaded.fingerprint == r.fingerprint == _oracle_fingerprint(ring_to_json(loaded))

    # One changed mul entry, or a changed one, changes the digest.
    mul = r.mul.copy()
    mul[2, 3] = mul[3, 2] = (mul[2, 3] + 1) % r.size
    changed = FiniteRing(size=r.size, add=r.add, mul=mul, one=r.one)
    assert changed.fingerprint != r.fingerprint
    assert changed.fingerprint == _oracle_fingerprint(ring_to_json(changed))
    moved = FiniteRing(size=r.size, add=r.add, mul=r.mul, one=r.one + 1)
    assert moved.fingerprint != r.fingerprint
    assert moved.fingerprint == _oracle_fingerprint(ring_to_json(moved))


def test_poly_quotient_matches_its_structure_constants():
    # Z_3[x]/(x^2 + 1) on the basis 1, x: x * x = -1 = 2.
    sc = make_structure_constants(3, 2, ("1", "x"),
                                  [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])
    assert sc == make_poly_quotient(3, (1, 0, 1))


def test_poly_quotient_tables_match_elementwise_arithmetic():
    # Reference: decode each index to coefficients, multiply and add the
    # polynomials term by term, reduce by f with long division, encode.
    p, f = 3, (1, 2, 0, 1)  # Z_3[x]/(x^3 + 2x + 1)
    d = len(f) - 1
    r = make_poly_quotient(p, f)

    def decode(idx):
        return [idx // p**i % p for i in range(d)]

    def encode(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def reduce(prod):
        prod = list(prod)
        for top in range(len(prod) - 1, d - 1, -1):
            lead = prod[top]
            for i in range(d + 1):
                prod[top - d + i] -= lead * f[i]
        return [c % p for c in prod[:d]]

    for a in range(r.size):
        u = decode(a)
        for b in range(r.size):
            v = decode(b)
            prod = [0] * (2 * d - 1)
            for i in range(d):
                for j in range(d):
                    prod[i + j] += u[i] * v[j]
            assert r.mul[a, b] == encode(reduce(prod))
            assert r.add[a, b] == encode([(x + y) % p for x, y in zip(u, v)])
