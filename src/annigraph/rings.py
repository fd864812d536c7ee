"""Finite commutative rings with identity, represented by explicit tables.

A ring is a pair of n x n Cayley tables (addition and multiplication) over
element indices 0..n-1, with index 0 reserved for the additive identity.
Constructors build the standard finite examples: Z_n, direct products,
quotients of univariate polynomial rings over prime fields, and algebras
given by structure constants.  ``validate_ring`` checks the ring axioms
over the tables, the triple axioms on a generating set of (R, +).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Hard cap on table-backed ring size; guards against materializing huge tables.
MAX_RING_SIZE = 4096

# Largest size for which the triple axiom checks run.
TRIPLE_CHECK_CAP = 512

# Rows per block, and columns per tile, of the commutativity check.
_TILE = 128


class RingError(ValueError):
    """An input that cannot produce a valid finite commutative ring."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate_ring``: pass, or the first failing axiom.

    ``witness`` holds the offending element tuple, e.g. ``(a, b, c)`` for a
    distributivity failure.  ``triples_checked`` is False when the triple
    checks were skipped because the ring exceeds the size guard.
    """

    ok: bool
    axiom: str | None = None
    witness: tuple | None = None
    triples_checked: bool = True


def _frozen_table(name: str, table, n: int) -> np.ndarray:
    """``table`` as a read-only int32 n x n array of indices in 0..n-1.

    A read-only int32 array is kept as it is; anything else, a caller's
    writable array included, is copied.
    """
    try:
        arr = np.asarray(table)
    except ValueError as exc:
        raise RingError(f"{name} table is not an n x n array: {exc}") from exc
    if arr.shape != (n, n):
        raise RingError(f"{name} table has shape {arr.shape}, expected ({n}, {n})")
    if arr.dtype.kind not in "iu":
        raise RingError(f"{name} table entries must be integers, not {arr.dtype}")
    # One pass: viewed as unsigned of the same width and byte order, a
    # negative entry wraps to 2**(bits - 1) or above, which is at least n
    # under the size cap for every signed type but int8, so that is widened.
    if arr.dtype == np.int8:
        arr = arr.astype(np.int16)
    if arr.view(arr.dtype.str.replace("i", "u")).max() >= n:
        i, j = np.argwhere((arr < 0) | (arr >= n))[0]
        raise RingError(f"{name} table entry {arr[i, j]} out of range at row {i}")
    if arr.dtype != np.int32 or arr.flags.writeable:
        arr = arr.astype(np.int32)
    arr.flags.writeable = False
    return arr


def _owned(table: np.ndarray) -> np.ndarray:
    """A table built here, as int32 and read-only, so ``FiniteRing`` keeps it."""
    table = table.astype(np.int32, copy=False)
    table.flags.writeable = False
    return table


# C0 and C1 control characters, tab, newline and carriage return among them.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _check_labels(labels: tuple[str, ...], n: int):
    """Labels name the elements and the ideals in every line-based output,
    so there is one per element, no two alike, and none holds a control
    character that would split or shift a line."""
    if len(labels) != n:
        raise RingError("labels length does not match ring size")
    if _CONTROL.search("".join(labels)):
        x = next(x for x, label in enumerate(labels) if _CONTROL.search(label))
        raise RingError(f"label {x} ({labels[x]!r}) contains a control character")
    if len(set(labels)) != n:
        first = {}
        x = next(x for x, label in enumerate(labels) if first.setdefault(label, x) != x)
        raise RingError(f"duplicate label {labels[x]!r} at elements "
                        f"{first[labels[x]]} and {x}")


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A finite commutative ring with 1 != 0, given by element tables.

    ``add`` and ``mul`` are read-only int32 arrays of shape (size, size):
    ``add[a, b]`` is the index of a + b.  The constructor accepts any n x n
    integer array-like and checks its shape and range once.  Index 0 is the
    additive identity: ``zero`` is a class constant, and ``ring_from_json``
    moves a file's identity there.  Instances are immutable, safe to share,
    and compare by value.
    """

    zero = 0

    size: int
    add: np.ndarray
    mul: np.ndarray
    one: int = 1
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.size
        if n < 2:
            raise RingError("a ring with 1 != 0 needs at least 2 elements")
        if n > MAX_RING_SIZE:
            raise RingError(f"ring size {n} exceeds the cap of {MAX_RING_SIZE}")
        object.__setattr__(self, "add", _frozen_table("add", self.add, n))
        object.__setattr__(self, "mul", _frozen_table("mul", self.mul, n))
        if not 0 <= self.one < n:
            raise RingError("one index out of range")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n)))
        else:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
            _check_labels(self.labels, n)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return ((self.size, self.one, self.labels)
                == (other.size, other.one, other.labels)
                and np.array_equal(self.add, other.add)
                and np.array_equal(self.mul, other.mul))

    def __hash__(self):
        return hash(self.fingerprint)

    @cached_property
    def fingerprint(self) -> str:
        """Hex digest of the tables; identifies the ring across serializations.

        SHA-256 of the ASCII text ``f"{size},{zero},{one}"``, then the ``add``
        table, then the ``mul`` table, each as row-major little-endian int32
        bytes.  Labels are not part of it.
        """
        digest = hashlib.sha256(f"{self.size},{self.zero},{self.one}".encode())
        for table in (self.add, self.mul):
            digest.update(np.ascontiguousarray(table, dtype="<i4"))
        return digest.hexdigest()


def _prime_power(q: int):
    """Return (p, e) with q = p^e, or None if q is not a prime power."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
        p += 1
    return (q, 1)


def _check_algebra_size(p: int, k: int, what: str) -> None:
    """Reject an algebra of p^k elements over Z_p that is above the size cap
    or whose modulus p is not prime.  The cap comes first and never forms p^k
    for a large k (p^k >= 2^k), so a huge modulus or rank is refused at once,
    before trial division or any work sized by k."""
    if p < 2:
        raise RingError(f"modulus {p} is not prime")
    if k >= MAX_RING_SIZE.bit_length() or p**k > MAX_RING_SIZE:
        raise RingError(f"{what} size {p}^{k} exceeds the cap of {MAX_RING_SIZE}")
    if _prime_power(p) != (p, 1):
        raise RingError(f"modulus {p} is not prime")


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo ``n`` (n >= 2).

    The addition table is circulant: row a is 0..n-1 rotated left by a,
    the window at a of 0..n-1 written twice, so it is copied out of that
    2n buffer with no division.  ``mul`` is i*j reduced mod n; products
    stay below n^2 <= 2^24, inside int32.
    """
    if n < 2:
        raise RingError(f"Z_{n} is not a ring with 1 != 0")
    if n > MAX_RING_SIZE:
        raise RingError(f"ring size {n} exceeds the cap of {MAX_RING_SIZE}")
    i = np.arange(n, dtype=np.int32)
    add = sliding_window_view(np.concatenate([i, i]), n)[:n].copy()
    mul = i[:, None] * i
    mul %= n
    return FiniteRing(size=n, add=_owned(add), mul=_owned(mul))


def make_product(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations; element (i, j) has index i*|b|+j."""
    na, nb = a.size, b.size
    n = na * nb
    if n > MAX_RING_SIZE:
        raise RingError(f"product size {n} exceeds the cap of {MAX_RING_SIZE}")

    def table(ta, tb):
        return _owned((ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(n, n))

    labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    one = a.one * nb + b.one
    return FiniteRing(size=n, add=table(a.add, b.add), mul=table(a.mul, b.mul),
                      one=one, labels=labels)


def _term(coeff: int, name: str) -> str:
    if name == "1":
        return str(coeff)
    if coeff == 1:
        return name
    return f"{coeff}{name}"


def _algebra_label(coeffs, basis_labels) -> str:
    terms = [_term(c, basis_labels[i]) for i, c in enumerate(coeffs) if c]
    return "+".join(terms) if terms else "0"


def _algebra(p: int, basis_labels, consts: np.ndarray) -> FiniteRing:
    """The Z_p-algebra on a basis whose products are ``consts[i, j]``, the
    coefficient vector of basis element i times basis element j.

    Element index sum(c_l p^l) stands for sum(c_l b_l).  Row u of each table
    comes from row u - b_i, with b_i the lowest basis element in u:
    u + v = ((u - b_i) + v) + b_i and u v = (u - b_i) v + b_i v.  Callers
    check the size cap.
    """
    k = len(basis_labels)
    n = p**k
    weights = p ** np.arange(k)
    vecs = np.arange(n)[:, None] // weights % p  # (n, k) coefficient vectors
    plus_basis = (np.arange(n)[:, None]
                  + np.where(vecs < p - 1, weights, (1 - p) * weights)).T
    times_basis = np.einsum("vj,ijl->ivl", vecs, consts) % p @ weights
    lowest = np.argmax(vecs > 0, axis=1)  # i of each u's lowest basis element
    prev = np.arange(n) - weights[lowest]  # u - b_i
    steps = list(zip(range(1, n), lowest[1:].tolist(), prev[1:].tolist()))
    add = np.empty((n, n), dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    add[0], mul[0] = np.arange(n), 0
    for u, i, prev in steps:
        add[u] = plus_basis[i, add[prev]]
    for u, i, prev in steps:
        mul[u] = add[mul[prev], times_basis[i]]
    labels = tuple(_algebra_label(v, basis_labels) for v in vecs.tolist())
    return FiniteRing(size=n, add=_owned(add), mul=_owned(mul), labels=labels)


def make_structure_constants(modulus, rank, basis_labels, mult_table) -> FiniteRing:
    """Commutative algebra over Z_p from a basis-by-basis multiplication table.

    ``mult_table[i][j]`` is the length-``rank`` coefficient vector of the
    product of basis elements i and j.  Basis element 0 must act as the
    multiplicative identity.  The table is checked for commutativity and
    associativity on the basis; a violation is reported with a witness.
    """
    p, k = modulus, rank
    _check_algebra_size(p, k, "algebra")
    if k < 1:
        raise RingError("rank must be at least 1")
    if basis_labels is None:
        basis_labels = tuple(f"e{i}" for i in range(k))
    basis_labels = tuple(str(s) for s in basis_labels)
    if len(basis_labels) != k:
        raise RingError("basis label count does not match rank")
    try:
        consts = np.asarray(mult_table)
    except ValueError as exc:
        raise RingError(f"multiplication table is not rank x rank x rank: {exc}") from exc
    if consts.shape != (k, k, k) or consts.dtype.kind not in "iu":
        raise RingError("multiplication table must be rank x rank integer "
                        "vectors of length rank")
    consts = consts.astype(np.int64) % p

    basis = np.eye(k, dtype=np.int64)
    bad = np.flatnonzero((consts[0] != basis).any(axis=1)
                         | (consts[:, 0] != basis).any(axis=1))
    if len(bad):
        raise RingError(
            f"basis element 0 ({basis_labels[0]}) is not a multiplicative "
            f"identity: fails against {basis_labels[bad[0]]}"
        )
    bad = np.argwhere((consts != consts.transpose(1, 0, 2)).any(axis=2))
    if len(bad):
        i, j = bad[0]
        raise RingError(
            "structure constants are not commutative: "
            f"{basis_labels[i]}*{basis_labels[j]} != "
            f"{basis_labels[j]}*{basis_labels[i]}"
        )
    # (b_i b_j) b_l against b_i (b_j b_l), coefficient by coefficient.
    left = np.einsum("ijm,mlr->ijlr", consts, consts) % p
    right = np.einsum("jlm,imr->ijlr", consts, consts) % p
    bad = np.argwhere((left != right).any(axis=3))
    if len(bad):
        i, j, l = bad[0]
        raise RingError(
            "structure constants are not associative: witness "
            f"({basis_labels[i]}, {basis_labels[j]}, {basis_labels[l]})"
        )
    return _algebra(p, basis_labels, consts)


def make_poly_quotient(p: int, f) -> FiniteRing:
    """Z_p[x] modulo a monic polynomial ``f`` (coefficients low degree first).

    Realizes prime fields' extensions and truncated polynomial rings such as
    F_4 = Z_2[x]/(x^2+x+1) or Z_3[x]/(x^2).
    """
    d = len(f) - 1
    _check_algebra_size(p, d, "quotient")
    f = [int(c) % p for c in f]
    if len(f) > 1 and f[-1] == 0:
        raise RingError("polynomial is not monic (leading coefficient 0)")
    if d < 1:
        raise RingError("quotient polynomial must have degree at least 1")
    if f[-1] != 1:
        raise RingError("quotient polynomial must be monic")

    # powers[e] = x^e mod f for e = 0..2d-2, the degrees basis products reach.
    powers = [[1] + [0] * (d - 1)]
    for _ in range(2 * d - 2):
        cur = powers[-1]
        lead = cur[-1]
        powers.append([(c - lead * fc) % p for c, fc in zip([0] + cur[:-1], f)])
    e = np.arange(d)
    consts = np.array(powers, dtype=np.int64)[e[:, None] + e]
    basis = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(d))
    return _algebra(p, basis, consts)


def _first_mismatch(left: np.ndarray, right: np.ndarray):
    differ = left != right
    if not differ.any():
        return None
    return tuple(int(x) for x in np.argwhere(differ)[0])


def _first_asymmetry(table: np.ndarray):
    """The first (i, j) in row-major order with table[i, j] != table[j, i],
    or None.

    Rows lo:hi, a block of ``_TILE``, are compared from the diagonal onward
    with their mirror columns, one ``_TILE``-square tile at a time, so each
    read runs along rows.  A mismatch left of the diagonal block mirrors
    one in an earlier block, which has already returned, so the first
    mismatch of a block is the first of the table.
    """
    n = len(table)
    for lo in range(0, n, _TILE):
        hi = min(lo + _TILE, n)
        differ = np.empty((hi - lo, n - lo), dtype=bool)
        for c in range(lo, n, _TILE):
            d = min(c + _TILE, n)
            np.not_equal(table[lo:hi, c:d], table[c:d, lo:hi].T,
                         out=differ[:, c - lo:d - lo])
        if differ.any():
            i, j = divmod(int(differ.argmax()), n - lo)
            return lo + i, lo + j
    return None


def _additive_generators(A: np.ndarray, zero: int) -> list[int]:
    """A set S whose closure under + (with ``zero``) is every element.

    Greedy: the least element outside the span of the elements picked so far
    joins S, and the span grows by one sumset with the cycle of ``zero``
    under x -> x + g.  Every element the span gains is a sum of elements
    already in the closure, whatever the table; for a group the span is the
    subgroup generated by S, so it at least doubles and |S| <= log2 n.
    """
    n = len(A)
    span = np.zeros(n, dtype=bool)
    span[zero] = True
    gens = []
    while not span.all():
        g = int(np.argmin(span))
        gens.append(g)
        plus_g = A[:, g].tolist()
        cycle, seen, x = [], set(), zero
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = plus_g[x]
        span[A[np.ix_(np.flatnonzero(span), cycle)]] = True
    return gens


def validate_ring(r: FiniteRing) -> ValidationReport:
    """Check the commutative-ring axioms over the tables.

    Pair axioms are always checked, on every pair.  The two commutativity
    checks compare each table with its mirror by square tiles
    (``_first_asymmetry``): a whole-table ``T != T.T`` reads ``T.T`` down
    columns whose entries lie a row, 4n bytes, apart, a cache miss on each
    read once n is in the thousands.  Either way the witness is the first
    asymmetric pair in row-major order.  The three triple axioms run when
    ``size <= TRIPLE_CHECK_CAP``; otherwise the report records that they
    were skipped.  Returns a pass, or the first failing axiom with a
    witness that violates it.

    The triple axioms are checked only with a generating set S of (R, +),
    |S| <= log2 n, in O(|S| n^2): Light's associativity test (Clifford and
    Preston, The Algebraic Theory of Semigroups, vol. 1, 1.2), extended to
    the other two axioms.  For each axiom the elements g it holds for form
    a set closed under +, so holding on S it holds on the closure of S,
    which is R.  In order:

    1. ``add_associative``: (g+x)+y = g+(x+y) for all x, y.  If g and h
       pass, so does g+h: ((g+h)+x)+y = (g+(h+x))+y = g+((h+x)+y)
       = g+(h+(x+y)) = (g+h)+(x+y).  Zero passes by the identity axiom.
    2. ``distributive``, witness (a, b, c): a(g+c) = ag+ac for all a, c.
       With + associative, b and b' passing gives a((b+b')+c)
       = ab+(ab'+ac) = a(b+b')+ac.  (R, +) is now a finite group, so sums
       of elements of S reach all of R, zero included.
    3. ``mul_associative``: (gx)y = g(xy) for all x, y.  With both
       distributive laws (by commutativity) a -> (ax)y - a(xy) is additive,
       so the elements where it vanishes are closed under +.
    """
    n = r.size
    A, M = r.add, r.mul
    idx = np.arange(n, dtype=np.int32)
    z, one = r.zero, r.one

    bad = np.argwhere(A[z] != idx)
    if len(bad):
        return ValidationReport(False, "zero_identity", (int(bad[0][0]),))

    has_inverse = (A == z).any(axis=1)
    if not has_inverse.all():
        return ValidationReport(False, "additive_inverse", (int(np.argmin(has_inverse)),))

    w = _first_asymmetry(A)
    if w:
        return ValidationReport(False, "add_commutative", w)

    if one == z:
        return ValidationReport(False, "one_not_zero", (one,))

    bad = np.argwhere(M[one] != idx)
    if len(bad):
        return ValidationReport(False, "mul_identity", (int(bad[0][0]),))

    w = _first_asymmetry(M)
    if w:
        return ValidationReport(False, "mul_commutative", w)

    if n > TRIPLE_CHECK_CAP:
        return ValidationReport(True, triples_checked=False)

    gens = _additive_generators(A, z)
    for g in gens:
        w = _first_mismatch(A[A[g]], A[g][A])
        if w:
            return ValidationReport(False, "add_associative", (g,) + w)
    for g in gens:
        w = _first_mismatch(M[:, A[g]], A[M[:, g, None], M])
        if w:
            return ValidationReport(False, "distributive", (w[0], g, w[1]))
    for g in gens:
        w = _first_mismatch(M[M[g]], M[g][M])
        if w:
            return ValidationReport(False, "mul_associative", (g,) + w)
    return ValidationReport(True)


def ring_to_json(r: FiniteRing) -> dict:
    """The table exchange form: size, zero, one, row-major add/mul, labels."""
    return {
        "size": r.size,
        "zero": r.zero,
        "one": r.one,
        "add": r.add.tolist(),
        "mul": r.mul.tolist(),
        "labels": list(r.labels),
    }


def ring_from_json(data: dict) -> FiniteRing:
    """Load a ring from the table exchange form, moving zero to index 0."""
    try:
        size, zero, one = (_integer_field(data, key, "ring table")
                           for key in ("size", "zero", "one"))
        add, mul = (_frozen_table(key, data[key], size) for key in ("add", "mul"))
        labels = data.get("labels")
    except (KeyError, TypeError) as exc:
        raise RingError(f"malformed ring table file: {exc}") from exc
    if labels is None:
        labels = []
    elif not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise RingError("malformed ring table file: labels is not a list of strings")
    if not (0 <= zero < size and 0 <= one < size):
        raise RingError("zero/one index out of range")
    if zero:
        # Swap indices 0 and zero so that the additive identity sits at 0.
        perm = np.arange(size, dtype=np.int32)
        perm[[0, zero]] = zero, 0
        grid = np.ix_(perm, perm)
        add, mul = _owned(perm[add[grid]]), _owned(perm[mul[grid]])
        one = int(perm[one])
        if zero < len(labels):
            labels = list(labels)
            labels[0], labels[zero] = labels[zero], labels[0]
    return FiniteRing(size=size, add=add, mul=mul, one=one, labels=tuple(labels))


def ring_from_sc_json(data: dict) -> FiniteRing:
    """Load a structure-constant file: {p, rank, basis, mul}."""
    if not isinstance(data, dict):
        raise RingError("malformed structure-constant file: not a JSON object")
    missing = [key for key in ("p", "rank", "mul") if key not in data]
    if missing:
        raise RingError(f"malformed structure-constant file: missing '{missing[0]}'")
    p, rank = (_integer_field(data, key, "structure-constant") for key in ("p", "rank"))
    basis = data.get("basis")
    if basis is not None and not isinstance(basis, list):
        raise RingError("malformed structure-constant file: basis is not a list")
    return make_structure_constants(p, rank, basis, data["mul"])


def _integer_field(data: dict, key: str, kind: str) -> int:
    """``data[key]`` as an int: a JSON integer, or a float with an integer
    value.  Anything else, a string or a boolean included, is a RingError
    naming the ``kind`` of file."""
    value = data[key]
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise RingError(f"malformed {kind} file: {key} {value!r} is not an integer")
