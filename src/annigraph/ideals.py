"""Ideals of a finite commutative ring and the complete ideal lattice.

An ideal is its bitmask over element indices: bit x is set exactly when
element x is a member, so membership is one shift and set algebra is a
couple of word operations.  ``members(mask)`` lists the member indices.
The lattice and every function here take and return masks.

``all_ideals`` first splits the ring into local factors.  A finite
commutative ring is the product of the local rings eR over its primitive
idempotents e (Atiyah and Macdonald, Thm. 8.7): these are the minimal
nonzero solutions of e*e = e under "f <= e iff ef = f", they are
orthogonal and sum to 1, and x -> (e*x)_e is an isomorphism onto the
product.  An ideal I is then the tuple of its factor ideals eI, since
eI lies in I and x is the sum of the e*x: I = {x : e*x in eI for every e},
the AND of the preimage masks of the eI.  Every tuple of factor ideals is
an ideal, and distinct tuples are distinct ideals, so the lattice is
exactly the tuples, and its size is the product of the factor lattice
sizes, which is checked against the cap before any tuple is built.  Each
factor eR is a ring of its own on the values of row e of ``mul``; its
ideals come from the closure below.  The principal ideal Rx is the tuple
of the factor principal ideals R(e*x), and its least generator is the
least x that gives that tuple.  A local ring has the single primitive
idempotent 1 and goes straight to the closure.

The principal ideal Rx is the value set of row x of the multiplication
table, so one scatter over the table gives the mask of every principal
ideal; the lattice keeps them (``IdealLattice.principals``) for naming
ideals and for annihilators.  The closure seeds the lattice with them and
adds each ideal it finds to the principal seeds only.  That is complete:
every ideal I of a finite unital ring is the sum Rx_1 + ... + Rx_k of the
principal ideals of its members, and the chain Rx_1, Rx_1 + Rx_2, ...
reaches I one seed at a time, each link the sum of a found ideal and a seed.

The sums I + P over all seeds P come from I's coset labels.  I is an
additive subgroup, so label(z) = min(add[I, z]), the least element of
I + z, names the coset of z, and I + P is the union of the cosets that meet
P: I + P = {z : label(z) in label(P)}.  One gather of the addition table's
rows at I's members labels every element, and one more gather gives the
sums for all seeds at once, instead of one |I| x |P| gather per pair.

Ideal arithmetic happens on the lattice.  It is sorted by cardinality, and
the ideals containing a set are closed under intersection, so the first one
that contains the set is the smallest ideal containing it.  A product
IJ is the smallest ideal containing g*h over the least generators g of the
principal ideals inside I and h of those inside J: I and J are the sums of
those principal ideals, so IJ is the sum of the R(g*h).  Adjacency in the
annihilating-ideal graph needs no products at all: IJ = (0) exactly when J
lies in Ann(I), one AND of two masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rings import FiniteRing, RingError, _owned

# Abort lattice enumeration beyond this many ideals.
LATTICE_CAP = 100_000

# Most entries one transient table gather may hold; bounds memory near the
# ring size cap.
_GATHER_CAP = 1 << 20


@dataclass(frozen=True)
class IdealLattice:
    """The masks of all ideals of a ring, sorted by (cardinality, member list).

    ``principals`` maps the mask of each distinct principal ideal to its
    least generator, in generator order.
    """

    ring: FiniteRing
    ideals: tuple[int, ...]
    principals: dict[int, int] = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_mask", {m: k for k, m in enumerate(self.ideals)})

    def __len__(self) -> int:
        return len(self.ideals)

    def index_of(self, ideal: int) -> int:
        return self._by_mask[ideal]

    @property
    def zero(self) -> int:
        return self.ideals[0]

    @property
    def unit(self) -> int:
        return self.ideals[-1]

    def smallest_containing(self, mask: int) -> int:
        """The smallest ideal containing the elements of ``mask``: the first
        in cardinality order that contains them."""
        return next(i for i in self.ideals if mask & ~i == 0)

    def _generators(self, ideal: int) -> list[int]:
        """The least generators of the principal ideals inside ``ideal``,
        in generator order; their principal ideals sum to ``ideal``."""
        outside = ~ideal
        return [g for m, g in self.principals.items() if m & outside == 0]

    def product(self, i: int, j: int) -> int:
        """IJ, the smallest ideal containing g*h over the generators g of I
        and h of J."""
        r = self.ring
        flags = np.zeros(r.size, dtype=bool)
        flags[r.mul[np.ix_(self._generators(i), self._generators(j))]] = True
        return self.smallest_containing(_pack(flags))

    @cached_property
    def annihilators(self) -> tuple[int, ...]:
        """The mask of Ann(I) for each ideal I, in lattice order.

        Ann(I) is the meet of Ann(g) over the least generators g of the
        principal ideals inside I, since those ideals sum to I; Ann(g) is
        the zero set of row g of ``mul``.
        """
        r = self.ring
        gens = np.array(list(self.principals.values()), dtype=np.intp)
        kills = [k for rows in _row_blocks(len(gens), r.size)
                 for k in _packed_rows(r.mul[gens[rows]] == r.zero)]
        kill = dict(zip(self.principals.values(), kills))
        out = []
        for i in self.ideals:
            ann = (1 << r.size) - 1
            for g in self._generators(i):
                ann &= kill[g]
            out.append(ann)
        return tuple(out)


def members(mask: int) -> tuple[int, ...]:
    """The element indices in a mask, ascending."""
    return tuple(_indices(mask).tolist())


def _indices(mask: int) -> np.ndarray:
    """The element indices in a mask, ascending, as an array."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _pack(flags: np.ndarray) -> int:
    """The bitmask of a boolean array over element indices."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _packed_rows(flags: np.ndarray) -> list[int]:
    """The bitmask of each row of a boolean matrix over element indices."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _row_blocks(n: int, width: int):
    """Slices of 0..n-1 whose rows of ``width`` entries stay under the gather cap."""
    step = max(1, _GATHER_CAP // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _least_generators(r: FiniteRing) -> tuple[dict[int, int], np.ndarray]:
    """Each distinct principal ideal's mask -> its least generator, in
    generator order, and for each element x the least generator of Rx.

    The mask of Rx is the value set of row x of ``mul``: flag n*x + mul[x, y]
    of one flat n*n array for every y, one scatter per block of rows.  The
    flat indices fit int32 (n^2 <= 2^24), and a block holds an eighth of
    the gather cap's entries, so its indices take at most 512 KiB."""
    n = r.size
    flags = np.zeros(n * n, dtype=bool)
    for rows in _row_blocks(n, 8 * n):
        block = r.mul[rows]
        start = rows.start * n
        offsets = np.arange(start, start + block.size, n, dtype=np.int32)
        flags[block + offsets[:, None]] = True
    flags = flags.reshape(n, n)
    out = {}
    least = [out.setdefault(mask, x) for x, mask in enumerate(_packed_rows(flags))]
    return out, np.array(least, dtype=np.int64)


def _coset_labels(r: FiniteRing, members: np.ndarray) -> np.ndarray:
    """label(z) = min(add[I, z]), the least element of I + z, for every element z;
    I is the subgroup of ``members``."""
    labels = np.full(r.size, r.size, dtype=np.int32)
    for rows in _row_blocks(len(members), r.size):
        np.minimum(labels, r.add[members[rows]].min(axis=0), out=labels)
    return labels


def _check_cap(count: int, r: FiniteRing):
    if count > LATTICE_CAP:
        raise RingError(
            f"ideal lattice exceeds cap ({LATTICE_CAP}); "
            f"ring fingerprint {r.fingerprint[:12]}"
        )


def _in_order(masks) -> tuple[int, ...]:
    """Masks sorted by (cardinality, member list), the lattice order."""
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), members(m))))


def _closure(r: FiniteRing, owner: FiniteRing) -> tuple[IdealLattice, np.ndarray]:
    """Every ideal of ``r``: principal seeds, then sums of found ideals and
    seeds.  Also returns the least generator of Rx for each element x.  A
    lattice over the cap raises an error that names ``owner``."""
    n = r.size
    principals, least = _least_generators(r)
    known = set(principals)
    _check_cap(len(known), owner)
    # (0) + P = P and R + P = R, so neither is a seed nor ever queued.
    seeds = [m for m in principals if m not in (1 << r.zero, (1 << n) - 1)]
    queue = list(seeds)
    # (seed, member) pairs, for marking the cosets each seed meets.
    flags = np.zeros((len(seeds), n), dtype=bool)
    for k, m in enumerate(seeds):
        flags[k, _indices(m)] = True
    seed_of, member = np.nonzero(flags)
    while queue:
        labels = _coset_labels(r, _indices(queue.pop()))
        meets = np.zeros((len(seeds), n), dtype=bool)
        meets[seed_of, labels[member]] = True
        # A seed inside I meets only the coset I itself; its sum is I.
        grows = np.count_nonzero(meets, axis=1) > 1
        for s in _packed_rows(meets[grows][:, labels]):
            if s not in known:
                known.add(s)
                queue.append(s)
                _check_cap(len(known), owner)
    return IdealLattice(r, _in_order(known), principals), least


def _primitive_idempotents(r: FiniteRing) -> list[int]:
    """The minimal nonzero idempotents under f <= e iff ef = f, ascending.
    Each nonzero idempotent e is below itself, so e is minimal when no
    other one is below it."""
    idx = np.arange(r.size)
    found = np.flatnonzero(r.mul[idx, idx] == idx)
    found = found[found != r.zero]
    below = [np.count_nonzero(r.mul[np.ix_(found[rows], found)] == found, axis=1)
             for rows in _row_blocks(len(found), len(found))]
    return found[np.concatenate(below) == 1].tolist()


def _local_factor(r: FiniteRing, e: int) -> tuple[FiniteRing, np.ndarray]:
    """The factor eR as a ring on the values of row e of ``mul`` in
    ascending order, with e as its one, and for each element x the index
    of e*x in it.  Zero is the least value, so it keeps index 0."""
    row = r.mul[e]
    seen = np.zeros(r.size, dtype=bool)
    seen[row] = True
    values = np.flatnonzero(seen)
    index = np.full(r.size, -1, dtype=np.int32)
    index[values] = np.arange(len(values), dtype=np.int32)
    grid = np.ix_(values, values)
    add, mul = index[r.add[grid]], index[r.mul[grid]]
    # Only a table that is not a ring, possible above the triple-check cap,
    # leaves eR by a sum or a product.
    if min(add.min(), mul.min()) < 0:
        raise RingError(f"the tables are not a ring: {r.labels[e]}*R is not "
                        f"closed under + and *")
    factor = FiniteRing(size=len(values), add=_owned(add), mul=_owned(mul),
                        one=int(index[e]))
    return factor, index[row]


def _preimages(masks: tuple[int, ...], index: np.ndarray, size: int) -> list[int]:
    """The mask of {x : index[x] in I} for each mask I over 0..size-1."""
    width = (size + 7) // 8
    out = []
    for rows in _row_blocks(len(masks), len(index)):
        raw = b"".join(m.to_bytes(width, "little") for m in masks[rows])
        flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width),
                              axis=1, bitorder="little")
        out += _packed_rows(flags[:, index])
    return out


def all_ideals(r: FiniteRing) -> IdealLattice:
    """Enumerate every ideal: by the closure on a local ring, else as the
    tuples of ideals of its local factors."""
    idempotents = _primitive_idempotents(r)
    if len(idempotents) == 1:
        return _closure(r, r)[0]
    count = 1
    # Per factor: the preimage of each of its ideals, the preimage of the
    # principal ideal of each least generator, and for each element x the
    # least generator of the factor's principal ideal R(e*x).
    factors = []
    for e in idempotents:
        factor, index = _local_factor(r, e)
        lattice, least = _closure(factor, r)
        count *= len(lattice)
        _check_cap(count, r)
        pre = _preimages(lattice.ideals, index, factor.size)
        pre_of = dict(zip(lattice.ideals, pre))
        factors.append((pre, {g: pre_of[m] for m, g in lattice.principals.items()},
                        least[index].tolist()))
        # The factor's tables go before the next factor's are built.
        del factor, lattice
    unit = (1 << r.size) - 1
    masks = [unit]
    for pre, _, _ in factors:
        masks = [m & p for m in masks for p in pre]
    # Rx is the tuple of the factor principal ideals R(e*x), each named by
    # its least generator; x is the least generator of Rx when no smaller
    # element gives the same tuple.
    first = {}
    for x, gens in enumerate(zip(*(least for _, _, least in factors))):
        first.setdefault(gens, x)
    principals = {}
    for gens, x in first.items():
        mask = unit
        for (_, principal_pre, _), g in zip(factors, gens):
            mask &= principal_pre[g]
        principals[mask] = x
    return IdealLattice(r, _in_order(masks), principals)


def sub_ideals(j: int, lattice: IdealLattice) -> list[int]:
    """All lattice members contained in j, including (0) and j itself."""
    return [i for i in lattice.ideals if i & ~j == 0]


def annihilating_ideals(lattice: IdealLattice) -> list[int]:
    """Nonzero ideals with nonzero annihilator, in lattice order."""
    zero = lattice.zero
    return [i for i, ann in zip(lattice.ideals, lattice.annihilators)
            if zero not in (i, ann)]


def name_ideal(ideal: int, lattice: IdealLattice) -> str:
    """Generator-based display name: "(x)", "(x,y)", or "I#k" past 2 generators."""
    r = lattice.ring
    x = lattice.principals.get(ideal)
    if x is not None:
        return f"({r.labels[x]})"
    # The first pair a < b of nonzero members, in member order, with
    # Ra + Rb = I.  A pair with a member that is not the least generator of
    # its principal ideal never comes first: the pair of least generators
    # has the same sum and comes earlier.  Ra + Rb lies in I, and
    # |Ra + Rb| = |Ra| |Rb| / |Ra & Rb| for subgroups, so counting decides it.
    size = ideal.bit_count()
    inside = [(g, m, m.bit_count()) for m, g in lattice.principals.items()
              if m & ~ideal == 0 and g != r.zero]
    for k, (a, ma, ca) in enumerate(inside):
        for b, mb, cb in inside[k + 1:]:
            if ca * cb == size * (ma & mb).bit_count():
                return f"({r.labels[a]},{r.labels[b]})"
    return f"I#{lattice.index_of(ideal)}"
