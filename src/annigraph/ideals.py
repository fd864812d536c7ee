"""Ideals of a finite commutative ring and the complete ideal lattice.

An ideal is stored as a bitmask over element indices, so membership is O(1)
and set algebra is a couple of word operations.

The principal ideal Rx is the value set of row x of the multiplication
table, so one scatter over the table gives the mask of every principal
ideal; the lattice keeps them (``IdealLattice.principals``) for naming
ideals and for annihilators.  ``all_ideals`` seeds the lattice with them and
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
whose mask contains the set is the smallest ideal containing it.  A product
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

from .rings import FiniteRing, RingError

# Abort lattice enumeration beyond this many ideals.
LATTICE_CAP = 100_000

# Most entries one transient table gather may hold; bounds memory near the
# ring size cap.
_GATHER_CAP = 1 << 20


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Ideal:
    """A subset of ring elements closed under + and under ring multiples."""

    ring: FiniteRing
    mask: int

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def is_unit(self) -> bool:
        return self.mask == (1 << self.ring.size) - 1

    def __contains__(self, element: int) -> bool:
        return bool(self.mask >> element & 1)

    def issubset(self, other: "Ideal") -> bool:
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of a ring, sorted by (cardinality, member list).

    ``principals`` maps the mask of each distinct principal ideal to its
    least generator, in generator order.
    """

    ring: FiniteRing
    ideals: tuple[Ideal, ...]
    principals: dict[int, int] = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_mask", {i.mask: k for k, i in enumerate(self.ideals)})

    def __len__(self) -> int:
        return len(self.ideals)

    def __iter__(self):
        return iter(self.ideals)

    def index_of(self, ideal: Ideal) -> int:
        return self._by_mask[ideal.mask]

    @property
    def zero(self) -> Ideal:
        return self.ideals[0]

    @property
    def unit(self) -> Ideal:
        return self.ideals[-1]

    def smallest_containing(self, mask: int) -> Ideal:
        """The smallest ideal containing the elements of ``mask``: the first
        in cardinality order whose mask contains them."""
        return next(i for i in self.ideals if mask & ~i.mask == 0)

    def _generators(self, ideal: Ideal) -> list[int]:
        """The least generators of the principal ideals inside ``ideal``,
        in generator order; their principal ideals sum to ``ideal``."""
        return [g for m, g in self.principals.items() if m & ~ideal.mask == 0]

    def product(self, i: Ideal, j: Ideal) -> Ideal:
        """IJ, the smallest ideal containing g*h over the generators g of I
        and h of J."""
        r = self.ring
        if i.ring != r or j.ring != r:
            raise RingError("ideal and lattice belong to different rings")
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


def _indices(mask: int, n: int) -> np.ndarray:
    """The element indices in a bitmask over n elements, ascending."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
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


def _least_generators(r: FiniteRing) -> dict[int, int]:
    """Each distinct principal ideal's mask -> its least generator, in
    generator order.  The mask of Rx is the value set of row x of ``mul``."""
    n = r.size
    flags = np.zeros((n, n), dtype=bool)
    for rows in _row_blocks(n, n):
        block = r.mul[rows]
        flags[rows][np.arange(len(block))[:, None], block] = True
    out = {}
    for x, mask in enumerate(_packed_rows(flags)):
        out.setdefault(mask, x)
    return out


def _coset_labels(r: FiniteRing, members: np.ndarray) -> np.ndarray:
    """label(z) = min(add[I, z]), the least element of I + z, for every element z;
    I is the subgroup of ``members``."""
    labels = np.full(r.size, r.size, dtype=np.int32)
    for rows in _row_blocks(len(members), r.size):
        np.minimum(labels, r.add[members[rows]].min(axis=0), out=labels)
    return labels


def _check_cap(known: set, r: FiniteRing):
    if len(known) > LATTICE_CAP:
        raise RingError(
            f"ideal lattice exceeds cap ({LATTICE_CAP}); "
            f"ring fingerprint {r.fingerprint[:12]}"
        )


def all_ideals(r: FiniteRing) -> IdealLattice:
    """Enumerate every ideal: principal seeds, then sums of found ideals and seeds."""
    n = r.size
    principals = _least_generators(r)
    known = set(principals)
    _check_cap(known, r)
    # (0) + P = P and R + P = R, so neither is a seed nor ever queued.
    seeds = [m for m in principals if m not in (1 << r.zero, (1 << n) - 1)]
    queue = list(seeds)
    # (seed, member) pairs, for marking the cosets each seed meets.
    flags = np.zeros((len(seeds), n), dtype=bool)
    for k, m in enumerate(seeds):
        flags[k, _indices(m, n)] = True
    seed_of, member = np.nonzero(flags)
    while queue:
        labels = _coset_labels(r, _indices(queue.pop(), n))
        meets = np.zeros((len(seeds), n), dtype=bool)
        meets[seed_of, labels[member]] = True
        # A seed inside I meets only the coset I itself; its sum is I.
        grows = np.count_nonzero(meets, axis=1) > 1
        for s in _packed_rows(meets[grows][:, labels]):
            if s not in known:
                known.add(s)
                queue.append(s)
                _check_cap(known, r)
    masks = sorted(known, key=lambda m: (m.bit_count(), tuple(_bits(m))))
    return IdealLattice(r, tuple(Ideal(r, m) for m in masks), principals)


def sub_ideals(j: Ideal, lattice: IdealLattice) -> list[Ideal]:
    """All lattice members contained in j, including (0) and j itself."""
    if j.ring != lattice.ring:
        raise RingError("ideal and lattice belong to different rings")
    return [i for i in lattice.ideals if i.mask & ~j.mask == 0]


def annihilating_ideals(lattice: IdealLattice) -> list[Ideal]:
    """Nonzero ideals with nonzero annihilator, in lattice order."""
    zero_mask = 1 << lattice.ring.zero
    return [i for i, ann in zip(lattice.ideals, lattice.annihilators)
            if zero_mask not in (i.mask, ann)]


def name_ideal(ideal: Ideal, lattice: IdealLattice) -> str:
    """Generator-based display name: "(x)", "(x,y)", or "I#k" past 2 generators."""
    r = ideal.ring
    x = lattice.principals.get(ideal.mask)
    if x is not None:
        return f"({r.labels[x]})"
    # The first pair a < b of nonzero members, in member order, with
    # Ra + Rb = I.  A pair with a member that is not the least generator of
    # its principal ideal never comes first: the pair of least generators
    # has the same sum and comes earlier.  Ra + Rb lies in I, and
    # |Ra + Rb| = |Ra| |Rb| / |Ra & Rb| for subgroups, so counting decides it.
    size = ideal.cardinality
    inside = [(g, m, m.bit_count()) for m, g in lattice.principals.items()
              if m & ~ideal.mask == 0 and g != r.zero]
    for k, (a, ma, ca) in enumerate(inside):
        for b, mb, cb in inside[k + 1:]:
            if ca * cb == size * (ma & mb).bit_count():
                return f"({r.labels[a]},{r.labels[b]})"
    return f"I#{lattice.index_of(ideal)}"


def lattice_to_json(lattice: IdealLattice) -> dict:
    return {
        "ring": lattice.ring.fingerprint,
        "ideals": [list(i.members) for i in lattice.ideals],
    }
