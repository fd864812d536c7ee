"""Ideals of a finite commutative ring and the complete ideal lattice.

An ideal is stored as a bitmask over element indices, so membership is O(1)
and set algebra is a couple of word operations.  Sums and products of ideals
come from one gather over the ring's tables (``_image``).  The lattice is
generated by seeding with all principal ideals and closing under pairwise
sums, which is complete because every ideal of a finite unital ring is a
finite sum of principal ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import FiniteRing, RingError

# Abort lattice enumeration beyond this many ideals.
LATTICE_CAP = 100_000


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
    def is_zero(self) -> bool:
        return self.mask == 1 << self.ring.zero

    @property
    def is_unit(self) -> bool:
        return self.mask == (1 << self.ring.size) - 1

    def __contains__(self, element: int) -> bool:
        return bool(self.mask >> element & 1)

    def issubset(self, other: "Ideal") -> bool:
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of a ring, sorted by (cardinality, member list)."""

    ring: FiniteRing
    ideals: tuple[Ideal, ...]

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


def _require_same_ring(i: Ideal, j: Ideal):
    if i.ring != j.ring:
        raise RingError("ideals belong to different rings")


def _indices(mask: int, n: int) -> np.ndarray:
    """The element indices in a bitmask over n elements, ascending."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _pack(flags: np.ndarray) -> int:
    """The bitmask of a boolean array over element indices."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _image(table: np.ndarray, m1: int, m2: int) -> int:
    """Mask of {table[a, b] : a in m1, b in m2}.

    With the addition table this is the sumset m1 + m2; with the
    multiplication table, the set of pairwise products.
    """
    n = len(table)
    flags = np.zeros(n, dtype=bool)
    flags[table[np.ix_(_indices(m1, n), _indices(m2, n))]] = True
    return _pack(flags)


def principal_ideal(r: FiniteRing, x: int) -> Ideal:
    """Rx, the set of ring multiples of x (an ideal since r is commutative unital)."""
    if not (0 <= x < r.size):
        raise RingError(f"element index {x} out of range")
    return Ideal(r, _image(r.mul, (1 << r.size) - 1, 1 << x))


def _close_under_add(r: FiniteRing, mask: int) -> int:
    while True:
        new = mask | _image(r.add, mask, mask)
        if new == mask:
            return mask
        mask = new


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    """I + J = {a + b}; already an ideal, no closure pass needed."""
    _require_same_ring(i, j)
    return Ideal(i.ring, _image(i.ring.add, i.mask, j.mask))


def ideal_intersection(i: Ideal, j: Ideal) -> Ideal:
    _require_same_ring(i, j)
    return Ideal(i.ring, i.mask & j.mask)


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """The ideal generated by pairwise products: close {a*b} under addition."""
    _require_same_ring(i, j)
    return Ideal(i.ring, _close_under_add(i.ring, _image(i.ring.mul, i.mask, j.mask)))


def ideal_power(i: Ideal, k: int) -> Ideal:
    if k < 1:
        raise RingError("ideal powers need exponent >= 1")
    out = i
    for _ in range(k - 1):
        nxt = ideal_product(out, i)
        if nxt.mask == out.mask:
            return nxt
        out = nxt
    return out


def annihilator(i: Ideal) -> Ideal:
    """Ann(I) = {a : a*x = 0 for every x in I}; always an ideal."""
    r = i.ring
    members = _indices(i.mask, r.size)
    return Ideal(r, _pack((r.mul[:, members] == r.zero).all(axis=1)))


def all_ideals(r: FiniteRing, cap: int = LATTICE_CAP) -> IdealLattice:
    """Enumerate every ideal: principal seeds, then pairwise-sum closure."""
    seeds = {principal_ideal(r, x).mask for x in range(r.size)}
    known = set(seeds)
    queue = sorted(seeds)
    if len(known) > cap:
        raise RingError(
            f"ideal lattice exceeds cap ({cap}); "
            f"ring fingerprint {r.fingerprint[:12]}"
        )
    while queue:
        m1 = queue.pop()
        for m2 in list(known):
            if (m1 | m2) in (m1, m2):
                continue  # nested ideals: the sum is the larger, already known
            s = _image(r.add, m1, m2)
            if s not in known:
                known.add(s)
                queue.append(s)
                if len(known) > cap:
                    raise RingError(
                        f"ideal lattice exceeds cap ({cap}); "
                        f"ring fingerprint {r.fingerprint[:12]}"
                    )
    masks = sorted(known, key=lambda m: (m.bit_count(), tuple(_bits(m))))
    return IdealLattice(r, tuple(Ideal(r, m) for m in masks))


def sub_ideals(j: Ideal, lattice: IdealLattice) -> list[Ideal]:
    """All lattice members contained in j, including (0) and j itself."""
    if j.ring != lattice.ring:
        raise RingError("ideal and lattice belong to different rings")
    return [i for i in lattice.ideals if i.mask & ~j.mask == 0]


def annihilating_ideals(lattice: IdealLattice) -> list[Ideal]:
    """Nonzero ideals with nonzero annihilator, in lattice order."""
    zero_mask = 1 << lattice.ring.zero
    out = []
    for i in lattice.ideals:
        if i.mask == zero_mask:
            continue
        if annihilator(i).mask != zero_mask:
            out.append(i)
    return out


def name_ideal(ideal: Ideal, lattice: IdealLattice | None = None) -> str:
    """Generator-based display name: "(x)", "(x,y)", or "I#k" past 2 generators."""
    r = ideal.ring
    members = ideal.members
    for x in members:
        if principal_ideal(r, x).mask == ideal.mask:
            return f"({r.labels[x]})"
    nonzero = [x for x in members if x != r.zero]
    for ai, a in enumerate(nonzero):
        pa = principal_ideal(r, a)
        for b in nonzero[ai + 1:]:
            if ideal_sum(pa, principal_ideal(r, b)).mask == ideal.mask:
                return f"({r.labels[a]},{r.labels[b]})"
    if lattice is not None:
        return f"I#{lattice.index_of(ideal)}"
    return f"I#{ideal.mask:x}"


def ideal_to_json(i: Ideal) -> dict:
    return {"ring": i.ring.fingerprint, "members": list(i.members)}


def lattice_to_json(lattice: IdealLattice) -> dict:
    return {
        "ring": lattice.ring.fingerprint,
        "ideals": [list(i.members) for i in lattice.ideals],
    }
