"""Ring-theoretic invariants of a finite commutative ring.

Computes maximal ideals and locality, and for local rings the nilpotency
index t of the maximal ideal (m^t != 0, m^(t+1) = 0), the residue field
size q, the dimension profile of the chain m/m^2, m^2/m^3, ..., the socle
Ann(m), and the Gorenstein and special-principal-ideal-ring predicates.
Every finite commutative ring is Artinian, so the local machinery always
applies when the ring is local.  Ideals are lattice masks (see ``ideals``),
so inclusion is one AND and equality is ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ideals import IdealLattice
from .rings import FiniteRing, RingError, _prime_power


def _power_exponent(value: int, base: int):
    """d with value = base^d, or None."""
    d = 0
    while value > 1:
        if value % base:
            return None
        value //= base
        d += 1
    return d if value == 1 else None


@dataclass(frozen=True)
class RingClassification:
    """Classification record; local-only fields are None for non-local rings.

    ``maximal_ideals``, ``m``, ``powers`` and ``socle`` hold ideal masks.
    ``powers`` is [m, m^2, ..., m^t, (0)] for a local ring (``powers[k]`` is
    m^(k+1)), computed once here for the checks that read them.  A field is
    the local ring with m = (0); the local computation then gives t = 0,
    powers = ((0),), q = |R|, socle = Ann((0)) = R of dimension 1, and
    Gorenstein and SPIR true.  ``is_field`` is set so downstream checks can
    special-case fields.
    """

    ideal_count: int
    maximal_ideals: tuple[int, ...]
    is_local: bool
    is_field: bool = False
    m: int | None = None
    t: int = 0
    powers: tuple[int, ...] = field(default=(), repr=False)
    residue_size: int | None = None
    vdim_profile: tuple[int, ...] = ()
    socle: int | None = None
    socle_dim: int | None = None
    is_gorenstein: bool | None = None
    is_spir: bool | None = None


def classify(r: FiniteRing, lattice: IdealLattice) -> RingClassification:
    """Full classification from a complete lattice."""
    # Largest first: a proper ideal that is not maximal lies in a strictly
    # larger maximal ideal, which the scan has already kept.
    maximal = ()
    for i in reversed(lattice.ideals[:-1]):
        if all(i & ~j for j in maximal):
            maximal = (i, *maximal)
    count = len(lattice)
    if len(maximal) != 1:
        return RingClassification(
            ideal_count=count,
            maximal_ideals=maximal,
            is_local=False,
        )

    m = maximal[0]
    q, rem = divmod(r.size, m.bit_count())
    if rem != 0 or _prime_power(q) is None:
        raise RingError(f"residue size {r.size}/{m.bit_count()} is not a prime power; "
                        "input is not a valid local ring")

    powers = [m]
    while powers[-1] != lattice.zero:
        powers.append(lattice.product(powers[-1], m))
        if len(powers) > r.size:
            raise RingError("maximal ideal is not nilpotent; input ring is invalid")
    t = len(powers) - 1  # powers[k] = m^(k+1); powers[t] = m^(t+1) = (0)

    profile = []
    for k in range(t):
        num, den = powers[k].bit_count(), powers[k + 1].bit_count()
        d = _power_exponent(num // den, q)
        if d is None or num % den:
            raise RingError(f"|m^{k + 1}/m^{k + 2}| is not a power of q={q}")
        profile.append(d)

    socle = lattice.annihilators[lattice.index_of(m)]
    socle_dim = _power_exponent(socle.bit_count(), q)
    if socle_dim is None:
        raise RingError("socle size is not a power of the residue size")

    is_spir = set(lattice.ideals) == {*powers, lattice.unit}

    return RingClassification(
        ideal_count=count,
        maximal_ideals=maximal,
        is_local=True,
        is_field=m == lattice.zero,
        m=m,
        t=t,
        powers=tuple(powers),
        residue_size=q,
        vdim_profile=tuple(profile),
        socle=socle,
        socle_dim=socle_dim,
        is_gorenstein=socle_dim == 1,
        is_spir=is_spir,
    )


def unique_minimal_ideal(lattice: IdealLattice) -> int | None:
    """The unique minimal nonzero proper ideal, or None if there are zero or
    several.  Fields have no nonzero proper ideals, so they return None."""
    minimal = []
    for i in lattice.ideals[1:-1]:  # smallest first, the mirror of classify
        if all(j & ~i for j in minimal):
            minimal.append(i)
    return minimal[0] if len(minimal) == 1 else None
