"""Ring-spec grammar, the built-in catalog, and the frozen verification corpus.

Grammar (whitespace-free):

    zn:<n>                      integers mod n
    gf:<p>:<c0,c1,...,1>        field Z_p[x]/(f), f monic given low degree
                                first; rejected if the quotient is not a field
    polyq:<p>:<c0,c1,...,1>     Z_p[x]/(f) without the field requirement
    prod:(<spec>,<spec>)        direct product; nests
    sc:<path>                   structure-constant JSON file
    table:<path>                ring table JSON file
    cat:<name>                  built-in catalog (rings, k<n>, km:<m>:<n>)

Inside gf/polyq coefficient lists, a comma followed by a digit continues the
list; a comma followed by anything else closes it (so products like
``prod:(gf:2:1,1,1,zn:2)`` parse).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import complete_bipartite, complete_graph
from .rings import (
    MAX_RING_SIZE,
    FiniteRing,
    RingError,
    make_poly_quotient,
    make_product,
    make_structure_constants,
    make_zn,
    ring_from_json,
    ring_from_sc_json,
    validate_ring,
)


class SpecParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class RingSpec:
    """A parsed constructor expression; ``build`` resolves it."""

    text: str
    kind: str
    args: tuple

    def __str__(self) -> str:
        return self.text

    def build(self):
        return _build(self)


def _sc_table_quadratic():
    """Structure constants for Z_p[x,y]/(x^2, y^2) on the basis 1, x, y, xy."""
    e = lambda i: [1 if j == i else 0 for j in range(4)]
    zero = [0, 0, 0, 0]
    return [
        [e(0), e(1), e(2), e(3)],
        [e(1), zero, e(3), zero],
        [e(2), e(3), zero, zero],
        [e(3), zero, zero, zero],
    ]


def _sc_table_square_zero():
    """Structure constants for Z_p[x,y]/(x^2, xy, y^2) on the basis 1, x, y."""
    e = lambda i: [1 if j == i else 0 for j in range(3)]
    zero = [0, 0, 0]
    return [
        [e(0), e(1), e(2)],
        [e(1), zero, zero],
        [e(2), zero, zero],
    ]


_CATALOG_RINGS = {
    "f4": lambda: make_poly_quotient(2, (1, 1, 1)),
    "f8": lambda: make_poly_quotient(2, (1, 1, 0, 1)),
    "f9": lambda: make_poly_quotient(3, (1, 0, 1)),
    "f3x_x2": lambda: make_poly_quotient(3, (0, 0, 1)),
    "f2x_x3": lambda: make_poly_quotient(2, (0, 0, 0, 1)),
    "f2xy_x2y2": lambda: make_structure_constants(
        2, 4, ("1", "x", "y", "xy"), _sc_table_quadratic()),
    "f3xy_x2y2": lambda: make_structure_constants(
        3, 4, ("1", "x", "y", "xy"), _sc_table_quadratic()),
    "f2xy_x2xyy2": lambda: make_structure_constants(
        2, 3, ("1", "x", "y"), _sc_table_square_zero()),
}

_GRAPH_COMPLETE = re.compile(r"^k([0-9]+)$")
_GRAPH_BIPARTITE = re.compile(r"^km:([0-9]+):([0-9]+)$")

# A product nested n levels deep has at least n + 1 factors of two or more
# elements, so at 12 levels it exceeds MAX_RING_SIZE (2^13 > 4096).  The
# parser refuses such nesting before its recursion can run out of stack.
_PROD_LEVELS_OVER_CAP = MAX_RING_SIZE.bit_length() - 1


def catalog_names() -> list[str]:
    return sorted(_CATALOG_RINGS) + ["k<n>", "km:<m>:<n>"]


def _catalog_build(name: str):
    if name in _CATALOG_RINGS:
        return _CATALOG_RINGS[name]()
    try:
        m = _GRAPH_COMPLETE.match(name)
        if m:
            return complete_graph(int(m.group(1)))
        m = _GRAPH_BIPARTITE.match(name)
        if m:
            return complete_bipartite(int(m.group(1)), int(m.group(2)))
    except ValueError as exc:
        raise RingError(f"cat:{name}: {exc}") from None
    raise RingError(
        f"unknown catalog name {name!r}; available: {', '.join(catalog_names())}"
    )


def _parse_int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and "0" <= s[j] <= "9":  # ASCII; isdigit() takes "²"
        j += 1
    if j == i:
        raise SpecParseError("expected an integer", i)
    try:
        return int(s[i:j]), j
    except ValueError:  # past the interpreter's int-string digit limit
        raise SpecParseError(f"integer of {j - i} digits is too long", i) from None


def _parse_coeffs(s: str, i: int) -> tuple[tuple[int, ...], int]:
    coeffs = []
    val, i = _parse_int(s, i)
    coeffs.append(val)
    while i < len(s) and s[i] == "," and i + 1 < len(s) and "0" <= s[i + 1] <= "9":
        val, i = _parse_int(s, i + 1)
        coeffs.append(val)
    return tuple(coeffs), i


def _parse_path(s: str, i: int) -> tuple[str, int]:
    j = i
    while j < len(s) and s[j] not in ",)":
        j += 1
    if j == i:
        raise SpecParseError("expected a file path", i)
    return s[i:j], j


def _parse_spec(s: str, i: int, depth: int = 0) -> tuple[RingSpec, int]:
    for prefix in ("zn:", "gf:", "polyq:", "prod:(", "sc:", "table:", "cat:"):
        if s.startswith(prefix, i):
            break
    else:
        raise SpecParseError(
            "expected one of zn:, gf:, polyq:, prod:(, sc:, table:, cat:", i)
    start = i
    i += len(prefix)
    if prefix == "zn:":
        n, i = _parse_int(s, i)
        return RingSpec(s[start:i], "zn", (n,)), i
    if prefix in ("gf:", "polyq:"):
        p, i = _parse_int(s, i)
        if i >= len(s) or s[i] != ":":
            raise SpecParseError("expected ':' before the coefficient list", i)
        coeffs, i = _parse_coeffs(s, i + 1)
        return RingSpec(s[start:i], prefix[:-1], (p, coeffs)), i
    if prefix == "prod:(":
        if depth + 1 == _PROD_LEVELS_OVER_CAP:
            raise SpecParseError(
                f"products nested {_PROD_LEVELS_OVER_CAP} deep exceed the ring "
                f"size cap of {MAX_RING_SIZE}", start)
        left, i = _parse_spec(s, i, depth + 1)
        if i >= len(s) or s[i] != ",":
            raise SpecParseError("expected ',' between product factors", i)
        right, i = _parse_spec(s, i + 1, depth + 1)
        if i >= len(s) or s[i] != ")":
            raise SpecParseError("expected ')' closing the product", i)
        i += 1
        return RingSpec(s[start:i], "prod", (left, right)), i
    if prefix in ("sc:", "table:"):
        path, i = _parse_path(s, i)
        return RingSpec(s[start:i], prefix[:-1], (path,)), i
    path, i = _parse_path(s, i)
    return RingSpec(s[start:i], "cat", (path,)), i


def parse_ring_spec(s: str) -> RingSpec:
    """Parse a constructor expression; errors cite the offending position."""
    if not s:
        raise SpecParseError("empty ring spec", 0)
    blank = next((i for i, c in enumerate(s) if c.isspace()), None)
    if blank is not None:
        raise SpecParseError("ring specs are whitespace-free", blank)
    spec, i = _parse_spec(s, 0)
    if i != len(s):
        raise SpecParseError(f"unexpected trailing input {s[i:]!r}", i)
    return spec


def _build(spec: RingSpec):
    if spec.kind == "zn":
        return make_zn(spec.args[0])
    if spec.kind in ("gf", "polyq"):
        p, coeffs = spec.args
        ring = make_poly_quotient(p, coeffs)
        if spec.kind == "gf":
            witness = _zero_divisor(ring)
            if witness is not None:
                a, b = witness
                raise RingError(
                    f"gf: quotient is not a field: {ring.labels[a]} * "
                    f"{ring.labels[b]} = 0 (polynomial is reducible)")
        return ring
    if spec.kind == "prod":
        left = spec.args[0].build()
        right = spec.args[1].build()
        if not isinstance(left, FiniteRing) or not isinstance(right, FiniteRing):
            raise RingError("prod: both factors must be rings, not graphs")
        return make_product(left, right)
    if spec.kind in ("sc", "table"):
        path = spec.args[0]
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # Not UTF-8, not JSON, an integer over the int-string limit
                # (all ValueError), or arrays nested deeper than the stack.
                raise RingError(f"cannot decode {spec.kind} file {path}: {exc}") from exc
        ring = ring_from_sc_json(data) if spec.kind == "sc" else ring_from_json(data)
        report = validate_ring(ring)
        if not report.ok:
            raise RingError(f"loaded table is not a ring: {report.axiom} "
                            f"fails at {report.witness}")
        return ring
    return _catalog_build(spec.args[0])


def _zero_divisor(r: FiniteRing):
    """The first pair a <= b of nonzero elements with a*b = 0, or None."""
    kills = np.triu(r.mul == r.zero)
    kills[r.zero, :] = kills[:, r.zero] = False
    hits = np.argwhere(kills)
    return tuple(hits[0]) if len(hits) else None


# The frozen verification corpus: fields, SPIRs, Gorenstein non-SPIR,
# non-Gorenstein, and non-local rings.
CORPUS_SPEC_STRINGS = (
    "zn:4", "zn:6", "zn:8", "zn:9", "zn:12", "zn:16", "zn:18", "zn:24",
    "zn:27", "zn:30", "zn:36", "zn:49", "zn:64",
    "prod:(zn:2,zn:2)", "prod:(zn:2,zn:4)", "prod:(zn:3,zn:3)",
    "cat:f4", "cat:f8",
    "cat:f3x_x2", "cat:f2x_x3",
    "cat:f2xy_x2y2", "cat:f2xy_x2xyy2", "cat:f3xy_x2y2",
)


@lru_cache(maxsize=1)
def builtin_corpus() -> tuple[tuple[str, FiniteRing], ...]:
    return tuple(
        (text, parse_ring_spec(text).build()) for text in CORPUS_SPEC_STRINGS
    )


def corpus_file_name(spec_text: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9]+", "_", spec_text).strip("_")
    return f"{safe}.json"
