"""Executable checks over a ring corpus.

Each check quantifies a structural fact about local Artinian rings over its
applicability set inside one ring and reports pass, fail (with a witness),
or skipped (with the hypothesis that rules the ring out).  The suite runner
adds graph-shape recognizers for the star patterns that planar
annihilating-ideal graphs collapse to, genus verdicts for every corpus
graph, and a registry of facts whose hypotheses no finite ring can satisfy.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field

from .classify import RingClassification, classify, unique_minimal_ideal
from .genus import DEFAULT_NODE_BUDGET, euler_lower_bound, genus_exact, is_planar
from .graphs import SimpleGraph, build_ag
from .ideals import Ideal, IdealLattice, all_ideals, name_ideal, sub_ideals
from .rings import TRIPLE_CHECK_CAP, FiniteRing, validate_ring


@dataclass(frozen=True)
class CheckResult:
    """One check on one ring.  ``ring`` is the ring's name; ``source`` is the
    ring itself (None for checks that no ring reaches), kept out of the repr
    and of equality."""

    check: str
    ring: str
    source: FiniteRing | None = field(repr=False, compare=False)
    status: str  # pass | fail | skipped
    reason: str = ""
    witness: dict | None = None
    detail: str = ""

    @property
    def fingerprint(self) -> str | None:
        """The ring's fingerprint, hashed only when output asks for it."""
        return None if self.source is None else self.source.fingerprint

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _passed(check, ring, source, detail=""):
    return CheckResult(check, ring, source, "pass", detail=detail)


def _failed(check, ring, source, witness, detail=""):
    return CheckResult(check, ring, source, "fail", witness=witness, detail=detail)


def _skipped(check, ring, source, reason):
    return CheckResult(check, ring, source, "skipped", reason=reason)


def _nonzero_principals(r: FiniteRing, lattice: IdealLattice):
    """Distinct nonzero principal ideals, smallest generator first."""
    zero_mask = 1 << r.zero
    return [Ideal(r, m) for m in lattice.principals if m != zero_mask]


def check_subideal_count_lemma(r: FiniteRing, lattice: IdealLattice,
                               cls: RingClassification,
                               ring_name: str) -> list[CheckResult]:
    """For every level n and nonzero principal I below m^(n-1) but not m^n,
    the sub-ideal counts must satisfy |sub(I)| = |sub(I & m^n)| + 1."""
    name = "subideal_count"
    if not cls.is_local:
        return [_skipped(name, ring_name, r, "non-local ring")]
    if cls.is_field:
        return [_skipped(name, ring_name, r,
                         "field: no proper nonzero principal ideals")]
    chain = [lattice.unit, *cls.powers]  # chain[k] = m^k, chain[0] = R
    principals = _nonzero_principals(r, lattice)
    out = []
    for n in range(1, cls.t + 2):
        upper = chain[n - 1]
        lower = chain[n]
        for ideal in principals:
            if not ideal.issubset(upper) or ideal.issubset(lower):
                continue
            lhs = len(sub_ideals(ideal, lattice))
            meet = Ideal(r, ideal.mask & lower.mask)
            rhs = len(sub_ideals(meet, lattice)) + 1
            label = name_ideal(ideal, lattice)
            detail = f"n={n} I={label}: |sub(I)|={lhs}, |sub(I&m^n)|+1={rhs}"
            if lhs == rhs:
                out.append(_passed(name, ring_name, r, detail))
            else:
                out.append(_failed(name, ring_name, r,
                                   {"n": n, "ideal": label, "lhs": lhs, "rhs": rhs},
                                   detail))
    return out


def check_socle_containment_lemma(r: FiniteRing, lattice: IdealLattice,
                                  cls: RingClassification,
                                  ring_name: str) -> list[CheckResult]:
    """In a local Gorenstein ring, a principal ideal with exactly three
    sub-ideals is annihilated by m^2."""
    name = "socle_containment"
    if not cls.is_local:
        return [_skipped(name, ring_name, r, "non-local ring")]
    if cls.is_field:
        return [_skipped(name, ring_name, r, "field: no applicable principal ideals")]
    if not cls.is_gorenstein:
        return [_skipped(name, ring_name, r,
                         f"not Gorenstein (socle dimension {cls.socle_dim})")]
    m2 = cls.powers[1]
    zero_mask = 1 << r.zero
    out = []
    for ideal in _nonzero_principals(r, lattice):
        if len(sub_ideals(ideal, lattice)) != 3:
            continue
        label = name_ideal(ideal, lattice)
        prod = lattice.product(m2, ideal)
        detail = f"I={label}: m^2*I = {name_ideal(prod, lattice)}"
        if prod.mask == zero_mask:
            out.append(_passed(name, ring_name, r, detail))
        else:
            out.append(_failed(name, ring_name, r, {"ideal": label,
                                                "product": list(prod.members)}, detail))
    if not out:
        out.append(_passed(name, ring_name, r,
                           "vacuous: no principal ideal with exactly 3 sub-ideals"))
    return out


def check_spir_chain_lemma(r: FiniteRing, lattice: IdealLattice,
                           cls: RingClassification,
                           ring_name: str) -> CheckResult:
    """Where some m^n/m^(n+1) is one-dimensional, everything below m^n must be
    a power of m; at n = 1 the whole ring must be a special principal ideal ring."""
    name = "spir_chain"
    if not cls.is_local:
        return _skipped(name, ring_name, r, "non-local ring")
    if cls.is_field:
        return _passed(name, ring_name, r, "vacuous: field has no chain levels")
    chain = [lattice.unit, *cls.powers]  # chain[k] = m^k
    zero_mask = 1 << r.zero
    checked = []
    for n in range(1, cls.t + 1):
        if cls.vdim_profile[n - 1] != 1:
            continue
        expected = {chain[i].mask for i in range(n, cls.t + 1)}
        actual = {i.mask for i in sub_ideals(chain[n], lattice) if i.mask != zero_mask}
        if actual != expected:
            return _failed(name, ring_name, r, {
                "n": n,
                "expected": sorted(name_ideal(Ideal(r, m), lattice) for m in expected),
                "actual": sorted(name_ideal(Ideal(r, m), lattice) for m in actual),
            }, f"n={n}: sub-ideals of m^{n} are not the chain of powers")
        if n == 1 and not cls.is_spir:
            return _failed(name, ring_name, r, {"n": 1, "is_spir": False},
                           "v.dim m/m^2 = 1 but ring not flagged SPIR")
        checked.append(n)
    if checked:
        return _passed(name, ring_name, r,
                       "chain levels verified at n=" + ",".join(map(str, checked)))
    return _passed(name, ring_name, r, "vacuous: no level with v.dim 1")


def check_unique_minimal_and_socle(r: FiniteRing, lattice: IdealLattice,
                                   cls: RingClassification,
                                   ring_name: str) -> CheckResult:
    """Local Gorenstein non-fields: Ann(m) = m^t and m^t is the unique minimal ideal."""
    name = "unique_minimal_socle"
    if not cls.is_local:
        return _skipped(name, ring_name, r, "non-local ring")
    if cls.is_field:
        return _skipped(name, ring_name, r, "field: zero ideal is maximal")
    if not cls.is_gorenstein:
        return _skipped(name, ring_name, r,
                        f"not Gorenstein (socle dimension {cls.socle_dim})")
    mt = cls.powers[cls.t - 1]
    minimal = unique_minimal_ideal(lattice)
    ok_socle = cls.socle.mask == mt.mask
    ok_min = minimal is not None and minimal.mask == mt.mask
    detail = (f"socle={name_ideal(cls.socle, lattice)} m^t={name_ideal(mt, lattice)} "
              f"unique_minimal={'none' if minimal is None else name_ideal(minimal, lattice)}")
    if ok_socle and ok_min:
        return _passed(name, ring_name, r, detail)
    return _failed(name, ring_name, r, {
        "socle": list(cls.socle.members),
        "m_power_t": list(mt.members),
        "unique_minimal": None if minimal is None else list(minimal.members),
    }, detail)


@dataclass(frozen=True)
class ShapeMatch:
    """Role assignment for a recognized star pattern."""

    kind: str
    centers: tuple[int, ...]
    leaves: tuple[int, ...]
    matching: tuple[tuple[int, int], ...] = ()


def match_shape(g: SimpleGraph, kind: str) -> ShapeMatch | None:
    """Recognize the two planar star families.

    double_star: two centers (optionally adjacent); every other vertex has
    degree 1 or 2 and is adjacent only to centers.  star_with_matching: one
    center adjacent to all other vertices; the remaining edges form a
    partial matching among the leaves.  Returns the first assignment in
    vertex order, or None.
    """
    n = g.n_vertices
    adj = g.adjacency
    if kind == "star_with_matching":
        for c in range(n):
            if len(adj[c]) != n - 1:
                continue
            rest = [v for v in range(n) if v != c]
            matching = [(u, v) for u, v in g.edges if u != c and v != c]
            matched = [w for e in matching for w in e]
            if len(matched) == len(set(matched)):
                return ShapeMatch(kind, (c,), tuple(rest), tuple(matching))
        return None
    if kind == "double_star":
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                centers = {c1, c2}
                ok = True
                for v in range(n):
                    if v in centers:
                        continue
                    if not adj[v] or not adj[v] <= centers:
                        ok = False
                        break
                if ok:
                    leaves = tuple(v for v in range(n) if v not in centers)
                    return ShapeMatch(kind, (c1, c2), leaves)
        return None
    raise ValueError(f"unknown shape kind: {kind}")


# Facts whose hypotheses no finite ring can satisfy.  They are reported as
# skipped-by-design so corpus reports show what desk-scale checking cannot
# reach, and why.
UNREACHABLE_FACTS = (
    ("vdim_collapse_long_chains",
     "requires an infinite residue field and nilpotency index t >= 5; "
     "no finite ring satisfies the hypotheses"),
    ("vector_space_finite_cover",
     "requires a vector space over an infinite field; vector spaces over "
     "finite fields are finite unions of proper subspaces"),
    ("noetherian_artinian_equivalence",
     "distinguishes Noetherian from Artinian rings; every finite ring is "
     "both, so the corpus is Artinian throughout and cannot exercise it"),
    ("infinite_ideal_family_branches",
     "requires rings with infinitely many ideals (infinite residue field); "
     "the finite analogs are covered by the t2/t3 star-shape checks"),
)


def _shape_checks(ring_name, r, cls, ag, find_shape, solve_genus,
                  check_planar) -> list[CheckResult]:
    out = []

    name = "t1_two_proper_ideals"
    if cls.is_local and cls.is_gorenstein and not cls.is_field and cls.t == 1:
        detail = f"ideal_count={cls.ideal_count}"
        if cls.ideal_count == 3:
            out.append(_passed(name, ring_name, r, detail))
        else:
            out.append(_failed(name, ring_name, r,
                               {"ideal_count": cls.ideal_count}, detail))
    else:
        out.append(_skipped(name, ring_name, r,
                            "needs a local Gorenstein non-field with t = 1"))

    for name, t_wanted, profile, kind in (
        ("t2_star_with_matching_analog", 2, (2, 1), "star_with_matching"),
        ("t3_double_star_analog", 3, (2, 1, 1), "double_star"),
    ):
        applicable = (cls.is_local and cls.is_gorenstein and not cls.is_field
                      and cls.t == t_wanted and cls.vdim_profile == profile)
        if not applicable:
            out.append(_skipped(name, ring_name, r,
                                f"needs local Gorenstein, t = {t_wanted}, "
                                f"v.dim profile {list(profile)}"))
            continue
        matched = find_shape(kind)
        if matched is None:
            out.append(_failed(name, ring_name, r,
                               {"edges": [list(e) for e in ag.edges]},
                               f"graph does not match {kind}"))
            continue
        res = solve_genus()
        if not res.exact:
            out.append(_skipped(name, ring_name, r, "genus budget exhausted"))
        elif res.upper != 0:
            out.append(_failed(name, ring_name, r, {"genus": res.upper},
                               f"{kind} matched but genus = {res.upper}"))
        else:
            center = ag.vertices[matched.centers[0]]
            out.append(_passed(name, ring_name, r,
                               f"{kind} centered at {center}, genus 0 "
                               f"({len(matched.leaves)} leaves)"))

    name = "shape_implies_planar"
    hit = find_shape("star_with_matching") or find_shape("double_star")
    if hit is None:
        out.append(_passed(name, ring_name, r, "no shape match"))
    elif check_planar():
        out.append(_passed(name, ring_name, r, f"{hit.kind} match and planar"))
    else:
        out.append(_failed(name, ring_name, r,
                           {"kind": hit.kind, "edges": [list(e) for e in ag.edges]},
                           f"{hit.kind} matched but graph is non-planar"))
    return out


def _genus_checks(ring_name, r, ag, solve_genus, check_planar) -> list[CheckResult]:
    res = solve_genus()
    if not res.exact:
        reason = "budget exhausted on genus computation"
        return [_skipped("ag_genus", ring_name, r, reason),
                _skipped("euler_bound_le_genus", ring_name, r, reason),
                _skipped("planar_iff_genus_zero", ring_name, r, reason)]
    g = res.upper
    out = [_passed("ag_genus", ring_name, r, f"genus={g}")]
    lb = euler_lower_bound(ag)
    if lb <= g:
        out.append(_passed("euler_bound_le_genus", ring_name, r, f"{lb} <= {g}"))
    else:
        out.append(_failed("euler_bound_le_genus", ring_name, r,
                           {"euler": lb, "genus": g}, f"{lb} > {g}"))
    planar = check_planar()
    if planar == (g == 0):
        out.append(_passed("planar_iff_genus_zero", ring_name, r,
                           f"planar={planar} genus={g}"))
    else:
        out.append(_failed("planar_iff_genus_zero", ring_name, r,
                           {"planar": planar, "genus": g},
                           f"planar={planar} but genus={g}"))
    return out


SUITE_SELECTORS = ("lemmas", "shapes", "genus", "all")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    results: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for res in self.results:
            out[res.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def to_text(self) -> str:
        lines = []
        for res in self.results:
            tag = res.status.upper()
            extra = res.detail or res.reason
            lines.append(f"[{tag:>7}] {res.check} :: {res.ring}"
                         + (f" :: {extra}" if extra else ""))
        c = self.counts
        lines.append(f"summary: {c['pass']} pass, {c['fail']} fail, "
                     f"{c['skipped']} skipped")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = [
            {
                "check": res.check,
                "ring": res.ring,
                "fingerprint": res.fingerprint,
                "status": res.status,
                "reason": res.reason,
                "witness": res.witness,
                "detail": res.detail,
            }
            for res in self.results
        ]
        return json.dumps({"suite": self.suite, "results": payload,
                           "counts": self.counts}, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "ring", "status", "reason_or_detail"])
        for res in self.results:
            writer.writerow([res.check, res.ring, res.status,
                             res.detail or res.reason])
        return buf.getvalue()


def run_suite(corpus=None, suite: str = "all", *,
              node_budget: int | None = DEFAULT_NODE_BUDGET,
              time_budget_ms: int | None = None) -> SuiteReport:
    """Run the selected checks over a corpus of (name, ring) pairs.

    ``corpus`` defaults to the frozen built-in corpus.  Results keep corpus
    order; rings whose tables fail the axiom check report the witness and
    skip their downstream checks.  Genus searches stop at ``node_budget``
    nodes; ``time_budget_ms`` adds a machine-dependent cut, off by default.
    """
    if suite not in SUITE_SELECTORS:
        raise ValueError(f"unknown suite selector {suite!r}; "
                         f"choose from {', '.join(SUITE_SELECTORS)}")
    if corpus is None:
        from .specs import builtin_corpus
        corpus = builtin_corpus()
    budgets = {"node_budget": node_budget, "time_budget_ms": time_budget_ms}

    want = {"lemmas", "shapes", "genus"} if suite == "all" else {suite}
    results: list[CheckResult] = []

    for name, ring in corpus:
        report = validate_ring(ring)
        if not report.ok:
            results.append(_failed("ring_axioms", name, ring,
                                   {"axiom": report.axiom,
                                    "witness": list(report.witness)},
                                   f"{report.axiom} fails at {report.witness}"))
            continue
        detail = ("" if report.triples_checked else
                  f"triple axioms not checked above {TRIPLE_CHECK_CAP} elements")
        results.append(_passed("ring_axioms", name, ring, detail))
        lattice = all_ideals(ring)
        cls = classify(ring, lattice)
        if "lemmas" in want:
            results.extend(check_subideal_count_lemma(ring, lattice, cls, name))
            results.extend(check_socle_containment_lemma(ring, lattice, cls, name))
            results.append(check_spir_chain_lemma(ring, lattice, cls, name))
            results.append(check_unique_minimal_and_socle(ring, lattice, cls, name))
        if "shapes" in want or "genus" in want:
            ag = build_ag(ring, lattice)
            # Matched, solved and tested at most once per ring, and only when
            # a check asks.
            find_shape = functools.cache(functools.partial(match_shape, ag))
            solve_genus = functools.cache(lambda: genus_exact(ag, **budgets))
            check_planar = functools.cache(lambda: is_planar(ag))
            if "shapes" in want:
                results.extend(_shape_checks(name, ring, cls, ag, find_shape,
                                             solve_genus, check_planar))
            if "genus" in want:
                results.extend(_genus_checks(name, ring, ag, solve_genus,
                                             check_planar))

    if "lemmas" in want:
        for check, hypothesis in UNREACHABLE_FACTS:
            results.append(_skipped(check, "-", None, hypothesis))

    return SuiteReport(suite, tuple(results))
