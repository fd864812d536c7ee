"""Executable checks over a ring corpus.

Each check quantifies a structural fact about local Artinian rings over its
applicability set inside one ring and yields outcomes (check, status, text,
witness): pass, fail (with a witness), or skipped (with the hypothesis that
rules the ring out).  ``run_suite`` runs them with graph-shape recognizers
for the star patterns of planar annihilating-ideal graphs, genus verdicts
and a registry of facts whose hypotheses no finite ring can satisfy.
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
from .ideals import IdealLattice, all_ideals, members, name_ideal, sub_ideals
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


def _nonzero_principals(lattice: IdealLattice):
    """Distinct nonzero principal ideals, smallest generator first."""
    return [m for m in lattice.principals if m != lattice.zero]


def _subideal_count(lattice: IdealLattice, cls: RingClassification):
    """For every level n and nonzero principal I below m^(n-1) but not m^n,
    the sub-ideal counts must satisfy |sub(I)| = |sub(I & m^n)| + 1."""
    name = "subideal_count"
    if not cls.is_local:
        yield name, "skipped", "non-local ring", None
    elif cls.is_field:
        yield name, "skipped", "field: no proper nonzero principal ideals", None
    else:
        chain = [lattice.unit, *cls.powers]  # chain[k] = m^k, chain[0] = R
        principals = _nonzero_principals(lattice)
        for n, (upper, lower) in enumerate(zip(chain, chain[1:]), 1):
            for ideal in principals:
                if ideal & ~upper or ideal & ~lower == 0:
                    continue
                lhs = len(sub_ideals(ideal, lattice))
                rhs = len(sub_ideals(ideal & lower, lattice)) + 1
                label = name_ideal(ideal, lattice)
                detail = f"n={n} I={label}: |sub(I)|={lhs}, |sub(I&m^n)|+1={rhs}"
                if lhs == rhs:
                    yield name, "pass", detail, None
                else:
                    yield name, "fail", detail, {"n": n, "ideal": label,
                                                 "lhs": lhs, "rhs": rhs}


def _socle_containment(lattice: IdealLattice, cls: RingClassification):
    """In a local Gorenstein ring, a principal ideal with exactly three
    sub-ideals is annihilated by m^2."""
    name = "socle_containment"
    if not cls.is_local:
        yield name, "skipped", "non-local ring", None
    elif cls.is_field:
        yield name, "skipped", "field: no applicable principal ideals", None
    elif not cls.is_gorenstein:
        yield (name, "skipped",
               f"not Gorenstein (socle dimension {cls.socle_dim})", None)
    else:
        m2 = cls.powers[1]
        applicable = False
        for ideal in _nonzero_principals(lattice):
            if len(sub_ideals(ideal, lattice)) != 3:
                continue
            applicable = True
            label = name_ideal(ideal, lattice)
            prod = lattice.product(m2, ideal)
            detail = f"I={label}: m^2*I = {name_ideal(prod, lattice)}"
            if prod == lattice.zero:
                yield name, "pass", detail, None
            else:
                yield name, "fail", detail, {"ideal": label,
                                             "product": list(members(prod))}
        if not applicable:
            yield (name, "pass",
                   "vacuous: no principal ideal with exactly 3 sub-ideals", None)


def _spir_chain(lattice: IdealLattice, cls: RingClassification):
    """Where some m^n/m^(n+1) is one-dimensional, everything below m^n must be
    a power of m; at n = 1 the whole ring must be a special principal ideal ring."""
    name = "spir_chain"
    if not cls.is_local:
        yield name, "skipped", "non-local ring", None
    elif cls.is_field:
        yield name, "pass", "vacuous: field has no chain levels", None
    else:
        chain = [lattice.unit, *cls.powers]  # chain[k] = m^k
        checked = []
        for n in range(1, cls.t + 1):
            if cls.vdim_profile[n - 1] != 1:
                continue
            expected = set(chain[n:cls.t + 1])
            actual = set(sub_ideals(chain[n], lattice)) - {lattice.zero}
            if actual != expected:
                detail = f"n={n}: sub-ideals of m^{n} are not the chain of powers"
                yield name, "fail", detail, {
                    "n": n,
                    "expected": sorted(name_ideal(m, lattice) for m in expected),
                    "actual": sorted(name_ideal(m, lattice) for m in actual),
                }
                return
            if n == 1 and not cls.is_spir:
                yield (name, "fail", "v.dim m/m^2 = 1 but ring not flagged SPIR",
                       {"n": 1, "is_spir": False})
                return
            checked.append(n)
        yield (name, "pass", "chain levels verified at n=" + ",".join(map(str, checked))
               if checked else "vacuous: no level with v.dim 1", None)


def _unique_minimal_socle(lattice: IdealLattice, cls: RingClassification):
    """Local Gorenstein non-fields: Ann(m) = m^t and m^t is the unique minimal ideal."""
    name = "unique_minimal_socle"
    if not cls.is_local:
        yield name, "skipped", "non-local ring", None
    elif cls.is_field:
        yield name, "skipped", "field: zero ideal is maximal", None
    elif not cls.is_gorenstein:
        yield (name, "skipped",
               f"not Gorenstein (socle dimension {cls.socle_dim})", None)
    else:
        mt = cls.powers[cls.t - 1]
        minimal = unique_minimal_ideal(lattice)
        label = "none" if minimal is None else name_ideal(minimal, lattice)
        detail = (f"socle={name_ideal(cls.socle, lattice)} "
                  f"m^t={name_ideal(mt, lattice)} unique_minimal={label}")
        if cls.socle == mt == minimal:
            yield name, "pass", detail, None
        else:
            yield name, "fail", detail, {
                "socle": list(members(cls.socle)),
                "m_power_t": list(members(mt)),
                "unique_minimal": None if minimal is None else list(members(minimal)),
            }


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


def _shape_checks(cls, ag, find_shape, solve_genus, check_planar):
    name = "t1_two_proper_ideals"
    if cls.is_local and cls.is_gorenstein and not cls.is_field and cls.t == 1:
        detail = f"ideal_count={cls.ideal_count}"
        if cls.ideal_count == 3:
            yield name, "pass", detail, None
        else:
            yield name, "fail", detail, {"ideal_count": cls.ideal_count}
    else:
        yield name, "skipped", "needs a local Gorenstein non-field with t = 1", None

    for name, t_wanted, profile, kind in (
        ("t2_star_with_matching_analog", 2, (2, 1), "star_with_matching"),
        ("t3_double_star_analog", 3, (2, 1, 1), "double_star"),
    ):
        applicable = (cls.is_local and cls.is_gorenstein and not cls.is_field
                      and cls.t == t_wanted and cls.vdim_profile == profile)
        if not applicable:
            yield (name, "skipped", f"needs local Gorenstein, t = {t_wanted}, "
                   f"v.dim profile {list(profile)}", None)
            continue
        matched = find_shape(kind)
        if matched is None:
            yield (name, "fail", f"graph does not match {kind}",
                   {"edges": [list(e) for e in ag.edges]})
            continue
        res = solve_genus()
        if not res.exact:
            yield name, "skipped", "genus budget exhausted", None
        elif res.upper != 0:
            yield (name, "fail", f"{kind} matched but genus = {res.upper}",
                   {"genus": res.upper})
        else:
            center = ag.vertices[matched.centers[0]]
            yield (name, "pass", f"{kind} centered at {center}, genus 0 "
                   f"({len(matched.leaves)} leaves)", None)

    name = "shape_implies_planar"
    hit = find_shape("star_with_matching") or find_shape("double_star")
    if hit is None:
        yield name, "pass", "no shape match", None
    elif check_planar():
        yield name, "pass", f"{hit.kind} match and planar", None
    else:
        yield (name, "fail", f"{hit.kind} matched but graph is non-planar",
               {"kind": hit.kind, "edges": [list(e) for e in ag.edges]})


def _genus_checks(ag, solve_genus, check_planar):
    res = solve_genus()
    if not res.exact:
        for name in ("ag_genus", "euler_bound_le_genus", "planar_iff_genus_zero"):
            yield name, "skipped", "budget exhausted on genus computation", None
        return
    g = res.upper
    yield "ag_genus", "pass", f"genus={g}", None
    lb = euler_lower_bound(ag)
    if lb <= g:
        yield "euler_bound_le_genus", "pass", f"{lb} <= {g}", None
    else:
        yield ("euler_bound_le_genus", "fail", f"{lb} > {g}",
               {"euler": lb, "genus": g})
    planar = check_planar()
    if planar == (g == 0):
        yield "planar_iff_genus_zero", "pass", f"planar={planar} genus={g}", None
    else:
        yield ("planar_iff_genus_zero", "fail", f"planar={planar} but genus={g}",
               {"planar": planar, "genus": g})


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


def _result(check, ring, source, status, text="", witness=None) -> CheckResult:
    """A check outcome as a result: ``text`` is the reason of a skip and the
    detail of a pass or a fail."""
    if status == "skipped":
        return CheckResult(check, ring, source, status, reason=text, witness=witness)
    return CheckResult(check, ring, source, status, witness=witness, detail=text)


def _ring_checks(ring, want, budgets):
    """The outcomes of the wanted checks on one ring, its axioms first; a ring
    whose tables fail an axiom gets no other check."""
    report = validate_ring(ring)
    if not report.ok:
        yield ("ring_axioms", "fail", f"{report.axiom} fails at {report.witness}",
               {"axiom": report.axiom, "witness": list(report.witness)})
        return
    yield ("ring_axioms", "pass", "" if report.triples_checked else
           f"triple axioms not checked above {TRIPLE_CHECK_CAP} elements", None)
    lattice = all_ideals(ring)
    cls = classify(ring, lattice)
    if "lemmas" in want:
        for lemma in (_subideal_count, _socle_containment, _spir_chain,
                      _unique_minimal_socle):
            yield from lemma(lattice, cls)
    if "shapes" in want or "genus" in want:
        ag = build_ag(ring, lattice)
        # Matched, solved and tested at most once per ring, and only when a
        # check asks.
        find_shape = functools.cache(functools.partial(match_shape, ag))
        solve_genus = functools.cache(lambda: genus_exact(ag, **budgets))
        check_planar = functools.cache(lambda: is_planar(ag))
        if "shapes" in want:
            yield from _shape_checks(cls, ag, find_shape, solve_genus, check_planar)
        if "genus" in want:
            yield from _genus_checks(ag, solve_genus, check_planar)


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
    want = {"lemmas", "shapes", "genus"} if suite == "all" else {suite}
    budgets = {"node_budget": node_budget, "time_budget_ms": time_budget_ms}
    results = [_result(check, name, ring, *outcome)
               for name, ring in corpus
               for check, *outcome in _ring_checks(ring, want, budgets)]
    if "lemmas" in want:
        results += [_result(check, "-", None, "skipped", hypothesis)
                    for check, hypothesis in UNREACHABLE_FACTS]
    return SuiteReport(suite, tuple(results))
