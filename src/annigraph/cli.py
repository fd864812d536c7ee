"""Command-line front end.

Subcommands: info, ideals, graph, genus, verify, corpus.  All output goes to
stdout (or --out); diagnostics go to stderr.  Exit codes: 0 success, 1
verification failure, 2 invalid input, 3 budget exhausted where an exact
answer was required.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from .classify import classify
from .genus import DEFAULT_NODE_BUDGET, genus_exact
from .graphs import SimpleGraph, build_ag
from .ideals import all_ideals, members, name_ideal
from .rings import FiniteRing, RingError, ring_to_json
from .specs import SpecParseError, builtin_corpus, corpus_file_name, parse_ring_spec
from .verify import SUITE_SELECTORS, SuiteReport, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3


def _node_count(text: str) -> int:
    """A ``--budget-nodes`` value: an integer >= 0, in ASCII decimal digits."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annigraph",
        description="Finite commutative rings, their annihilating-ideal "
                    "graphs, and exact graph genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flag(p):
        p.add_argument("--budget-nodes", type=_node_count, default=DEFAULT_NODE_BUDGET,
                       help=f"search node budget (default {DEFAULT_NODE_BUDGET})")

    p = sub.add_parser("info", help="print the classification of a ring")
    p.add_argument("spec")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("ideals", help="list the ideal lattice of a ring")
    p.add_argument("spec")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    p = sub.add_parser("graph", help="emit the annihilating-ideal graph")
    p.add_argument("spec")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default=None)

    p = sub.add_parser("genus", help="exact genus of a graph, or of a ring's "
                                     "annihilating-ideal graph")
    p.add_argument("spec")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    add_budget_flag(p)

    p = sub.add_parser("verify", help="run the check suites over a corpus")
    p.add_argument("specs", nargs="*",
                   help="ring specs (default: the built-in corpus)")
    p.add_argument("--suite", choices=SUITE_SELECTORS, default="all")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None)
    add_budget_flag(p)

    p = sub.add_parser("corpus", help="materialize the built-in corpus as "
                                      "ring table files")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(payload) -> str:
    """Sorted keys, two-space indent; tuples print as JSON arrays."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _ring(spec_text: str) -> FiniteRing:
    """The ring a spec names; a graph spec is invalid input."""
    obj = parse_ring_spec(spec_text).build()
    if not isinstance(obj, FiniteRing):
        raise RingError(f"{spec_text} names a graph; this subcommand needs a ring")
    return obj


def _info_json(ring, lattice, cls) -> str:
    def imembers(i):
        return None if i is None else members(i)

    return _json({
        "ring": ring.fingerprint,
        "ideal_count": cls.ideal_count,
        "maximal_ideals": [name_ideal(i, lattice) for i in cls.maximal_ideals],
        "is_local": cls.is_local,
        "is_field": cls.is_field,
        "m": imembers(cls.m),
        "t": cls.t if cls.is_local else None,
        "residue_size": cls.residue_size,
        "vdim_profile": cls.vdim_profile,
        "socle": imembers(cls.socle),
        "socle_dim": cls.socle_dim,
        "is_gorenstein": cls.is_gorenstein,
        "is_spir": cls.is_spir,
    })


def _info_csv(ring, cls) -> str:
    """One header row and one data row; the local-ring columns are blank for
    a non-local ring."""
    local = (cls.t, cls.residue_size, " ".join(map(str, cls.vdim_profile)),
             cls.socle_dim, cls.is_gorenstein, cls.is_spir)
    return _csv([
        ("ring", "ideal_count", "n_maximal", "is_local", "is_field", "t",
         "residue_size", "vdim_profile", "socle_dim", "is_gorenstein", "is_spir"),
        (ring.fingerprint[:12], cls.ideal_count, len(cls.maximal_ideals),
         cls.is_local, cls.is_field, *(local if cls.is_local else ("",) * 6)),
    ])


def _graph_dot(g: SimpleGraph) -> str:
    """One vertex line per label, one edge line per edge; labels are DOT
    quoted identifiers, backslashes and double quotes escaped."""
    ids = ['"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
           for label in g.vertices]
    lines = ["graph AG {", *(f"  {vid};" for vid in ids),
             *(f"  {ids[u]} -- {ids[v]};" for u, v in g.edges), "}"]
    return "\n".join(lines) + "\n"


def _report_text(report: SuiteReport) -> str:
    lines = []
    for res in report.results:
        extra = res.detail or res.reason
        lines.append(f"[{res.status.upper():>7}] {res.check} :: {res.ring}"
                     + (f" :: {extra}" if extra else ""))
    c = report.counts
    lines.append(f"summary: {c['pass']} pass, {c['fail']} fail, "
                 f"{c['skipped']} skipped")
    return "\n".join(lines) + "\n"


def _report_json(suite: str, report: SuiteReport, rings: dict) -> str:
    """Each result with its ring's fingerprint, hashed only here; results
    that no ring reaches have none."""
    results = [{**dataclasses.asdict(res), "fingerprint":
                rings[res.ring].fingerprint if res.ring in rings else None}
               for res in report.results]
    return _json({"suite": suite, "results": results,
                  "counts": report.counts})


def _run_info(args) -> int:
    ring = _ring(args.spec)
    lattice = all_ideals(ring)
    cls = classify(ring, lattice)
    _emit(_info_json(ring, lattice, cls) if args.format == "json"
          else _info_csv(ring, cls), args.out)
    return EXIT_OK


def _run_ideals(args) -> int:
    ring = _ring(args.spec)
    lattice = all_ideals(ring)
    if args.format == "json":
        text = _json({"ring": ring.fingerprint,
                      "ideals": [members(i) for i in lattice.ideals]})
    else:
        text = "".join(f"{k}\t{name_ideal(i, lattice)}\t{list(members(i))}\n"
                       for k, i in enumerate(lattice.ideals))
    _emit(text, args.out)
    return EXIT_OK


def _run_graph(args) -> int:
    ring = _ring(args.spec)
    g = build_ag(ring, all_ideals(ring))
    _emit(_graph_dot(g) if args.format == "dot" else
          _json({"vertices": g.vertices, "edges": g.edges}), args.out)
    return EXIT_OK


def _run_genus(args) -> int:
    obj = parse_ring_spec(args.spec).build()
    g = build_ag(obj, all_ideals(obj)) if isinstance(obj, FiniteRing) else obj
    res = genus_exact(g, node_budget=args.budget_nodes)
    if args.format == "json":
        text = _json({"lower": res.lower, "upper": res.upper, "status": res.status,
                      "nodes": res.nodes, "witness": res.witness})
    elif res.exact:
        text = f"exact {res.upper}\n"
    else:
        upper = "unknown" if res.upper is None else res.upper
        text = f"{res.status} lower={res.lower} upper={upper}\n"
    _emit(text, args.out)
    return EXIT_OK if res.exact else EXIT_BUDGET


def _run_verify(args) -> int:
    corpus = [(spec, _ring(spec)) for spec in args.specs] or builtin_corpus()
    report = run_suite(corpus, args.suite, node_budget=args.budget_nodes)
    if args.format == "json":
        text = _report_json(args.suite, report, dict(corpus))
    elif args.format == "csv":
        text = _csv([("check", "ring", "status", "reason_or_detail"),
                     *((res.check, res.ring, res.status, res.detail or res.reason)
                       for res in report.results)])
    else:
        text = _report_text(report)
    _emit(text, args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _run_corpus(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for name, ring in builtin_corpus():
        path = os.path.join(args.out, corpus_file_name(name))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ring_to_json(ring), fh)
            fh.write("\n")
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"info": _run_info, "ideals": _run_ideals, "graph": _run_graph,
                "genus": _run_genus, "verify": _run_verify, "corpus": _run_corpus}
    try:
        return handlers[args.command](args)
    except (SpecParseError, RingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
