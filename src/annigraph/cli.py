"""Command-line front end.

Subcommands: info, ideals, graph, genus, verify, corpus.  All output goes to
stdout (or --out); diagnostics go to stderr.  Exit codes: 0 success, 1
verification failure, 2 invalid input, 3 budget exhausted where an exact
answer was required.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import classification_to_json, classify
from .genus import DEFAULT_NODE_BUDGET, GenusResult, genus_exact
from .graphs import build_ag, graph_to_json, to_dot
from .ideals import all_ideals, lattice_to_json, members, name_ideal
from .rings import FiniteRing, RingError, ring_to_json
from .specs import (
    SpecParseError,
    builtin_corpus,
    corpus_file_name,
    parse_ring_spec,
)
from .verify import SUITE_SELECTORS, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3


def _node_count(text: str) -> int:
    """A ``--budget-nodes`` value: an integer >= 0, in decimal digits."""
    if not text.isdecimal():
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


def _ring(spec_text: str) -> FiniteRing:
    """The ring a spec names; a graph spec is invalid input."""
    obj = parse_ring_spec(spec_text).build()
    if not isinstance(obj, FiniteRing):
        raise RingError(f"{spec_text} names a graph; this subcommand needs a ring")
    return obj


def _genus_text(res: GenusResult) -> str:
    if res.exact:
        return f"exact {res.upper}\n"
    upper = "unknown" if res.upper is None else res.upper
    return f"{res.status} lower={res.lower} upper={upper}\n"


def _genus_json(res: GenusResult) -> str:
    payload = {
        "lower": res.lower,
        "upper": res.upper,
        "status": res.status,
        "witness": None if res.witness is None else [list(row) for row in res.witness],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _run_info(args) -> int:
    ring = _ring(args.spec)
    lattice = all_ideals(ring)
    cls = classify(ring, lattice)
    if args.format == "json":
        _emit(json.dumps(classification_to_json(cls, lattice), indent=2,
                         sort_keys=True) + "\n", args.out)
    else:
        from .classify import CSV_FIELDS, classification_csv_row
        import csv as _csv
        import io
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerow(classification_csv_row(cls))
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _run_ideals(args) -> int:
    ring = _ring(args.spec)
    lattice = all_ideals(ring)
    if args.format == "json":
        _emit(json.dumps(lattice_to_json(lattice), indent=2, sort_keys=True) + "\n",
              args.out)
    else:
        lines = [
            f"{k}\t{name_ideal(i, lattice)}\t{list(members(i))}"
            for k, i in enumerate(lattice.ideals)
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _run_graph(args) -> int:
    ring = _ring(args.spec)
    g = build_ag(ring, all_ideals(ring))
    if args.format == "dot":
        _emit(to_dot(g), args.out)
    else:
        _emit(json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n",
              args.out)
    return EXIT_OK


def _run_genus(args) -> int:
    obj = parse_ring_spec(args.spec).build()
    g = build_ag(obj, all_ideals(obj)) if isinstance(obj, FiniteRing) else obj
    res = genus_exact(g, node_budget=args.budget_nodes)
    _emit(_genus_text(res) if args.format == "text" else _genus_json(res),
          args.out)
    return EXIT_OK if res.exact else EXIT_BUDGET


def _run_verify(args) -> int:
    corpus = [(spec, _ring(spec)) for spec in args.specs] or None
    report = run_suite(corpus, args.suite, node_budget=args.budget_nodes)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_text()
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
    handlers = {
        "info": _run_info,
        "ideals": _run_ideals,
        "graph": _run_graph,
        "genus": _run_genus,
        "verify": _run_verify,
        "corpus": _run_corpus,
    }
    try:
        return handlers[args.command](args)
    except (SpecParseError, RingError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
