"""The op of each workload: what one op runs, its deterministic counts and
its output checks.  Imported only after the worker has timed the import of
``annigraph.cli``."""

from __future__ import annotations

import importlib
import random
import statistics
import time

import checks
import probe
import tracing
import workloads

# ``import annigraph.classify`` would give the function the package binds
# over its module, so look the modules up by name.
classify, genus, graphs, ideals, rings, specs, verify = (
    importlib.import_module(f"annigraph.{m}") for m in
    ("classify", "genus", "graphs", "ideals", "rings", "specs", "verify"))


def build_ring(spec):
    """Ring from a spec string; the benchmark's rings.build span."""
    return specs.parse_ring_spec(spec).build()


def relabel(labels, edges, rng):
    """A SimpleGraph with the vertices renumbered in a random order."""
    order = list(range(len(labels)))
    rng.shuffle(order)
    new_labels = [None] * len(labels)
    for old, new in enumerate(order):
        new_labels[new] = labels[old]
    return graphs.simple_graph(new_labels, [(order[u], order[v]) for u, v in edges])


def genus_counts(answers):
    return [[a.error] if a.error else
            [a.result.status, a.result.lower, a.result.upper, a.result.nodes]
            for a in answers]


class Corpus:
    """One op = the full check suite on one ring."""

    min_passes = 3

    def setup(self, seed):
        self.items = [(spec, (spec, build_ring(spec), size, ideals))
                      for spec, size, ideals in workloads.corpus_inputs(seed)]

    def run(self, payload):
        spec, ring, _, _ = payload
        return verify.run_suite([(spec, ring)], "all",
                                node_budget=workloads.CORPUS_NODE_BUDGET,
                                time_budget_ms=None)

    def counts(self, payload, report, op):
        return [report.counts, op.ideal_counts, op.ag_sizes, genus_counts(op.genus)]

    def check(self, payload, report, op):
        spec, ring, size, ideals = payload
        problems = [f"{spec}: check {r.check} failed: {r.detail}"
                    for r in report.results if r.failed]
        if op.ideal_counts != [ideals]:
            problems.append(f"{spec}: all_ideals counts {op.ideal_counts}, "
                            f"expected [{ideals}]")
        if ideals > 2 and [v for v, _ in op.ag_sizes] != [ideals - 2]:
            problems.append(f"{spec}: AG sizes {op.ag_sizes}, expected "
                            f"{ideals - 2} vertices")
        for a in op.genus:
            if a.error is None:
                problems += [f"{spec}: {p}"
                             for p in checks.check_genus_answer(a.graph, a.result)]
        return problems


class Lattice:
    """One op = build, validate_ring, all_ideals, classify, build_ag."""

    min_passes = 3

    def setup(self, seed):
        items = workloads.lattice_inputs(seed)
        self.items = [(f"{item[0]}#{items[:k].count(item)}", item)
                      for k, item in enumerate(items)]

    def run(self, payload):
        ring = build_ring(payload[0])
        report = rings.validate_ring(ring)
        lattice = ideals.all_ideals(ring)
        cls = classify.classify(ring, lattice)
        ag = graphs.build_ag(ring, lattice)
        return ring, report, lattice, cls, ag

    def counts(self, payload, out, op):
        ring, _, lattice, _, ag = out
        return [ring.size, len(lattice), ag.n_vertices, ag.n_edges]

    def check(self, payload, out, op):
        spec, size, n_ideals = payload
        ring, report, lattice, cls, ag = out
        problems = checks.check_lattice(spec, ring, size, n_ideals, lattice, ag)
        if not report.ok:
            problems.append(f"{spec}: validate_ring fails {report.axiom}")
        if cls.ideal_count != len(lattice):
            problems.append(f"{spec}: classify counts {cls.ideal_count} ideals")
        return problems


class Genus:
    """One op = genus_exact on one graph under a seeded label order."""

    # With three passes the scaled throughput spread up to 0.08 of its
    # median over ten seeds; a fourth pass costs 7 s.
    min_passes = 4

    def setup(self, seed):
        rng = random.Random(seed)
        self.items = []
        for name, make in workloads.GENUS_REFERENCE_GRAPHS.items():
            g = make()
            index = {v: i for i, v in enumerate(g.nodes)}
            labels = [str(v) for v in g.nodes]
            edges = [(index[u], index[v]) for u, v in g.edges]
            self.items.append((name, (relabel(labels, edges, rng),
                                      checks.GENUS_REFERENCE[name])))
        for spec in workloads.GENUS_SOLVE_AGS + workloads.GENUS_BOUND_AGS:
            ring = build_ring(spec)
            ag = graphs.build_ag(ring, ideals.all_ideals(ring))
            orders = (workloads.GENUS_BOUND_ORDERS
                      if spec in workloads.GENUS_BOUND_AGS else 1)
            for k in range(orders):
                self.items.append((f"AG({spec})#{k}",
                                   (relabel(ag.vertices, ag.edges, rng),
                                    checks.AG_GENUS_REFERENCE[spec])))

    def run(self, payload):
        return genus.genus_exact(payload[0], node_budget=workloads.GENUS_NODE_BUDGET,
                                 time_budget_ms=None)

    def counts(self, payload, res, op):
        return genus_counts(op.genus)

    def check(self, payload, res, op):
        g, reference = payload
        return checks.check_genus_answer(g, res, reference)


WORKLOADS = {"corpus": Corpus, "lattice": Lattice, "genus": Genus}


# The deterministic per-layer counts, summed over the ops of a pass.
LAYER_COUNTS = ("rings.elements", "ideals.count", "graphs.ag_vertices",
                "graphs.ag_edges", "genus.nodes", "genus.exact",
                "genus.budget_exhausted", "genus.failed", "verify.genus_calls",
                "verify.checks_pass", "verify.checks_fail", "verify.checks_skipped")


def new_pass():
    return {"latencies": [], "failures": [], "counts": {}, "answers": [],
            "problems": [], "layer_counts": dict.fromkeys(LAYER_COUNTS, 0),
            "op_times": [], "op_time": 0.0, "reference_times": []}


def run_op(wl, rec, out, op_id, payload, check):
    """Run one op and add its outcome to the pass record ``out``.  Only
    summaries of the op's genus answers are kept, not their graphs."""
    op = rec.begin_op(op_id)
    start = time.perf_counter()
    try:
        result = wl.run(payload)
    except Exception as exc:  # a raising op is a failed op, not a crash
        elapsed = time.perf_counter() - start
        out["failures"].append([op_id, type(exc).__name__])
        out["counts"][op_id] = ["raised", type(exc).__name__, genus_counts(op.genus)]
    else:
        elapsed = time.perf_counter() - start
        out["latencies"].append(elapsed)
        out["counts"][op_id] = wl.counts(payload, result, op)
        if check:
            out["problems"] += wl.check(payload, result, op)
        del result
    answers = [answer_summary(a) for a in op.genus]
    out["answers"] += answers
    for key, n in op_counts(op, answers).items():
        out["layer_counts"][key] += n
    out["op_times"].append(elapsed)
    out["op_time"] += elapsed


def run_pass(wl, rec, check):
    """Run every op once, with output checks on request, and probe the
    host's speed with the reference loop before the first op and after each
    op."""
    out = new_pass()
    out["reference_times"].append(probe.reference_s())
    for op_id, payload in wl.items:
        run_op(wl, rec, out, op_id, payload, check)
        out["reference_times"].append(probe.reference_s())
    return out


def scaled_op_times(passes):
    """Per op, the median over passes of its time scaled to the nominal host
    speed by the probes either side of it."""
    return [statistics.median(probe.scaled(p["op_times"][k], p["reference_times"][k],
                                           p["reference_times"][k + 1])
                              for p in passes)
            for k in range(len(passes[0]["op_times"]))]


def run_paired_pass(wl, rec):
    """Run every op twice, untraced and traced, back to back, in an order
    that alternates from op to op so that neither side always runs first.
    The untraced outputs are checked.  Returns the untraced and the traced
    pass."""
    halves = {False: new_pass(), True: new_pass()}
    for k, (op_id, payload) in enumerate(wl.items):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            rec.tracing = traced
            run_op(wl, rec, halves[traced], op_id, payload, check=not traced)
    rec.tracing = False
    return halves[False], halves[True]


def answer_summary(a):
    """What the benchmark keeps of one genus answer once its op is done."""
    lo, hi = checks.interval(a, a.graph)
    res = a.result
    return {"exact": res is not None and res.exact,
            "budget_exhausted": res is not None and res.status == "budget_exhausted",
            "failed": a.error is not None,
            "gap": hi - lo,
            "nodes": res.nodes if res is not None else 0,
            "in_suite": a.in_suite}


def genus_summary(answers):
    """End-to-end genus figures over answer summaries."""
    return {"answers": len(answers),
            "exact": sum(a["exact"] for a in answers),
            "gap_sum": sum(a["gap"] for a in answers)}


def op_counts(op, answers):
    """Deterministic per-layer counts of one op."""
    return {
        "rings.elements": op.ring_elements,
        "ideals.count": sum(op.ideal_counts),
        "graphs.ag_vertices": sum(v for v, _ in op.ag_sizes),
        "graphs.ag_edges": sum(e for _, e in op.ag_sizes),
        "genus.nodes": sum(a["nodes"] for a in answers),
        "genus.exact": sum(a["exact"] for a in answers),
        "genus.budget_exhausted": sum(a["budget_exhausted"] for a in answers),
        "genus.failed": sum(a["failed"] for a in answers),
        "verify.genus_calls": sum(a["in_suite"] for a in answers),
        "verify.checks_pass": op.checks.get("pass", 0),
        "verify.checks_fail": op.checks.get("fail", 0),
        "verify.checks_skipped": op.checks.get("skipped", 0),
    }


def layer_times(spans):
    """{op id: {span name: self seconds}}, with the inclusive seconds of
    run_suite under "verify.inclusive"."""
    out = {}
    for (name, start, end, _, op_id), own in zip(spans, tracing.self_times(spans)):
        times = out.setdefault(op_id, {})
        times[name] = times.get(name, 0.0) + own
        if name == "verify.run_suite":
            times["verify.inclusive"] = times.get("verify.inclusive", 0.0) + (end - start)
    return out
