"""One benchmark pass, run in a fresh interpreter.

Usage: ``python3 child.py SPEC.json`` with ``PYTHONPATH`` pointing at the
package sources.  The spec names the pass kind and its files; the pass
prints one JSON line with its timings, counts and gate outcomes.

Pass kinds:

* ``build`` — edge list → ``CSRGraph`` → ``CSRSpace`` → AND → hierarchy →
  interval index → saved bundle (the ``decompose --edge-list --save`` job);
* ``kappa`` — edge list → ``CSRGraph`` → ``CSRSpace`` → AND, κ only;
* ``serve`` — ``open_bundle``, one warm-up query, then a closed loop of
  point queries from one client.

Just before and just after its timed region the pass prints ``probe``
and idles until it reads a line on stdin, while the harness probes the
host's speed.  The gates run after the timed region and compare every
output against the reference arrays the harness computed (see
``reference.py``).
"""

import time

_T0 = time.perf_counter()
import repro  # noqa: E402  (the import is part of the measured set-up)
from repro import (  # noqa: E402
    CSRSpace,
    build_hierarchy,
    nucleus_decomposition,
    open_bundle,
    save_bundle,
)
from repro.graph.io import read_edge_list_arrays  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


class Recorder:
    """Spans and per-call latencies of one pass; inert when disabled."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = {}
        self.calls = {}

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - start

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.calls.setdefault(name, []).append(time.perf_counter_ns() - start)


def peak_rss_mb():
    """Peak resident memory of this process image, in MiB.

    ``VmHWM`` restarts at ``exec``; ``ru_maxrss`` would also carry the
    parent's resident size at ``fork``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pause():
    """Idle until the harness has probed the host's speed (run.py)."""
    print("probe", flush=True)
    sys.stdin.readline()


def dir_mb(path):
    return sum(f.stat().st_size for f in Path(path).iterdir()) / 2**20


# ----------------------------------------------------------------------
# timed passes
# ----------------------------------------------------------------------
def run_pipeline(spec, rec, out):
    """Edge list to κ, and for ``build`` passes on to the saved bundle."""
    r, s = spec["r"], spec["s"]
    t0 = time.perf_counter()
    with rec.span("graph.io.read"):
        graph = read_edge_list_arrays(spec["edge_list"])
    if rec.enabled and (r, s) != (1, 2):
        # the space build orients the graph for clique listing at r >= 2
        with rec.span("graph.csr_graph.orient"):
            graph.forward_csr()
    with rec.span("core.csr.space"):
        space = CSRSpace.from_graph(graph, r, s)
    if rec.enabled:
        # AND builds the reverse incidence lazily on its first round
        with rec.span("core.csr.contexts"):
            space.member_contexts()
    with rec.span("core.csr.and"):
        result = nucleus_decomposition(space, algorithm="and")
    t_kappa = time.perf_counter()
    out["kappa_s"] = t_kappa - t0
    if spec["kind"] == "build":
        with rec.span("core.hierarchy.build"):
            hierarchy = build_hierarchy(space, result)
        with rec.span("core.intervals.index"):
            index = hierarchy.interval_index()
        with rec.span("store.bundle.save"):
            save_bundle(
                spec["bundle"], graph=graph, space=space, result=result,
                hierarchy=hierarchy,
            )
        out["pipeline_s"] = time.perf_counter() - t0
    else:
        hierarchy = index = None
        out["pipeline_s"] = out["kappa_s"]
    out["timed_s"] = out["pipeline_s"]
    out["peak_rss_mb"] = peak_rss_mb()
    if spec["kind"] == "build":
        out["bundle_mb"] = dir_mb(spec["bundle"])
    n = len(space)
    out["counts"] = {
        "graph.csr_graph.edges": graph.number_of_edges(),
        "core.csr.r_cliques": n,
        "core.csr.s_cliques": int(space.ctx_offsets[n]) // math.comb(s, r),
        "core.csr.and_rounds": result.iterations,
        "core.csr.rho_evaluations": result.operations["rho_evaluations"],
        "core.csr.h_index_calls": result.operations["h_index_calls"],
        "core.csr.skipped_cliques": result.operations["skipped_cliques"],
    }
    if hierarchy is not None:
        out["counts"]["core.hierarchy.nuclei"] = len(hierarchy)
    return space, result, index


def run_serve(spec, rec, out, queries):
    """Open the bundle, warm up, then answer queries in a closed loop."""
    labels, kinds, levels = queries
    t0 = time.perf_counter()
    with rec.span("store.bundle.open"):
        bundle = open_bundle(spec["bundle"])
        index = bundle.index
    with rec.span("store.bundle.label_map"):
        # the first lookup builds the label map; its answer is not timed
        bundle.clique_index_of(labels[0])
    out["setup_s"] = IMPORT_S + time.perf_counter() - t0
    call = rec.call
    answers = []
    latencies = []
    clock = time.perf_counter_ns
    loop_start = clock()
    for q in range(len(labels)):
        clique = labels[q]
        start = clock()
        if kinds[q] == 0:
            try:
                answer = call("store.bundle.kappa_of", bundle.kappa_of, clique)
            except KeyError:
                answer = -1
        else:
            ci = call("store.bundle.clique_index_of", bundle.clique_index_of, clique)
            if ci is None:
                answer = -1
            else:
                node = call(
                    "core.intervals.nucleus_containing",
                    index.nucleus_containing, ci, int(levels[q]),
                )
                answer = call("core.intervals.member_count", index.member_count, node)
        latencies.append(clock() - start)
        answers.append(answer)
    loop_ns = clock() - loop_start
    out["timed_s"] = loop_ns / 1e9
    out["latencies_ns"] = latencies
    out["peak_rss_mb"] = peak_rss_mb()
    return answers


# ----------------------------------------------------------------------
# gates (never timed)
# ----------------------------------------------------------------------
def reference_order(space, ref):
    """Generator r-clique id of every program r-clique, or ``None``."""
    n = int(ref["n"])
    id_of = {label: i for i, label in enumerate(ref["labels"].tolist())}
    view = space.cliques
    try:
        # a CliqueArrayView is an id table plus a label table: translate
        # each distinct vertex once instead of every clique tuple
        own = np.array([id_of[x] for x in view.labels], dtype=np.int64)
        ids = own[np.asarray(view.ids, dtype=np.int64).reshape(len(view), -1)]
    except KeyError:
        return None
    if ids.shape[1] == 1:
        order = ids[:, 0]
        num = n
    else:
        keys = np.minimum(ids[:, 0], ids[:, 1]) * n + np.maximum(ids[:, 0], ids[:, 1])
        ref_keys = np.minimum(ref["u"], ref["v"]) * n + np.maximum(ref["u"], ref["v"])
        sorter = np.argsort(ref_keys)
        pos = np.searchsorted(ref_keys, keys, sorter=sorter)
        pos[pos == len(ref_keys)] = 0
        order = sorter[pos]
        if not np.array_equal(ref_keys[order], keys):
            return None
        num = len(ref_keys)
    if len(order) != num or len(np.unique(order)) != num:
        return None
    return order


def same_partition(ours, theirs):
    """True when two label arrays (-1 = unassigned) define one partition."""
    if not np.array_equal(ours < 0, theirs < 0):
        return False
    a, b = ours[ours >= 0].astype(np.int64), theirs[theirs >= 0].astype(np.int64)
    if not len(a):
        return True
    pairs = np.unique(a * (int(b.max()) + 1) + b)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def hierarchy_gate(index, ref_levels, order):
    """Every level's nuclei (``nuclei_at``/``members``) against the reference."""
    if index.max_k() != len(ref_levels) - 1 or len(index.nuclei_at(len(ref_levels))):
        return False
    n = len(order)
    for k, ref_row in enumerate(ref_levels):
        ours = np.full(n, -1, dtype=np.int64)
        assigned = 0
        for j, node in enumerate(index.nuclei_at(k).tolist()):
            members = index.members(node)
            ours[members] = j
            assigned += len(members)
        if assigned != int((ours >= 0).sum()):  # overlapping nuclei
            return False
        if not same_partition(ours, ref_row[order]):
            return False
    return True


def pipeline_gates(spec, space, result, index, ref):
    gates = {}
    order = reference_order(space, ref)
    gates["cliques"] = order is not None
    if order is None:
        return gates
    kappa = np.asarray(result.kappa, dtype=np.int64)
    gates["kappa"] = bool(np.array_equal(kappa, ref["kappa"][order]))
    if index is not None:
        gates["hierarchy"] = hierarchy_gate(index, ref["levels"], order)
        reopened = open_bundle(spec["bundle"], verify=True)
        gates["bundle"] = bool(
            np.array_equal(np.asarray(reopened.kappa), kappa)
            and reopened.index == index
        )
    return gates


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    rec = Recorder(spec["trace"])
    out = {"kind": spec["kind"], "traced": spec["trace"], "import_s": IMPORT_S,
           "setup_s": IMPORT_S}
    if spec["kind"] == "serve":
        with np.load(spec["queries"], allow_pickle=False) as data:
            queries = dict(data)
        labels = [tuple(q) for q in json.loads(str(queries["labels"]))]
        pause()
        answers = run_serve(
            spec, rec, out, (labels, queries["kinds"], queries["levels"])
        )
        pause()
        wrong = np.asarray(answers, dtype=np.int64) != queries["expected"]
        out["queries"] = len(answers)
        out["failed"] = int(wrong.sum())
        out["gates"] = {"answers": not wrong.any()}
    else:
        pause()
        space, result, index = run_pipeline(spec, rec, out)
        pause()
        # the reference is loaded only now, so it never counts in peak RSS
        with np.load(spec["reference"], allow_pickle=False) as data:
            ref = dict(data)
        out["gates"] = pipeline_gates(spec, space, result, index, ref)
        out["failed"] = int(not all(out["gates"].values()))
    out["spans"] = rec.spans
    out["calls_us"] = {
        name: float(np.median(values)) / 1000.0 for name, values in rec.calls.items()
    }
    # share of the timed region that the layer spans cover
    covered = sum(sum(v) for v in rec.calls.values()) / 1e9 + sum(
        t for name, t in rec.spans.items()
        if name not in ("store.bundle.open", "store.bundle.label_map")
    )
    out["covered_s"] = covered
    print(json.dumps(out))


if __name__ == "__main__":
    main()
