"""End-to-end pipeline benchmark: edge list to bundle to point queries.

Usage (from the root of a checkout)::

    python3 pipebench/run.py --workload truss-pipeline --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --selftest

Each run generates its input from ``--seed`` (see ``gen.py``), computes
reference answers with the benchmark's own code (``reference.py``), then
runs passes of the program in fresh interpreters (``child.py``) for about
``--seconds`` seconds, checks every output against the reference, and
prints one record line and, last, one result line of JSON.  See README.md
for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402

#: Input model and pass plan of every workload.  ``focus`` is the pass
#: kind whose repetitions fill the measured window.  ``bundle-serve``
#: builds its bundle ``builds`` times before the window opens; on
#: ``core-kappa`` the builds alternate with the first focus passes.  The
#: pipeline workloads interleave ``SERVE_PASSES`` serve passes with their
#: focus passes.  A serve pass answers ``queries`` queries, at least
#: 1000, so its p99 has ten samples beyond it.
WORKLOADS = {
    "truss-pipeline": dict(n=20000, p=0.6, unicode=True, rs=(2, 3),
                           focus="build", builds=0, queries=1000),
    "core-kappa": dict(n=50000, p=0.4, unicode=False, rs=(1, 2),
                       focus="kappa", builds=2, queries=15000),
    "bundle-serve": dict(n=20000, p=0.6, unicode=True, rs=(2, 3),
                         focus="serve", builds=2, queries=1000),
}
SERVE_PASSES = 3
M_MIN, M_MAX = 2, 20
TINY_N = 400
MISS_SHARE = 0.05
CHAIN_SHARE = 0.3
MIN_FOCUS_PASSES = 3
#: Median duration of ``calib.probe()`` on the reference host (2-vCPU
#: Xeon, Python 3.11, numpy 2.4); every reported time is scaled to it.
PROBE_REF_S = 0.12
#: Pass times grow more slowly than the probe's time when the host slows
#: down: log-log fits over 15-118 passes per pass kind on the reference
#: host gave slopes of 0.5-0.9, and the fit is biased low by the probe's
#: own noise.  Times are scaled by ``(PROBE_REF_S / probe_s) ** 0.75``.
PROBE_EXPONENT = 0.75
#: Every run ends within this many seconds: passes that would start later
#: are skipped, and a pass still running at the limit is killed and fails.
RUN_LIMIT_S = 165

GATES = ("cliques", "kappa", "hierarchy", "bundle", "answers")
END_TO_END = {
    "setup_s": "s", "kappa_s": "s", "pipeline_s": "s", "query_p50_us": "us",
    "query_p99_us": "us", "queries_per_s": "1/s", "peak_rss_mb": "MB",
    "bundle_mb": "MB",
}
SPAN_METRICS = (
    "graph.io.read", "graph.csr_graph.orient", "core.csr.space",
    "core.csr.contexts", "core.csr.and", "core.hierarchy.build",
    "core.intervals.index", "store.bundle.save", "store.bundle.open",
    "store.bundle.label_map",
)
COUNT_METRICS = (
    "graph.csr_graph.edges", "core.csr.r_cliques", "core.csr.s_cliques",
    "core.csr.and_rounds", "core.csr.rho_evaluations",
    "core.csr.h_index_calls", "core.csr.skipped_cliques",
    "core.hierarchy.nuclei",
)
CALL_METRICS = (
    "store.bundle.kappa_of", "store.bundle.clique_index_of",
    "core.intervals.nucleus_containing", "core.intervals.member_count",
)


# ----------------------------------------------------------------------
# inputs and references
# ----------------------------------------------------------------------
def make_queries(cfg, inp, kappa, levels, seed):
    """Seeded point queries with their expected answers (-1 = miss)."""
    rng = np.random.default_rng([seed, 7])
    n, labels = inp.n, inp.labels
    by_edge = cfg["rs"] == (2, 3)
    count = cfg["queries"]
    miss = rng.random(count) < MISS_SHARE
    kinds = (rng.random(count) < CHAIN_SHARE).astype(np.int64)
    items = rng.integers(0, len(kappa), size=count)
    level = (rng.random(count) * (kappa[items] + 1)).astype(np.int64)
    sizes = [np.bincount(row[row >= 0]) for row in levels]
    expected = np.where(kinds == 0, kappa[items], 0)
    for q in np.flatnonzero(kinds == 1):
        row = levels[level[q]]
        expected[q] = sizes[level[q]][row[items[q]]]
    present = set(reference.edge_keys(inp.u, inp.v, n).tolist()) if by_edge else ()
    cliques = []
    for q in range(count):
        if miss[q]:
            expected[q] = -1
            if by_edge:
                while True:
                    a, b = (int(x) for x in rng.integers(0, n, size=2))
                    if a != b and min(a, b) * n + max(a, b) not in present:
                        break
                cliques.append([labels[a], labels[b]])
            else:
                cliques.append(["absent_%d" % q if cfg["unicode"] else n + q])
        elif by_edge:
            e = int(items[q])
            cliques.append([labels[int(inp.v[e])], labels[int(inp.u[e])]])
        else:
            cliques.append([labels[int(items[q])]])
    return dict(
        labels=np.array(json.dumps(cliques, ensure_ascii=False)),
        kinds=kinds, levels=level, expected=expected,
    )


def prepare(cfg, seed, work, n):
    """Write the edge list, reference and queries; returns the input record."""
    inp = gen.make_input(n, M_MIN, M_MAX, cfg["p"], seed, cfg["unicode"])
    edge_list = work / "edges.txt"
    digest = gen.write_edge_list(inp, edge_list, seed)
    kappa, levels = reference.reference(cfg["rs"], inp.n, inp.u, inp.v)
    np.savez(
        work / "reference.npz", n=inp.n, u=inp.u, v=inp.v,
        labels=np.array(inp.labels), kappa=kappa, levels=levels,
    )
    np.savez(work / "queries.npz", **make_queries(cfg, inp, kappa, levels, seed))
    return {"sha256": digest, "n": inp.n, "m": inp.m, "max_kappa": int(kappa.max())}


def environment():
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for name in ("networkx", "scipy"):
        env[name] = __import__(name).__version__
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(
                line.split(":", 1)[1].strip() for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or "unknown"
    try:
        env["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        env["l3"] = "unknown"
    return env


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Run:
    """The passes of one benchmark run and their outcomes."""

    def __init__(self, cfg, work, deadline):
        self.cfg = cfg
        self.work = work
        self.deadline = deadline
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        calib.probe_once()  # the first call pays one-time allocation costs

    def child(self, kind, traced):
        r, s = self.cfg["rs"]
        spec = dict(
            kind=kind, trace=traced, r=r, s=s,
            edge_list=str(self.work / "edges.txt"),
            reference=str(self.work / "reference.npz"),
            queries=str(self.work / "queries.npz"),
            bundle=str(self.work / "bundle"),
        )
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        stderr_path = self.work / "stderr.txt"
        probes = []
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                text=True, env=env,
            )
            watchdog = threading.Timer(
                max(1.0, self.deadline - time.perf_counter()), proc.kill,
            )
            watchdog.start()
            try:
                # the pass idles just before and just after its timed
                # region while the host probe runs here, so the probe is
                # close in time but never sets the pass's peak memory
                while len(probes) < 2:
                    line = proc.stdout.readline()
                    if not line:
                        break
                    if line == "probe\n":
                        probes.append(calib.probe())
                        proc.stdin.write("\n")
                        proc.stdin.flush()
                stdout = proc.communicate()[0]
            except OSError:  # the pass died while the harness was probing
                proc.kill()
                stdout = ""
            finally:
                watchdog.cancel()
                proc.wait()
        try:
            ok = proc.returncode == 0 and len(probes) == 2
            out = json.loads(stdout.strip().splitlines()[-1]) if ok else None
        except (ValueError, IndexError):
            out = None
        if out is None:
            detail = stderr_path.read_text(encoding="utf-8")[-2000:] or "killed"
            print(f"pass {kind} failed: {detail}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        out["probe_s"] = sum(probes) / 2
        self.attempted += out.get("queries", 1)
        self.failed += out["failed"]
        for gate, ok in out["gates"].items():
            self.gates[gate] = self.gates.get(gate, True) and ok
        self.passes.append(out)
        return out

    def of(self, kind, traced=None):
        return [p for p in self.passes
                if p["kind"] == kind and (traced is None or p["traced"] == traced)]


def execute(cfg, seconds, trace, deadline):
    """Run the workload's passes; the measured window lasts ``seconds``."""
    run = Run(cfg, cfg["work"], deadline)
    focus = cfg["focus"]
    builds = cfg["builds"]
    if focus == "serve":
        for _ in range(builds):  # the served bundle is set-up
            run.child("build", bool(trace))
        builds = 0
    start = time.perf_counter()
    serves = 0 if focus != "serve" else SERVE_PASSES

    def serve():
        # spread over the window, so no single slow moment sets the tail
        nonlocal serves
        run.child("serve", bool(trace))
        serves += 1

    count = 0
    while (
        count < MIN_FOCUS_PASSES or time.perf_counter() - start < seconds
    ) and time.perf_counter() < deadline - 0.25 * RUN_LIMIT_S:
        # a traced run alternates traced and untraced focus passes, so the
        # tracing overhead is measured in the same run
        traced = bool(trace) and count % 2 == 1
        if focus == "serve":
            run.child("serve", traced)
        else:
            if builds:
                run.child("build", bool(trace))
                builds -= 1
            run.child(focus, traced)
            if serves < SERVE_PASSES:
                serve()
        count += 1
    while serves < SERVE_PASSES:
        serve()
    return run


def median(values, default=0.0):
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else default


def scaled(p, value):
    """A time of pass ``p`` scaled to the reference host speed (calib.py)."""
    if value is None:
        return None
    return value * (PROBE_REF_S / p["probe_s"]) ** PROBE_EXPONENT


def end_to_end(run):
    focus = run.of(run.cfg["focus"])
    builds = run.of("build")
    serves = run.of("serve")
    per_pass = [scaled(p, np.asarray(p["latencies_ns"], dtype=np.float64)) / 1000.0
                for p in serves]
    latencies = np.concatenate(per_pass)
    if run.cfg["focus"] == "serve":
        setup = [scaled(p, p["setup_s"]) for p in serves]
    else:
        # set-up is the import alone, the same in every pass of the run
        setup = [scaled(p, p["import_s"]) for p in run.passes]
    values = {
        "setup_s": median(setup),
        "kappa_s": median(scaled(p, p.get("kappa_s")) for p in run.passes),
        "pipeline_s": median(scaled(p, p["pipeline_s"]) for p in builds),
        "query_p50_us": float(np.percentile(latencies, 50)),
        # the median over passes keeps one pass on a slow moment of the
        # host from setting the tail
        "query_p99_us": median(float(np.percentile(lat, 99)) for lat in per_pass),
        "queries_per_s": sum(p["queries"] for p in serves)
        / sum(scaled(p, p["timed_s"]) for p in serves),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in focus),
        "bundle_mb": median(p["bundle_mb"] for p in builds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(run):
    traced = [p for p in run.passes if p["traced"]]
    metrics = {}
    for name in SPAN_METRICS:
        metrics[name + "_s"] = (median(scaled(p, p["spans"].get(name)) for p in traced), "s")
    for name in COUNT_METRICS:
        metrics[name] = (median(p.get("counts", {}).get(name) for p in traced), "count")
    rho = metrics["core.csr.rho_evaluations"][0]
    metrics["core.csr.hindex_per_eval"] = (
        metrics["core.csr.h_index_calls"][0] / rho if rho else 0.0, "ratio",
    )
    for name in CALL_METRICS:
        metrics[name + "_us"] = (median(scaled(p, p["calls_us"].get(name)) for p in traced), "us")

    def unit_time(p):
        return scaled(p, p["timed_s"]) / p.get("queries", 1)

    kind = run.cfg["focus"]
    on, off = run.of(kind, traced=True), run.of(kind, traced=False)
    overhead = unaccounted = 0.0
    if on and off:
        overhead = median(map(unit_time, on)) / median(map(unit_time, off)) - 1.0
    if on:
        unaccounted = 1.0 - sum(p["covered_s"] for p in on) / sum(p["timed_s"] for p in on)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.unaccounted_frac"] = (unaccounted, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns ``(record, result)``."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    cfg = dict(WORKLOADS[name])
    work = ROOT / ".pipebench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg["work"] = work
    try:
        info = prepare(cfg, seed, work, TINY_N if tiny else cfg["n"])
        run = execute(cfg, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    gates_ran = set(run.gates) == set(GATES)
    result = {
        "correct": run.failed == 0 and gates_ran and all(run.gates.values()),
        "attempted": run.attempted,
        "failed": run.failed,
    }
    counts = run.of("build")[-1]["counts"] if run.of("build") else {}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "input": dict(info, r_cliques=counts.get("core.csr.r_cliques"),
                      s_cliques=counts.get("core.csr.s_cliques")),
        "environment": environment(),
        "gates": run.gates,
        "passes": [
            {k: p.get(k) for k in ("kind", "traced", "setup_s", "kappa_s",
                                   "pipeline_s", "timed_s", "probe_s", "peak_rss_mb")}
            for p in run.passes
        ],
    }
    if not run.of(cfg["focus"]) or not run.of("serve") or not run.of("build"):
        return record, None
    result["metrics"] = per_layer(run) if trace else end_to_end(run)
    return record, result


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------
def selftest():
    """Run every workload once, tiny, untraced and traced; check the output."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in declared["end_to_end"]},
             1: {m["name"] for m in declared["per_layer"]}}
    ok = {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for name in WORKLOADS:
        for trace in (0, 1):
            record, result = run_workload(name, seed=1, seconds=1, trace=trace, tiny=True)
            good = (
                result is not None and result["correct"]
                and set(result["metrics"]) == names[trace]
                and set(record["gates"]) == set(GATES)
            )
            print(f"selftest {name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"gates={record['gates']}")
            ok = ok and good
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    record, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}, ensure_ascii=False))
    if result is None:
        print("no pass of a required kind completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
