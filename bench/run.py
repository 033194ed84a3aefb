"""The odcodes benchmark: one closed-loop, single-threaded client.

    python3 bench/run.py --workload sparse-search --seed 1 --seconds 25 --trace 0

Each item starts when the previous one has been checked.  A run repeats whole
passes of the workload (see workloads.py) until --seconds have gone by, so
every run covers the same mix of items.  Only the library calls of an item are
timed; its output check runs outside the timed region.

Times are reported at a reference CPU speed.  On a shared 2-vCPU virtual
machine the CPU speed drifts by up to 1.6x from one second to the next (load
from other guests on the host), which swamps any change worth measuring.  So before every item the benchmark times a fixed pure-Python
kernel that never touches the library, and scales every time of the run by
REFERENCE_KERNEL_S / (kernel time averaged over the run, weighted by the
time of the work around each sample).  The drift cancels in the ratio; the
unscaled figures are printed as comments.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
pass with the same pass traced, for --seconds, and prints the per-layer
metrics of one pass plus trace.overhead_s (traced minus untraced pass time);
the spans are written to bench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import tracer as T
import workloads as W

SETUP_REPEATS = 11
OUT_DIR = W.BENCH_DIR / "out"
REFERENCE_KERNEL_S = 0.002  # the kernel's time at the reference speed

# spans that must fire on the workload whose work they are expected to carry
EXPECTED_SPANS = {
    "sparse-search": ("cover.min_cover", "cover.greedy_cover", "codes.gamma", "codes.verify"),
    "family-forms": (
        "clutters.build_hypergraph",
        "clutters.reduce_hypergraph",
        "families.generate",
        "families.predicted_gamma",
    ),
    "slsat-sweep": (
        "sat_reduction.enumerate_slsat",
        "sat_reduction.build_gadget",
        "sat_reduction.brute_force_sat",
        "sat_reduction.assignment_to_code",
        "sat_reduction.code_to_assignment",
    ),
    "all-covers": (
        "codes.gamma_all_optima",
        "cover.min_cover",
        "polyhedra.od_polyhedron_system",
        "polyhedra.check_validity",
        "polyhedra.check_tightness",
        "polyhedra.integer_hull_equiv",
    ),
}


def _kernel() -> int:
    """Fixed integer and loop work, the same kind the library does."""
    acc = 0
    for x in range(1, 1200):
        m = x * 2654435761 & 0xFFFFFFFF
        while m:
            m &= m - 1
            acc += 1
    return acc


class Speed:
    """Samples the machine's speed between items."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.work_s: list[float] = []

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.kernel_s.append(time.perf_counter() - t0)

    def timed(self, work):
        """Sample the speed, then run work(); returns its result and wall seconds."""
        self._sample()
        t0 = time.perf_counter()
        out = work()
        dt = time.perf_counter() - t0
        self.work_s.append(dt)
        return out, dt

    def kernel_mean(self) -> float:
        """Kernel time averaged over the run's timed work: each piece of work
        is weighted by its duration and runs at the mean speed of the samples
        on either side of it."""
        self._sample()
        ks, ws = self.kernel_s, self.work_s
        return sum(w * (ks[i] + ks[i + 1]) / 2 for i, w in enumerate(ws)) / sum(ws)

    def factor(self) -> float:
        """Wall seconds -> seconds at the reference speed, for this run."""
        return REFERENCE_KERNEL_S / self.kernel_mean()


class Tally:
    """Wall-time latencies and failures of the items run so far."""

    def __init__(self):
        self.speed = Speed()
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, problems) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def run_pass(workload: W.Workload, index: int, tally: Tally, tracer: T.Tracer | None = None):
    """Run pass ``index``, checking every item; returns its timed wall seconds."""
    timed = 0.0
    for item in workload.pass_items(index):
        work = item.run if tracer is None else functools.partial(_in_span, tracer, item.run)
        try:
            out, dt = tally.speed.timed(work)
        except Exception as exc:  # a raising item is a failed item
            tally.attempted += 1
            tally.fail(item.label, [f"raised {exc!r}"])
            continue
        if out is not W.END:
            timed += dt
            tally.latencies.append(dt)
            tally.attempted += 1
        try:
            if tracer is None:
                problems = item.check(out)
            else:
                with tracer.paused():
                    problems = item.check(out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            if out is W.END:
                tally.attempted += 1
            tally.fail(item.label, problems)
    return timed


def _in_span(tracer: T.Tracer, run):
    with tracer.span("item"):
        return run()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- end-to-end run -----------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float):
    tally = Tally()

    def setup():
        workload, dt = tally.speed.timed(lambda: W.setup(name, seed))
        setups.append(dt)
        return workload

    # set-ups are spread over the run (one after every pass, the rest at the
    # end), so that their median sees the same speed drift as the items
    setups: list[float] = []
    workload = setup()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(workload, passes, tally)
        passes += 1
        if len(setups) < SETUP_REPEATS:
            setup()
    while len(setups) < SETUP_REPEATS:
        setup()

    lat = tally.latencies
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    wall = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_p90_ms": 1e3 * percentile(lat, 0.9),
    }
    f = tally.speed.factor()
    metrics = {
        "setup_s": (wall["setup_s"] * f, "s"),
        "items_per_s": (wall["items_per_s"] / f, "1/s"),
        "item_p50_ms": (wall["item_p50_ms"] * f, "ms"),
        "item_p90_ms": (wall["item_p90_ms"] * f, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{passes} passes, {len(lat)} timed items, {beyond} beyond p90",
        f"fail_ratio {tally.failed / max(tally.attempted, 1):g} ratio ({tally.failed} of {tally.attempted})",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()),
        f"kernel mean {1e3 * REFERENCE_KERNEL_S / f:.3f} ms (reference {1e3 * REFERENCE_KERNEL_S:.3f} ms) "
        f"over {len(tally.speed.kernel_s)} samples",
    ]
    if beyond < 10:
        notes.append("WARNING: fewer than 10 samples beyond p90")
    return tally, metrics, notes


# -- traced run ---------------------------------------------------------------------


def traced(name: str, seed: int, seconds: float):
    tracer = T.Tracer()
    W.import_odcodes(fresh=True)
    with tracer.installed():
        with tracer.span("setup"):
            workload = W.setup(name, seed, fresh_import=False)
    setup_spans = len(tracer.spans)

    tally = Tally()
    # every pass here is pass 0, so the per-layer counts repeat exactly for a seed
    run_pass(workload, 0, tally)  # warm-up, so that the first timed pass is not the cold one
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        untraced_s += run_pass(workload, 0, tally)
        with tracer.installed():
            traced_s += run_pass(workload, 0, tally, tracer)
        passes += 1

    f = tally.speed.factor()
    metrics = layer_metrics(tracer, setup_spans, passes, f)
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) * f / passes, "s")

    notes = [f"{passes} untraced + {passes} traced passes; per-layer figures are per pass"]
    fired = {s[2] for s in tracer.spans}
    missing = [s for s in EXPECTED_SPANS[name] if s not in fired]
    if missing:
        tally.fail("trace", [f"declared spans never fired: {', '.join(missing)}"])
    notes += layer_shares(tracer, setup_spans, traced_s)
    write_spans(tracer, name, seed)
    return tally, metrics, notes


def layer_metrics(tracer: T.Tracer, setup_spans: int, passes: int, scale: float) -> dict:
    """Per-layer figures of one pass; times at the reference speed."""
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    by_id = {s[0]: s for s in tracer.spans}
    for s in tracer.spans:
        per = 1 if s[0] < setup_spans else passes
        self_s[s[2]] = self_s.get(s[2], 0.0) + own[s[0]] * scale / per
        incl_s[s[2]] = incl_s.get(s[2], 0.0) + (s[4] - s[3]) * scale / per
        for key, value in (s[5] or {}).items():
            counts[f"{s[2]}.{key}"] = counts.get(f"{s[2]}.{key}", 0) + value / per
        parent = by_id.get(s[1])
        if s[2] == "cover.greedy_cover" and parent is not None and parent[2] == "cover.min_cover":
            excess = s[5]["size"] - parent[5]["value"]
            counts["greedy_excess"] = counts.get("greedy_excess", 0) + excess / per

    def c(key):
        return counts.get(key, 0)

    nodes = c("cover.min_cover.nodes")
    hyperedges = c("clutters.build_hypergraph.edges")
    seconds = {
        name: (self_s.get(name, 0.0), "s")
        for name in (
            "cover.min_cover",
            "cover.greedy_cover",
            "clutters.build_hypergraph",
            "clutters.reduce_hypergraph",
            "sat_reduction.enumerate_slsat",
            "sat_reduction.build_gadget",
            "sat_reduction.brute_force_sat",
            "polyhedra.od_polyhedron_system",
            "polyhedra.check_validity",
            "polyhedra.check_tightness",
            "polyhedra.integer_hull_equiv",
            "codes.verify",
            "graphs.is_admissible",
            "families.generate",
            "families.predicted_gamma",
        )
    }
    metrics = {f"{k}.s": v for k, v in seconds.items()}
    metrics.update(
        {
            "cover.nodes": (nodes, "count"),
            "cover.us_per_node": (1e6 * self_s.get("cover.min_cover", 0.0) / nodes if nodes else 0.0, "us"),
            "cover.greedy_excess": (c("greedy_excess"), "count"),
            "cover.optima": (c("cover.min_cover.optima"), "count"),
            "cover.truncated": (c("cover.min_cover.truncated"), "count"),
            "clutters.hyperedges": (hyperedges, "count"),
            "clutters.clutter_edges": (c("clutters.reduce_hypergraph.edges"), "count"),
            "clutters.kept_ratio": (
                c("clutters.reduce_hypergraph.edges") / hyperedges if hyperedges else 0.0,
                "ratio",
            ),
            "sat_reduction.instances": (c("sat_reduction.enumerate_slsat.instances"), "count"),
            "sat_reduction.satisfiable": (c("sat_reduction.brute_force_sat.satisfiable"), "count"),
            "polyhedra.points": (
                c("polyhedra.check_validity.points") + c("polyhedra.integer_hull_equiv.points"),
                "count",
            ),
            "polyhedra.inequalities": (c("polyhedra.od_polyhedron_system.inequalities"), "count"),
            "codes.gamma.s": (incl_s.get("codes.gamma", 0.0), "s"),
        }
    )
    return metrics


def layer_shares(tracer: T.Tracer, setup_spans: int, traced_s: float) -> list[str]:
    """Self time of each layer as a share of the traced items' time."""
    own = tracer.self_times()
    layers: dict[str, float] = {}
    for s in tracer.spans[setup_spans:]:
        if s[2] != "item":
            layer = s[2].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own[s[0]]
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    return ["layer self-time shares: " + ", ".join(f"{k} {v / traced_s:.1%}" for k, v in ranked)]


def write_spans(tracer: T.Tracer, name: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": name, "seed": seed, "fields": ["id", "parent", "name", "start", "end", "info"],
                   "spans": tracer.spans}, f)


# -- entry point --------------------------------------------------------------------


def git_rev() -> str:
    head = W.BENCH_DIR.parent / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (head.parent / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        W.import_odcodes(fresh=False)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run = traced if args.trace else end_to_end
    tally, metrics, notes = run(args.workload, args.seed, args.seconds)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} python={platform.python_version()} "
        f"nproc={os.cpu_count()} rev={git_rev()}"
    )
    for note in notes:
        print(f"# {note}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:14.6f} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
