"""cvckit benchmark runner.

    python3 bench/run.py --workload cvc-sparse --seed 1 --seconds 28 --trace 0

Runs one workload (see corpus.py and README.md) in this process, single
threaded, as a closed loop: one item at a time, each solve proven optimal
and every output checked, outside the timed spans, before the next pass.
Passes over the same inputs repeat until the next one would overrun
--seconds.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(the traced run alternates untraced and traced passes so it can report
the tracing overhead).

Times are reported in reference seconds.  A short calibration loop runs
before and after every timed span, and the span's wall time is scaled by
REFERENCE_CALIB_S over the loop's mean time around it.  Shared hosts
switch between a fast state and one about 1.7 times slower for seconds to
minutes at a time.  The scaled time cancels that drift, whereas raw wall
time does not; the wall time is still reported, as `corpus.wall_s`.

The library is imported from the checkout's `src/`; without it the runner
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("cvc-sparse", "vc-sparse", "cvc-bipartite", "models")
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120
CALIBRATION_N = 90
CALIBRATION_REPEATS = 3
# the calibration kernel's time on an idle 2-CPU x86-64 host, Python 3.11
REFERENCE_CALIB_S = 0.0015

SOLVE_CHILDREN = ("graph.cut_pass", "bounds.color", "bounds.match", "oracle.check")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="cvckit benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed: draws the relabeled copies and the model instances")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _calibration_graph() -> tuple[int, ...]:
    """Neighbor bitmasks of a fixed random graph, independent of cvckit."""
    rng = random.Random(7)
    masks = [0] * CALIBRATION_N
    for u in range(CALIBRATION_N):
        for v in range(u + 1, CALIBRATION_N):
            if rng.random() < 0.08:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return tuple(masks)


CALIBRATION_MASKS = _calibration_graph()


def _calibration_kernel() -> int:
    """Count the components of the fixed graph minus each vertex in turn,
    by breadth-first search on bitmasks: the same kind of work as the
    solver's inner loops, but frozen here."""
    masks = CALIBRATION_MASKS
    full = (1 << CALIBRATION_N) - 1
    components = 0
    for skip in range(CALIBRATION_N):
        live = full & ~(1 << skip)
        while live:
            seen = live & -live
            frontier = seen
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & live & ~seen
                seen |= frontier
            live &= ~seen
            components += 1
    return components


def calibration_loop() -> float:
    """Speed of the host right now: the fastest of a few runs of the
    calibration kernel.  Taking the fastest drops a run an interrupt hit."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        t = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - t)
    return best


def to_reference(seconds: float, calib_before: float, calib_after: float) -> float:
    """Scale a wall time by the host's speed measured around it."""
    return seconds * 2 * REFERENCE_CALIB_S / (calib_before + calib_after)


def import_library() -> float:
    """Import the benchmark modules, and through them cvckit from the
    checkout's src/; returns the import time in seconds."""
    if not (SRC / "cvckit" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvckit package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t = perf_counter()
    import corpus  # noqa: F401  (imports cvckit.bb, .graph, .mip, .oracle)
    elapsed = perf_counter() - t
    import cvckit

    if Path(cvckit.__file__).resolve().parent != SRC / "cvckit":
        raise SystemExit(f"error: imported cvckit from {cvckit.__file__}, not from {SRC}")
    return elapsed


def setup(args, tracer_factory=None):
    """Import and generate the inputs; returns (items, tracer, sample,
    layers).  The sample holds the import and input times in reference
    seconds.  With a tracer factory the input generation runs traced and
    layers holds its per-layer totals, also in reference seconds."""
    calib_before = calibration_loop()
    import_s = import_library()
    import corpus

    tracer = tracer_factory() if tracer_factory else None
    if tracer:
        tracer.install()
    t = perf_counter()
    items = corpus.build_items(args.workload, args.seed)
    inputs_s = perf_counter() - t
    if tracer:
        tracer.remove()
    calib_after = calibration_loop()
    sample = {
        "import_s": to_reference(import_s, calib_before, calib_after),
        "inputs_s": to_reference(inputs_s, calib_before, calib_after),
    }
    layers = {}
    if tracer:
        layers = tracer.snapshot()
        for key in layers:
            if key.endswith(".s"):
                layers[key] = to_reference(layers[key], calib_before, calib_after)
    return items, tracer, sample, layers


def probe_setups(args) -> list[dict]:
    """Set up SETUP_PROBES times, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


class Run:
    """One workload run: the timed passes and the gate's verdicts."""

    def __init__(self, items, tracer):
        self.items = items
        self.tracer = tracer
        # traced? -> one list per pass of (wall s, reference s) per item
        self.passes = {False: [], True: []}
        self.calibs: list[float] = []
        self.layer_passes: list[dict] = []
        self.node_counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict = {}
        self.messages: list[str] = []

    def one_pass(self, traced: bool) -> None:
        import corpus

        if traced:
            self.tracer.reset()
            self.tracer.install()
        timings, results = [], []
        calib = calibration_loop()
        calibs = [calib]
        try:
            for item in self.items:
                t = perf_counter()
                try:
                    result = corpus.run_item(item)
                except Exception:  # the gate counts it; keep running the pass
                    result = None
                    self.messages.append(traceback.format_exc())
                wall = perf_counter() - t
                after = calibration_loop()
                timings.append((wall, to_reference(wall, calib, after)))
                calibs.append(after)
                calib = after
                results.append(result)
        finally:
            if traced:
                self.tracer.remove()
        self.passes[traced].append(timings)
        self.calibs.extend(calibs)
        if traced:
            snap = self.tracer.snapshot()
            # scale the pass's layer totals by its median host speed
            factor = REFERENCE_CALIB_S / statistics.median(calibs)
            for key in list(snap):
                if key.endswith(".s"):
                    snap[key] *= factor
            snap["solve.s"] = sum(ref for item, (_, ref) in zip(self.items, timings)
                                  if isinstance(item, corpus.SolveItem))
            self.layer_passes.append(snap)
        self.gate(results)

    def gate(self, results) -> None:
        """Check every output, outside the timed spans."""
        import corpus

        covers: dict[int, int] = {}
        nodes: dict[str, int] = {}
        for i, (item, result) in enumerate(zip(self.items, results)):
            self.attempted += 1
            if result is None:
                self.failed += 1
                continue
            try:
                if isinstance(item, corpus.SolveItem):
                    corpus.check_solve(item, result)
                    if item.solver != "vc":
                        size = covers.setdefault(id(item.graph), result.cover_size)
                        if size != result.cover_size:
                            raise corpus.GateError(
                                f"{item.base.label}: bb and rds disagree ({size} vs {result.cover_size})")
                    nodes[item.solver] = nodes.get(item.solver, 0) + result.node_count
                    fingerprint = (result.node_count, result.cover)
                else:
                    fingerprint = corpus.check_model(item, result)
                if self.fingerprints.setdefault(i, fingerprint) != fingerprint:
                    raise corpus.GateError(f"item {i} changed its result in a repeated pass")
            except corpus.GateError as exc:
                self.failed += 1
                self.messages.append(str(exc))
        self.node_counts = nodes

    def item_medians(self, traced: bool) -> list[tuple[float, float]]:
        """Per item, the median over passes of (wall s, reference s)."""
        columns = zip(*self.passes[traced])
        return [(statistics.median(w for w, _ in col), statistics.median(r for _, r in col))
                for col in columns]

    def corpus_s(self, traced: bool) -> float:
        return sum(ref for _, ref in self.item_medians(traced))

    def wall_s(self, traced: bool) -> float:
        return sum(wall for wall, _ in self.item_medians(traced))

    def item_lines(self) -> list[str]:
        """One line per item: what it is, its nodes, its median times."""
        import corpus

        lines = []
        for i, (item, (wall, ref)) in enumerate(zip(self.items, self.item_medians(False))):
            times = f"{wall:.4f} s wall, {ref:.4f} s reference"
            if isinstance(item, corpus.SolveItem):
                nodes = self.fingerprints.get(i, ("?",))[0]
                lines.append(f"{item.base.label} copy {item.copy} {item.solver}: {nodes} nodes, {times}")
            else:
                lines.append(f"G({item.spec.n},{item.spec.p})#{item.seed}: {times}")
        return lines


def layer_metrics(run: Run, setup_layers: dict, setups: list[dict]) -> dict:
    """Per-layer metrics: counts from one traced pass (identical in every
    pass), times as medians over the traced passes."""
    passes = run.layer_passes

    def med(key):
        return statistics.median(p.get(key, 0) for p in passes)

    def count(key):
        return passes[-1].get(key, 0)

    out = {}
    for layer in SOLVE_CHILDREN:
        out[f"{layer}.calls"] = count(f"{layer}.calls")
        out[f"{layer}.s"] = med(f"{layer}.s")
    cut_calls = out["graph.cut_pass.calls"]
    out["graph.cut_pass.us_per_call"] = 1e6 * out["graph.cut_pass.s"] / cut_calls if cut_calls else 0
    color_calls = out["bounds.color.calls"]
    out["bounds.color.fresh"] = count("bounds.color.fresh")
    out["bounds.color.reuse_frac"] = 1 - out["bounds.color.fresh"] / color_calls if color_calls else 0
    for solver in ("bb", "rds", "vc"):
        out[f"bb.nodes.{solver}"] = run.node_counts.get(solver, 0)
    out["bb.nodes"] = sum(run.node_counts.values())
    solve_s = med("solve.s")
    out["bb.self_s"] = solve_s - sum(out[f"{c}.s"] for c in SOLVE_CHILDREN) if solve_s else 0
    out["bb.nodes_per_s"] = out["bb.nodes"] / solve_s if solve_s else 0
    # a pass that generates (models) reports its own generator time; the
    # solver workloads generate only during set-up
    gen = passes if count("graph.gen.calls") else [setup_layers]
    gen_s = statistics.median(p.get("graph.gen.s", 0) for p in gen)
    out["graph.gen.s"] = gen_s
    out["graph.gen.pairs_per_s"] = gen[-1].get("graph.gen.pairs", 0) / gen_s if gen_s else 0
    out["graph.dimacs.s"] = med("graph.dimacs.s")
    out["mip.build_parb.s"] = med("mip.build_parb.s")
    out["mip.write_lp.s"] = med("mip.write_lp.s")
    out["mip.lp_bytes"] = count("mip.lp_bytes")
    out["mip.rows"] = count("mip.rows")
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    out["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
    out["trace.overhead_frac"] = run.corpus_s(True) / run.corpus_s(False) - 1
    out["corpus.wall_s"] = run.wall_s(False)
    out["env.calib_s"] = statistics.median(run.calibs)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        # -O strips the engine's incumbent certification and the bound
        # asserts, so the timings would be of a different program
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup(args)[2]))
        return 0

    setups = probe_setups(args)

    def new_tracer():
        import tracing

        return tracing.Tracer()

    items, tracer, sample, setup_layers = setup(args, new_tracer if args.trace else None)
    setups.append(sample)

    run = Run(items, tracer)
    start = perf_counter()
    longest = 0.0
    while True:
        pass_start = perf_counter()
        traced = bool(args.trace) and len(run.passes[False]) > len(run.passes[True])
        run.one_pass(traced)
        longest = max(longest, perf_counter() - pass_start)
        done_both = not args.trace or run.passes[True]
        if done_both and perf_counter() - start + longest > args.seconds:
            break

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(run.passes[False]) + len(run.passes[True]),
        "items_per_pass": len(items),
        "calib_s": statistics.median(run.calibs),
        "wall_s": run.wall_s(False),
    }
    print("# env " + json.dumps(env))
    for line in run.item_lines():
        print("# " + line)
    for message in run.messages:
        print("# FAILED " + message.rstrip().replace("\n", "\n# "))

    if args.trace:
        values = layer_metrics(run, setup_layers, setups)
        units = metric_units("per_layer")
    else:
        values = {
            "corpus_s": run.corpus_s(False),
            "ok_frac": (run.attempted - run.failed) / run.attempted,
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"error: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
