"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest bench -q

They pin the default seed to the ROADMAP baseline node counts, check the
gate's pinned optima against brute force on small draws of every family,
and check the runner's output contract and its refusals.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import tracing  # noqa: E402
from cvckit.oracle import brute_force_cvc, brute_force_vc  # noqa: E402

# (kind, params, instance seed, solver, nodes, optimum) on the draws as
# made; the bb and rds rows on G(n, p) and the bipartite 30+30 bb rows
# are ROADMAP's baseline table, the rest were measured with it
BASELINE = (
    ("gnp", (60, 0.1), 101, "bb", 1557, 37),
    ("gnp", (80, 0.1), 101, "bb", 8705, 54),
    ("gnp", (100, 0.1), 101, "bb", 24221, 69),
    ("gnp", (60, 0.3), 101, "bb", 775, 48),
    ("gnp", (60, 0.1), 101, "rds", 816, 37),
    ("gnp", (80, 0.1), 101, "rds", 9754, 54),
    ("gnp", (100, 0.1), 101, "rds", 11162, 69),
    ("gnp", (60, 0.3), 101, "rds", 1200, 48),
    ("bip", (30, 30, 0.2), 11, "bb", 11487, 34),
    ("bip", (30, 30, 0.2), 22, "bb", 12273, 35),
    ("bip", (35, 35, 0.15), 11, "bb", 69151, 42),
    ("bip", (30, 30, 0.2), 11, "rds", 6640, 34),
    ("bip", (30, 30, 0.2), 22, "rds", 12084, 35),
    ("gnp", (60, 0.1), 101, "vc", 1031, 37),
    ("gnp", (80, 0.1), 101, "vc", 5359, 53),
    ("gnp", (100, 0.1), 101, "vc", 24391, 69),
)


@pytest.mark.parametrize("kind,params,seed,solver,nodes,optimum", BASELINE)
def test_baseline_node_counts_and_optima(kind, params, seed, solver, nodes, optimum):
    g, used = corpus.first_connected(kind, params, seed)
    assert used == seed
    report = corpus.SOLVERS[solver](g)
    assert (report.node_count, report.cover_size, report.status) == (nodes, optimum, "optimal")


@pytest.mark.parametrize("workload", sorted(corpus.SOLVER_WORKLOADS))
def test_workloads_solve_the_baseline_draws_on_every_seed(workload):
    pinned = {(k, p, s, solver): opt for k, p, s, solver, _, opt in BASELINE}
    for seed in (0, 7):
        items = corpus.build_items(workload, seed)
        for item in items:
            base = item.base
            key = (base.kind, base.params, base.seed, item.solver)
            optimum = base.vc if item.solver == "vc" else base.cvc
            assert pinned[key] == optimum
            if item.copy == 0:
                assert item.graph == corpus.first_connected(base.kind, base.params, base.seed)[0]


# families of the workloads, shrunk to brute-force size
SMALL_FAMILIES = (
    ("gnp", (18, 0.2)),
    ("gnp", (16, 0.3)),
    ("bip", (9, 9, 0.3)),
    ("bip", (10, 10, 0.2)),
)


@pytest.mark.parametrize("kind,params", SMALL_FAMILIES)
def test_pinned_optima_match_brute_force_on_small_draws(kind, params, monkeypatch):
    bases = []
    for seed in (11, 22, 101):
        g, used = corpus.first_connected(kind, params, seed)
        _, cvc = brute_force_cvc(g)
        vc = brute_force_vc(g)
        assert vc <= cvc
        bases.append(corpus.Base(kind, params, used, ("bb", "rds", "vc"), cvc=cvc, vc=vc))
    monkeypatch.setitem(corpus.SOLVER_WORKLOADS, "small", tuple(bases))
    for workload_seed in (0, 1, 2):
        for item in corpus.build_items("small", workload_seed):
            # the optimum does not depend on the labeling
            if item.solver == "bb":
                assert brute_force_cvc(item.graph)[1] == item.base.cvc
            corpus.check_solve(item, corpus.run_item(item))


def first_copy(workload: str) -> list:
    """The items on the base graphs as drawn (copy 0)."""
    return [i for i in corpus.build_items(workload, corpus.DEFAULT_SEED) if i.copy == 0]


def test_gate_rejects_a_wrong_optimum():
    item = first_copy("cvc-sparse")[0]
    report = corpus.run_item(item)
    wrong = replace(item, base=replace(item.base, cvc=item.base.cvc - 1))
    with pytest.raises(corpus.GateError):
        corpus.check_solve(wrong, report)


def test_relabeling_is_seeded():
    g, _ = corpus.first_connected("gnp", (60, 0.1), 101)
    assert corpus.relabel(g, 0, 0, 0) is g and corpus.relabel(g, 5, 0, 0) is g
    assert corpus.relabel(g, 5, 1, 0) == corpus.relabel(g, 5, 1, 0)
    assert corpus.relabel(g, 5, 1, 0) != corpus.relabel(g, 6, 1, 0)
    assert corpus.relabel(g, 5, 1, 0) != corpus.relabel(g, 5, 2, 0)
    assert corpus.relabel(g, 0, 1, 0) != g


def test_models_default_seed_matches_pinned_lp_text():
    items = corpus.build_items("models", corpus.DEFAULT_SEED)
    assert all(item.pinned_sha256 for item in items)
    for item in items:
        corpus.check_model(item, corpus.run_item(item))


def test_models_gate_rejects_a_changed_lp():
    item = corpus.build_items("models", corpus.DEFAULT_SEED)[0]
    g, parsed, lp = corpus.run_item(item)
    with pytest.raises(corpus.GateError):
        corpus.check_model(item, (g, parsed, lp.replace(">= 1", ">= 2", 1)))


def test_tracer_sees_only_the_layers_a_workload_uses():
    tracer = tracing.Tracer()
    vc_item = first_copy("vc-sparse")[0]
    bip_item = first_copy("cvc-bipartite")[0]
    cvc_item = first_copy("cvc-sparse")[0]
    tracer.install()
    try:
        corpus.run_item(vc_item)
        vc = tracer.snapshot()
        tracer.reset()
        corpus.run_item(bip_item)
        bip = tracer.snapshot()
        tracer.reset()
        corpus.run_item(cvc_item)
        cvc = tracer.snapshot()
    finally:
        tracer.remove()
    assert "graph.cut_pass.calls" not in vc and vc["bounds.color.calls"] > 0
    assert "bounds.color.calls" not in bip and bip["bounds.match.calls"] > 0
    assert cvc["graph.cut_pass.calls"] > 0 and cvc["bounds.color.calls"] > 0
    # every wrapper is gone again
    import cvckit.bb
    import cvckit.graph

    assert cvckit.bb.articulation_points_mask is cvckit.graph.articulation_points_mask


def run_bench(*args, cwd=ROOT, python_flags=()):
    cmd = [sys.executable, *python_flags, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_every_metric_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_bench("--workload", "models", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_runner_refuses_python_O():
    done = run_bench("--workload", "models", "--seconds", "0.5", python_flags=("-O",))
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "models", "--seconds", "0.5", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
