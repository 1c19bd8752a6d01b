"""Race the two exact solvers over a small deterministic instance family.

Same loop the bench subcommand runs, inlined: generate, solve with both
algorithms, cross-check the optima, and tabulate node counts and wall
time.  Node counts are deterministic per (instance, algorithm, settings);
times are whatever the machine gives.
"""

import time

from cvckit import gnp_random, is_connected, solve


def connected_sample(n, p, seed, tries=200):
    for s in range(seed, seed + tries):
        g = gnp_random(n, p, s)
        if is_connected(g):
            return g, s
    raise RuntimeError("no connected sample in range")


def main():
    header = f"{'instance':18s} {'n':>3s} {'m':>4s} {'cvc':>4s} {'bb_nodes':>9s} {'rds_nodes':>10s} {'bb_s':>7s} {'rds_s':>7s}"
    print(header)
    print("-" * len(header))
    for n, p, seed in [(20, 0.2, 1), (25, 0.15, 2), (30, 0.12, 3), (35, 0.1, 4), (40, 0.1, 5)]:
        g, used = connected_sample(n, p, seed)
        t0 = time.perf_counter()
        a = solve(g, "bb")
        t1 = time.perf_counter()
        b = solve(g, "rds")
        t2 = time.perf_counter()
        assert a.cover_size == b.cover_size, "solvers disagree"
        name = f"gnp_{n}_{int(p * 100):03d}_s{used}"
        print(
            f"{name:18s} {g.n:3d} {g.m:4d} {a.cover_size:4d}"
            f" {a.node_count:9d} {b.node_count:10d} {t1 - t0:7.3f} {t2 - t1:7.3f}"
        )


if __name__ == "__main__":
    main()
