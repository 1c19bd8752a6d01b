"""Solve a few small instances and check the answers three ways.

Builds a handful of graphs by hand, runs the branch-and-bound solver and
the russian-doll variant, validates the returned covers, and compares the
optimum against the brute-force oracle and the stable-set duality.
"""

from cvckit import (
    Graph,
    brute_force_cvc,
    check_cvc,
    greedy_cvc_2approx,
    max_feasible_stable,
    solve,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, tuple(outer + inner + spokes))


def named_instances():
    yield "path_6", Graph(6, tuple((i, i + 1) for i in range(5)))
    yield "cycle_7", Graph(7, tuple((i, (i + 1) % 7) for i in range(7)))
    yield "k_3_4", Graph(7, tuple((a, 3 + b) for a in range(3) for b in range(4)))
    yield "petersen", petersen()


def main():
    for name, g in named_instances():
        report = solve(g)
        doll = solve(g, "rds")
        _, oracle_size = brute_force_cvc(g)

        cert = check_cvc(g, report.cover)
        assert cert.valid, (name, report.cover)
        assert report.cover_size == doll.cover_size == oracle_size

        # duality: optimal cover size + largest feasible stable set = n
        assert report.cover_size + max_feasible_stable(g) == g.n

        approx = greedy_cvc_2approx(g)
        assert check_cvc(g, approx).valid
        print(
            f"{name:10s} n={g.n:2d} m={g.m:2d}"
            f" cvc={report.cover_size:2d} greedy={len(approx):2d}"
            f" bb_nodes={report.node_count:4d} rds_nodes={doll.node_count:4d}"
            f" cover={sorted(report.cover)}"
        )
    print("all optima verified against the oracle and the duality identity")


if __name__ == "__main__":
    main()
