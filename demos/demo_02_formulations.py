"""Build the three integer-programming formulations for one graph.

Shows the model sizes side by side, emits one of them in LP format, and
constructs a certified feasible point for the two-root model from an
optimal cover.  Also counts the single-root model's feasible pick
vectors and matches that count against the matrix-tree theorem.  Both
arborescence models pick from the arcs of the graph itself
(`arborescence_arcs`), so each takes the graph and its root(s).
"""

from cvckit import (
    Graph,
    arborescence_arcs,
    build_parb,
    build_pstp,
    build_qr,
    check_integer_point,
    count_qr_feasible,
    default_roots,
    solve,
    spanning_tree_count,
    witness_parb,
    write_lp,
)

# prism graph: two triangles joined by a perfect matching
PRISM = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def show_sizes(g):
    r, r1 = default_roots(g)
    parb = build_parb(g, r, r1)
    qr = build_qr(g, r)
    stp = build_pstp(g)
    print(f"roots chosen for the two-root model: r={r} r1={r1}")
    print(
        f"arcs: two-root {len(arborescence_arcs(g, r, r1))},"
        f" single-root {len(arborescence_arcs(g, r))} (2m = {2 * g.m})"
    )
    for label, model in (("two-root", parb), ("single-root", qr), ("spanning-tree", stp)):
        print(
            f"{label:14s} variables={len(model.variables):3d}"
            f" constraints={len(model.constraints):3d}"
        )
    return parb, r, r1


def certified_point(g, parb, r, r1):
    report = solve(g)
    point = witness_parb(g, report.cover, r, r1)
    ok = check_integer_point(parb, point)
    print(f"optimal cover {sorted(report.cover)} lifts to a feasible point: {ok}")


def tree_count_check(g):
    # every feasible pick vector of the single-root model is one spanning
    # tree oriented away from the root, so the counts must agree
    picks = count_qr_feasible(g, 0)
    trees = spanning_tree_count(g)
    print(f"single-root feasible picks={picks} spanning trees={trees}")
    assert picks == trees


def main():
    g = PRISM
    print(f"prism graph: n={g.n} m={g.m}")
    parb, r, r1 = show_sizes(g)
    certified_point(g, parb, r, r1)
    tree_count_check(g)
    print()
    print("two-root model in LP format:")
    print(write_lp(parb), end="")


if __name__ == "__main__":
    main()
