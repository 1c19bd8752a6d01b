"""Generate random instances, round-trip them through DIMACS, filter them.

The generators are deterministic in the seed, so a (kind, parameters,
seed) triple names an instance reproducibly.  The interestingness filter
keeps graphs whose optimal connected cover is strictly larger than the
plain cover, which is where the connectivity side constraint actually
bites.
"""

import tempfile
from pathlib import Path

from cvckit import (
    articulation_points,
    bipartite_random,
    brute_force_cvc,
    brute_force_vc,
    gnp_random,
    is_connected,
    parse_dimacs,
    write_dimacs,
)


def roundtrip(g, name, directory):
    path = Path(directory) / f"{name}.col"
    path.write_text(write_dimacs(g))
    back = parse_dimacs(path.read_text())
    assert back == g
    return path


def main():
    with tempfile.TemporaryDirectory() as tmp:
        kept = 0
        for seed in range(40):
            g = gnp_random(9, 0.3, seed) if seed % 2 == 0 else bipartite_random(4, 5, 0.5, seed)
            if not is_connected(g):
                continue
            path = roundtrip(g, f"inst_s{seed}", tmp)
            cvc = brute_force_cvc(g)[1]
            vc = brute_force_vc(g)
            if not cvc > vc:
                continue
            kept += 1
            cuts = sorted(articulation_points(g))
            print(
                f"{path.name:14s} n={g.n} m={g.m:2d} vc={vc} cvc={cvc}"
                f" cut_vertices={cuts}"
            )
        print(f"kept {kept} instances whose connected cover exceeds the plain cover")


if __name__ == "__main__":
    main()
