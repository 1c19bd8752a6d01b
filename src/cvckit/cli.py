"""Command-line interface.

Subcommands: gen (write random DIMACS instances), solve (run a solver on
one instance), emit (write a model as an LP file), verify (exhaustively
check a model against the subset oracle), bench (CSV benchmark over
generated or on-disk instances).

Exit codes: 0 success, 2 usage error, 3 bad input, 4 stopped at the time
limit, 5 verification found a mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Optional

from .bb import ALGORITHMS, solve
from .errors import CvcKitError, InputError
from .graph import (
    Graph,
    bipartite_random,
    first_connected,
    gnp_random,
    parse_dimacs,
    write_dimacs,
)
from .mip import (
    PSTP_VERIFY_CAP,
    build_parb,
    build_pstp,
    build_qr,
    find_parb_mismatch,
    find_pstp_mismatch,
    write_lp,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_TIME_LIMIT = 4
EXIT_VERIFY = 5


def _read_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return parse_dimacs(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | Path, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _pct(p: float) -> str:
    """p in percent for instance names: three digits for a whole percent
    (0.1 -> "010"), else the exact percent of repr(p) with its point
    written as "p" (0.105 -> "010p5"), so distinct p never share a name.
    Below 1e-6 percent the text is in exponent form (1e-9 -> "1E-7"),
    which keeps the name short."""
    pct = Decimal(repr(p)).scaleb(2)
    if pct == int(pct):
        return f"{int(pct):03d}"
    whole, _, frac = str(pct).partition(".")
    return f"{whole.zfill(3)}p{frac}" if frac else whole


# ---------------------------------------------------------------------------
# gen


# generator kind -> (generator, its parameters in the order it takes them
# before the seed, the tag in instance names, the help text); the last
# parameter is the edge probability p, the others are vertex counts
GEN_KINDS = {
    "gnp": (gnp_random, ("n", "p"), "gnp", "Erdos-Renyi G(n, p)"),
    "bipartite": (bipartite_random, ("n1", "n2", "p"), "bip", "bipartite G(n1, n2, p)"),
}


def _param_type(name: str) -> type:
    return float if name == "p" else int


def _spec_form(kind: str) -> str:
    """The bench spec of a kind, as "N1,N2,P,SEED"."""
    return ",".join([*map(str.upper, GEN_KINDS[kind][1]), "SEED"])


def _instance_name(kind: str, params: tuple, seed: int) -> str:
    *sizes, p = params
    return "_".join(["G", GEN_KINDS[kind][2], *map(str, sizes), _pct(p), f"s{seed}"])


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise InputError(f"--count must be at least 1, got {args.count}")
    if args.max_reseeds < 0:
        raise InputError(f"--max-reseeds must be non-negative, got {args.max_reseeds}")
    generate, names, _, _ = GEN_KINDS[args.kind]
    params = tuple(getattr(args, name) for name in names)
    outdir = Path(args.out)
    cursor = args.seed
    for _ in range(args.count):
        if args.connected:
            g, used = first_connected(generate, params, cursor, args.max_reseeds)
        else:
            g, used = generate(*params, cursor), cursor
        # made once a graph is in hand, so a refused draw leaves no directory
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create {outdir}: {exc}") from exc
        path = outdir / (_instance_name(args.kind, params, used) + ".col")
        _write_text(path, write_dimacs(g))
        print(path)
        cursor = used + 1
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    g = _read_graph(args.file)
    report = solve(g, args.algorithm, time_limit=args.time_limit, warm_start=not args.no_warm_start)
    name = Path(args.file).stem
    print(
        f"name={name} n={g.n} m={g.m} algorithm={report.algorithm}"
        f" cover_size={report.cover_size} nodes={report.node_count}"
        f" time_s={report.wall_time:.6f} status={report.status}"
        f" best_bound={report.best_bound}"
    )
    print("cover: " + " ".join(str(v) for v in sorted(report.cover)))
    return EXIT_TIME_LIMIT if report.status == "time_limit" else EXIT_OK


# ---------------------------------------------------------------------------
# emit


def _refuse_pstp_roots(args) -> None:
    if args.model == "pstp" and (args.root is not None or args.root2 is not None):
        raise InputError("the spanning-tree model takes no roots")


def _cmd_emit(args) -> int:
    g = _read_graph(args.file)
    _refuse_pstp_roots(args)
    if args.model == "pstp":
        model = build_pstp(g)
    elif args.model == "qr":
        if args.root2 is not None:
            raise InputError("the single-root model takes one root")
        model = build_qr(g, args.root)
    else:
        model = build_parb(g, args.root, args.root2)
    text = write_lp(model)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verdict(label: str, mismatch, g: Graph, out: Path) -> bool:
    """Print one model's verdict; on a mismatch, also write the instance
    with its mismatch set to `out`.  Returns whether it failed."""
    if mismatch is None:
        print(f"{label}: ok")
        return False
    members = " ".join(str(v) for v in sorted(mismatch))
    _write_text(out, f"c mismatch_set {members}\n" + write_dimacs(g))
    print(f"{label}: MISMATCH on {{{members}}}, wrote {out}")
    return True


def _cmd_verify(args) -> int:
    _refuse_pstp_roots(args)
    g = _read_graph(args.file)
    out = Path(args.out or ".")
    stem = Path(args.file).stem
    failed = False
    if args.model in ("parb", "all"):
        mismatch = find_parb_mismatch(g, args.root, args.root2)
        failed |= _verdict("parb", mismatch, g, out / f"{stem}.mismatch.col")
    if args.model == "all" and g.n > PSTP_VERIFY_CAP:
        # parb's cap is higher: under "all" its verdict stands alone
        print(f"pstp: skipped (n={g.n} is above its cap of {PSTP_VERIFY_CAP})")
    elif args.model in ("pstp", "all"):
        mismatch = find_pstp_mismatch(g)
        failed |= _verdict("pstp", mismatch, g, out / f"{stem}.pstp.mismatch.col")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _bench_rows(algorithms: list[str], repeats: int, time_limit, instance) -> list[list]:
    """Solve one (name, seed, graph) instance with each algorithm and
    build its CSV rows.  Module-level so process pools can pickle it."""
    name, seed, g = instance
    rows = []
    for algorithm in algorithms:
        reports = [solve(g, algorithm, time_limit=time_limit) for _ in range(repeats)]
        node_counts = sorted({report.node_count for report in reports})
        if len(node_counts) > 1:
            warnings.warn(
                f"{name}/{algorithm}: node counts varied across repeats "
                f"{node_counts}; reporting the maximum"
            )
        time_s = sum(report.wall_time for report in reports) / repeats
        report = reports[-1]
        rows.append([name, g.n, g.m, algorithm, report.cover_size, f"{time_s:.6f}",
                     node_counts[-1], report.status, seed])
    return rows


def _parse_spec(kind: str, spec: str) -> tuple[tuple, int]:
    """The generator parameters and seed of one --gnp or --bipartite spec."""
    names = GEN_KINDS[kind][1]
    parts = spec.split(",")
    if len(parts) != len(names) + 1:
        raise InputError(f"--{kind} wants {_spec_form(kind)}, got {spec!r}")
    params = tuple(_param_type(name)(x) for name, x in zip(names, parts))
    return params, int(parts[-1])


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        raise InputError(f"--repeats must be at least 1, got {args.repeats}")
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        raise InputError(f"--jobs must lie in [1, {os.cpu_count() or 1}], got {args.jobs}")
    try:
        specs = [(kind, *_parse_spec(kind, spec))
                 for kind in GEN_KINDS for spec in getattr(args, kind) or ()]
    except ValueError as exc:
        raise InputError(f"bad instance spec: {exc}")
    # every instance is resolved here, before any solve: covers are only
    # defined on connected graphs, so a spec scans like gen --connected
    instances = []
    for kind, params, seed in specs:
        g, used = first_connected(GEN_KINDS[kind][0], params, seed)
        instances.append((_instance_name(kind, params, used), used, g))
    instances.extend((Path(path).stem, "", _read_graph(path)) for path in args.files)
    if not instances:
        raise InputError("bench needs at least one --gnp, --bipartite, or file")
    rows_of = partial(_bench_rows, args.algorithm or ["bb"], args.repeats, args.time_limit)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(rows_of, instances))
    else:
        results = [rows_of(instance) for instance in instances]
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["name", "n", "m", "algorithm", "cover", "time_s", "nodes", "status", "seed"])
    for rows in results:
        writer.writerows(rows)
    if args.output:
        _write_text(args.output, table.getvalue())
    else:
        sys.stdout.write(table.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvckit", description="connected vertex cover toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write random DIMACS instances")
    genkind = gen.add_subparsers(dest="kind", required=True)
    for kind, (_, names, _, about) in GEN_KINDS.items():
        sub = genkind.add_parser(kind, help=about)
        for name in names:
            sub.add_argument(f"--{name}", type=_param_type(name), required=True)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--count", type=int, default=1)
        sub.add_argument("--connected", action="store_true",
                         help="scan seeds upward until the sample is connected")
        sub.add_argument("--max-reseeds", type=int, default=1000)
        sub.add_argument("--out", default=".", metavar="DIR")
        sub.set_defaults(func=_cmd_gen)

    slv = subs.add_parser("solve", help="solve one DIMACS instance")
    slv.add_argument("file")
    slv.add_argument("--algorithm", choices=ALGORITHMS, default="bb")
    slv.add_argument("--time-limit", type=float, default=None, metavar="SEC")
    slv.add_argument("--no-warm-start", action="store_true")
    slv.set_defaults(func=_cmd_solve)

    emit = subs.add_parser("emit", help="write a model as an LP file")
    emit.add_argument("file")
    emit.add_argument("--model", choices=("parb", "qr", "pstp"), required=True)
    emit.add_argument("--root", type=int, default=None)
    emit.add_argument("--root2", type=int, default=None)
    emit.add_argument("-o", "--output", default=None)
    emit.set_defaults(func=_cmd_emit)

    ver = subs.add_parser("verify", help="exhaustively check a model on an instance")
    ver.add_argument("file")
    ver.add_argument("--model", choices=("parb", "pstp", "all"), default="parb")
    ver.add_argument("--root", type=int, default=None)
    ver.add_argument("--root2", type=int, default=None)
    ver.add_argument("--out", default=None, metavar="DIR",
                     help="directory for mismatch counterexamples")
    ver.set_defaults(func=_cmd_verify)

    ben = subs.add_parser("bench", help="benchmark solvers to CSV")
    ben.add_argument("files", nargs="*", metavar="FILE")
    for kind in GEN_KINDS:
        ben.add_argument(f"--{kind}", action="append", metavar=_spec_form(kind))
    ben.add_argument("--algorithm", choices=ALGORITHMS, action="append",
                     help="repeatable, one row per algorithm (default: bb)")
    ben.add_argument("--repeats", type=int, default=1)
    ben.add_argument("--jobs", type=int, default=1)
    ben.add_argument("--time-limit", type=float, default=None, metavar="SEC")
    ben.add_argument("-o", "--output", default=None, metavar="CSV")
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CvcKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # reader went away (e.g. piped into head); suppress the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def run() -> None:
    sys.exit(main(sys.argv[1:]))
