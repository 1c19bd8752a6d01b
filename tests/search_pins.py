"""Every tier-1 search pin, in one table.

A search pin is a count the search tree fixes: nodes, bound calls, cut
passes, `splitters` group tests, and the open bound of a run stopped
after a fixed number of clock ticks.  A faster primitive must reproduce
each one exactly.  tests/test_bb.py checks each row with one
instrumented solve.  A change to the search re-pins by pasting the
output of

    PYTHONPATH=src python -m tests.search_pins

over SEARCH and TIMEOUT: it prints both in this file's syntax, so the
diff of the paste lists the moved pins.
"""

import itertools
import sys
from collections import Counter, namedtuple
from functools import cache
from types import SimpleNamespace
from unittest.mock import patch

from cvckit import bb
from cvckit.graph import bipartite_random, first_connected, gnp_random

# name -> (generator, its parameters before the seed, the seed
# first_connected scans upward from)
INSTANCES = {
    "G60": (gnp_random, (60, 0.1), 101),
    "G60D": (gnp_random, (60, 0.3), 101),
    "G80": (gnp_random, (80, 0.1), 101),
    "BIP11": (bipartite_random, (30, 30, 0.2), 11),
    "BIP22": (bipartite_random, (30, 30, 0.2), 22),
    "G600": (gnp_random, (600, 0.02), 1),
    **{f"G40-{seed}": (gnp_random, (40, 0.1), seed) for seed in (1, 2, 4, 5)},
}

# the instances of tests that need a long search, so that a faster search
# moves them here
HARD = {
    # bb and vc-bb each make over 300 fresh colorings on these four
    "colorings": ("G40-1", "G40-2", "G40-4", "G40-5"),
    # (instance, algorithm) pairs whose search outlasts 300 ticks, warm or cold
    "ticks": (("G60", "bb"), ("G60", "rds"), ("G60", "vc-bb"), ("BIP11", "bb"), ("BIP11", "rds")),
}

# a solve run to the end: nodes, the optimum cover, bound calls, the calls
# that returned a new cache (a fresh coloring or a repaired matching), cut
# passes, splitters calls and their group tests
Search = namedtuple("Search", "nodes cover calls fresh passes splits tests")
# a solve stopped after `ticks` reads of tick_clock: the open bound
# (stable-set side), the cover, bound calls and the roots built
Open = namedtuple("Open", "bound cover calls roots")
HEADERS = {
    "SEARCH": "# (instance, algorithm): Search(nodes, cover, calls, fresh, passes, splits, tests)",
    "TIMEOUT": "# (instance, algorithm, ticks, warm start): Open(bound, cover, calls, roots)",
}

SEARCH = {
    # (instance, algorithm): Search(nodes, cover, calls, fresh, passes, splits, tests)
    ("G60", "bb"): Search(1557, 37, 1537, 637, 1, 768, 1386),
    ("G60", "rds"): Search(816, 37, 787, 342, 1, 423, 533),
    ("G60", "vc-bb"): Search(1031, 37, 1011, 437, 0, 0, 0),
    ("G60D", "bb"): Search(775, 48, 766, 417, 1, 382, 382),
    ("G60D", "rds"): Search(1200, 48, 1177, 679, 1, 618, 618),
    ("G80", "bb"): Search(8705, 54, 8689, 3696, 1, 4344, 5034),
    ("G80", "rds"): Search(9754, 54, 9729, 4133, 1, 4904, 5636),
    ("G80", "vc-bb"): Search(5359, 53, 5341, 2316, 0, 0, 0),
    ("BIP11", "bb"): Search(11487, 34, 11460, 749, 1, 5737, 37841),
    ("BIP11", "rds"): Search(6640, 34, 6473, 1689, 1, 3334, 14986),
    ("BIP11", "vc-bb"): Search(61, 30, 59, 12, 0, 0, 0),
    ("BIP22", "bb"): Search(12273, 35, 12259, 3217, 1, 6129, 37851),
    ("BIP22", "rds"): Search(12084, 35, 12043, 4096, 1, 6052, 34282),
    ("G40-1", "bb"): Search(411, 24, 403, 155, 1, 201, 839),
    ("G40-1", "vc-bb"): Search(275, 23, 267, 108, 0, 0, 0),
    ("G40-2", "bb"): Search(523, 21, 511, 199, 1, 255, 917),
    ("G40-2", "vc-bb"): Search(197, 20, 185, 82, 0, 0, 0),
    ("G40-4", "bb"): Search(387, 23, 379, 158, 1, 189, 657),
    ("G40-4", "vc-bb"): Search(159, 22, 151, 69, 0, 0, 0),
    ("G40-5", "bb"): Search(981, 23, 969, 351, 1, 484, 1768),
    ("G40-5", "vc-bb"): Search(345, 23, 337, 138, 0, 0, 0),
}

TIMEOUT = {
    # (instance, algorithm, ticks, warm start): Open(bound, cover, calls, roots)
    ("BIP11", "bb", 1000, True): Open(30, 37, 989, 1),
    ("BIP11", "rds", 1000, True): Open(30, 41, 973, 60),
    ("G80", "bb", 1000, True): Open(36, 55, 986, 1),
    ("G80", "rds", 1000, True): Open(32, 55, 998, 80),
    ("G60", "bb", 0.5, True): Open(28, 51, 1, 1),
    ("G60", "rds", 0.5, True): Open(25, 51, 50, 60),
    ("G60", "bb", 0.5, False): Open(28, 60, 1, 1),
    ("G60", "rds", 0.5, False): Open(25, 59, 58, 60),
    ("G600", "rds", 0.5, True): Open(284, 552, 552, 600),
}

def tick_clock():
    """A stand-in for cvckit.bb's `time` whose clock ticks once per read,
    and its tick counter.  A time limit of k then stops the search after
    exactly k nodes: the clock is read once to start and once before each
    node."""
    ticks = itertools.count()
    return SimpleNamespace(perf_counter=lambda: float(next(ticks))), ticks


@cache
def graph(name):
    generate, params, seed = INSTANCES[name]
    return first_connected(generate, params, seed)[0]


Measured = namedtuple("Measured", "report counts roots")


@cache
def measure(name, algorithm, ticks=None, warm=True):
    """One solve of an instance, counting calls at the names `solve` looks
    up in cvckit.bb, with a limit of `ticks` on tick_clock if given: the
    report, a Counter of the calls (bound calls also by function name)
    and the roots the search started from."""
    counts, roots = Counter(), []
    original = {attr: getattr(bb, attr) for attr in (
        "color_bound_cached", "bipartite_alpha", "articulation_points_mask", "splitters", "_roots")}

    def bound(kind):
        def counted(masks, umask, cache):
            value, out = original[kind](masks, umask, cache)
            counts.update({kind: 1, "calls": 1, "fresh": int(out is not cache)})
            return value, out
        return counted

    def counted_pass(*args):
        counts["passes"] += 1
        return original["articulation_points_mask"](*args)

    def on_event(frame, event, arg):
        # a group test is one pop of the splitters stack
        counts["tests"] += event == "c_call" and getattr(arg, "__name__", "") == "pop"

    def counted_splitters(*args):
        counts["splits"] += 1
        sys.setprofile(on_event)
        try:
            return original["splitters"](*args)
        finally:
            sys.setprofile(None)

    def counted_roots(*args):
        out = original["_roots"](*args)
        roots.extend(out)
        return out

    patches = dict(color_bound_cached=bound("color_bound_cached"),
                   bipartite_alpha=bound("bipartite_alpha"),
                   articulation_points_mask=counted_pass,
                   splitters=counted_splitters, _roots=counted_roots)
    if ticks is not None:
        patches["time"] = tick_clock()[0]
    with patch.multiple(bb, **patches):
        report = bb.solve(graph(name), algorithm, time_limit=ticks, warm_start=warm)
    return Measured(report, counts, roots)


def row(run):
    """The table row of a measured solve: a Search if it ran to the end,
    else an Open."""
    r, c = run.report, run.counts
    if r.status == "optimal":
        return Search(r.node_count, r.cover_size, c["calls"], c["fresh"], c["passes"],
                      c["splits"], c["tests"])
    return Open(r.best_bound, r.cover_size, c["calls"], len(run.roots))


def table_text(tables):
    """Tables by name (SEARCH, TIMEOUT), written as this file writes them."""
    return "\n\n".join("\n".join([
        f"{name} = {{",
        f"    {HEADERS[name]}",
        *(f"    {key!r}: {type(pin).__name__}{tuple(pin)},".replace("'", '"')
          for key, pin in table.items()),
        "}",
    ]) for name, table in tables.items())


if __name__ == "__main__":
    print(table_text({"SEARCH": {key: row(measure(*key)) for key in SEARCH},
                      "TIMEOUT": {key: row(measure(*key)) for key in TIMEOUT}}))
