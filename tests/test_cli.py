"""Command-line interface, driven in-process through main(argv)."""

import csv
import io
import os

import pytest

from cvckit.bb import ALGORITHMS, SolveReport
from cvckit.cli import main
from cvckit.graph import parse_dimacs, write_dimacs
from cvckit.mip import build_parb, build_pstp, build_qr, default_roots, write_lp
from cvckit.oracle import brute_force_cvc, brute_force_vc
from tests.conftest import connected_gnp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def instance(tmp_path):
    g = connected_gnp(9, 0.4, 31)
    path = tmp_path / "g9.col"
    path.write_text(write_dimacs(g), encoding="ascii")
    return g, path


class TestGen:
    def test_writes_deterministic_files(self, tmp_path, capsys):
        args = ("gen", "gnp", "--n", "10", "--p", "0.3", "--seed", "4",
                "--count", "2", "--out", str(tmp_path))
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        names = [line.rsplit("/", 1)[-1] for line in out.splitlines()]
        assert names == ["G_gnp_10_030_s4.col", "G_gnp_10_030_s5.col"]
        first = (tmp_path / names[0]).read_text(encoding="ascii")
        again = tmp_path / "again"
        run_cli(capsys, "gen", "gnp", "--n", "10", "--p", "0.3", "--seed", "4",
                "--out", str(again))
        assert (again / names[0]).read_text(encoding="ascii") == first
        g = parse_dimacs(first)
        assert g.n == 10

    def test_connected_scans_seeds(self, tmp_path, capsys):
        # seed 5 at n=12, p=0.3 happens to be disconnected; the scan moves on
        code, out, _ = run_cli(capsys, "gen", "gnp", "--n", "12", "--p", "0.3",
                               "--seed", "5", "--connected", "--out", str(tmp_path))
        assert code == 0
        name = out.strip().rsplit("/", 1)[-1]
        assert name == "G_gnp_12_030_s6.col"

    def test_connected_scan_runs_out(self, tmp_path, capsys):
        # every draw of G(5, 0) is edgeless; no --out directory is made
        outdir = tmp_path / "none"
        code, out, err = run_cli(capsys, "gen", "gnp", "--n", "5", "--p", "0", "--seed", "1",
                                 "--connected", "--out", str(outdir))
        assert code == 3 and out == ""
        assert err == "error: no connected sample within 1000 reseeds from seed 1\n"
        assert not outdir.exists()

    def test_bipartite_and_bad_probability(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gen", "bipartite", "--n1", "3", "--n2", "4",
                               "--p", "0.5", "--seed", "2", "--out", str(tmp_path))
        assert code == 0
        assert out.strip().endswith("G_bip_3_4_050_s2.col")
        code, _, err = run_cli(capsys, "gen", "gnp", "--n", "5", "--p", "1.5",
                               "--seed", "1", "--out", str(tmp_path))
        assert code == 3 and "probability" in err

    def test_distinct_p_get_distinct_names(self, tmp_path, capsys):
        # 0.1 and 0.105 round to the same percent; neither file may
        # overwrite the other
        names = {}
        for p in ("0.1", "0.105", "0.1049", "0.07", "0.29", "0.00001", "1.5e-9", "5e-324"):
            code, out, _ = run_cli(capsys, "gen", "gnp", "--n", "30", "--p", p,
                                   "--seed", "1", "--out", str(tmp_path))
            assert code == 0
            names[p] = out.strip().rsplit("/", 1)[-1]
        assert names == {
            "0.1": "G_gnp_30_010_s1.col",
            "0.105": "G_gnp_30_010p5_s1.col",
            "0.1049": "G_gnp_30_010p49_s1.col",
            "0.07": "G_gnp_30_007_s1.col",
            "0.29": "G_gnp_30_029_s1.col",
            "0.00001": "G_gnp_30_000p001_s1.col",
            "1.5e-9": "G_gnp_30_001p5E-7_s1.col",
            "5e-324": "G_gnp_30_5E-322_s1.col",
        }
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names.values())

    @pytest.mark.parametrize("flag,value", [("--count", "0"), ("--max-reseeds", "-1")])
    def test_range_checks(self, tmp_path, capsys, flag, value):
        code, out, err = run_cli(capsys, "gen", "gnp", "--n", "5", "--p", "0.5",
                                 "--seed", "1", "--connected", flag, value,
                                 "--out", str(tmp_path))
        assert code == 3 and out == "" and err.startswith("error:") and flag in err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="ascii")
        code, out, err = run_cli(capsys, "gen", "gnp", "--n", "5", "--p", "0.5",
                                 "--seed", "1", "--out", str(taken))
        assert code == 3 and out == "" and err.startswith("error: cannot create")


class TestSolve:
    def test_optimal_run(self, instance, capsys):
        g, path = instance
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        fields = dict(kv.split("=") for kv in out.splitlines()[0].split())
        assert fields["status"] == "optimal" and fields["n"] == "9"
        cover = [int(v) for v in out.splitlines()[1].split()[1:]]
        assert len(cover) == int(fields["cover_size"])

    def test_algorithms_agree(self, instance, capsys):
        _, path = instance
        _, out_bb, _ = run_cli(capsys, "solve", str(path))
        _, out_rds, _ = run_cli(capsys, "solve", str(path), "--algorithm", "rds")
        size = lambda out: out.splitlines()[0].split("cover_size=")[1].split()[0]
        assert size(out_bb) == size(out_rds)
        assert "algorithm=rds" in out_rds

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_algorithm_choices(self, instance, capsys, algorithm):
        _, path = instance
        code, out, _ = run_cli(capsys, "solve", str(path), "--algorithm", algorithm)
        assert code == 0 and f" algorithm={algorithm} " in out

    def test_vc_mode(self, instance, capsys):
        # plain vertex cover is an algorithm, not a flag: --vc is a usage error
        g, path = instance
        code, out, _ = run_cli(capsys, "solve", str(path), "--algorithm", "vc-bb",
                               "--no-warm-start")
        assert code == 0 and f" cover_size={brute_force_vc(g)} " in out
        code, out, err = run_cli(capsys, "solve", str(path), "--vc")
        assert code == 2 and out == "" and "--vc" in err

    def test_nan_time_limit(self, instance, capsys):
        # NaN fails every comparison, so unless rejected it would mean no limit
        _, path = instance
        code, out, err = run_cli(capsys, "solve", str(path), "--time-limit", "nan")
        assert code == 3 and out == "" and err.startswith("error: time limit")
        code, out, _ = run_cli(capsys, "solve", str(path), "--time-limit", "inf")
        assert code == 0 and "status=optimal" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "nowhere.col")
        assert code == 3 and "cannot read" in err

    def test_non_ascii_file(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_bytes(b"p edge 2 1\ne 1 2\nc \xff\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: cannot read") and "0xff" in err

    def test_time_limit_exit_code(self, tmp_path, capsys):
        g = connected_gnp(60, 0.08, 7)
        path = tmp_path / "big.col"
        path.write_text(write_dimacs(g), encoding="ascii")
        code, out, _ = run_cli(capsys, "solve", str(path), "--time-limit", "1e-6")
        assert code == 4 and "status=time_limit" in out


class TestEmit:
    def test_matches_library_output(self, instance, capsys):
        g, path = instance
        # qr with no root takes the first default root
        r = default_roots(g)[0]
        assert r != 0
        for args, model in [
            (("--model", "parb"), build_parb(g)),
            (("--model", "qr", "--root", "0"), build_qr(g, 0)),
            (("--model", "qr"), build_qr(g, r)),
            (("--model", "pstp"), build_pstp(g)),
        ]:
            code, out, _ = run_cli(capsys, "emit", str(path), *args)
            assert code == 0 and out == write_lp(model), args

    def test_output_file_and_root_validation(self, instance, tmp_path, capsys):
        _, path = instance
        target = tmp_path / "model.lp"
        code, out, _ = run_cli(capsys, "emit", str(path), "--model", "parb",
                               "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="ascii").endswith("End\n")
        code, _, err = run_cli(capsys, "emit", str(path), "--model", "pstp",
                               "--root", "0")
        assert code == 3 and "no roots" in err
        code, _, err = run_cli(capsys, "emit", str(path), "--model", "qr",
                               "--root", "0", "--root2", "1")
        assert code == 3 and "takes one root" in err

    def test_unwritable_output(self, instance, tmp_path, capsys):
        _, path = instance
        target = tmp_path / "missing" / "model.lp"
        code, out, err = run_cli(capsys, "emit", str(path), "--model", "parb",
                                 "-o", str(target))
        assert code == 3 and out == "" and err.startswith("error: cannot write")


class TestVerify:
    def test_both_models_pass(self, tmp_path, capsys):
        g = connected_gnp(7, 0.45, 11)
        path = tmp_path / "g7.col"
        path.write_text(write_dimacs(g), encoding="ascii")
        code, out, _ = run_cli(capsys, "verify", str(path), "--model", "all")
        assert code == 0
        assert out == "parb: ok\npstp: ok\n"

    def test_roots_reach_parb_only(self, tmp_path, capsys, monkeypatch):
        g = connected_gnp(6, 0.5, 11)
        path = tmp_path / "g6.col"
        path.write_text(write_dimacs(g), encoding="ascii")
        code, out, err = run_cli(capsys, "verify", str(path), "--model", "pstp",
                                 "--root", "3", "--root2", "99")
        assert code == 3 and out == "" and "no roots" in err
        seen = []
        monkeypatch.setattr(
            "cvckit.cli.find_parb_mismatch", lambda g, r, r1: seen.append((r, r1))
        )
        code, out, _ = run_cli(capsys, "verify", str(path), "--model", "all",
                               "--root", "3")
        assert code == 0 and out == "parb: ok\npstp: ok\n" and seen == [(3, None)]

    def test_cap_is_an_input_error(self, instance, tmp_path, capsys):
        g = connected_gnp(12, 0.3, 6)
        path = tmp_path / "g12.col"
        path.write_text(write_dimacs(g), encoding="ascii")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 3 and "refuses" in err

    def test_mismatch_writes_counterexample(self, instance, tmp_path, capsys, monkeypatch):
        _, path = instance
        monkeypatch.setattr(
            "cvckit.cli.find_parb_mismatch", lambda g, r, r1: frozenset({0, 2})
        )
        code, out, _ = run_cli(capsys, "verify", str(path), "--out", str(tmp_path))
        assert code == 5 and "MISMATCH on {0 2}" in out
        dump = (tmp_path / "g9.mismatch.col").read_text(encoding="ascii")
        assert dump.startswith("c mismatch_set 0 2\n")
        parse_dimacs(dump)  # still a readable instance

    def test_all_skips_pstp_above_its_cap(self, instance, capsys):
        _, path = instance
        code, out, _ = run_cli(capsys, "verify", str(path), "--model", "all")
        assert code == 0
        assert out == "parb: ok\npstp: skipped (n=9 is above its cap of 8)\n"
        code, out, err = run_cli(capsys, "verify", str(path), "--model", "pstp")
        assert code == 3 and out == "" and "refuses n=9" in err

    def test_pstp_mismatch_names_its_set(self, tmp_path, capsys, monkeypatch):
        g = connected_gnp(7, 0.45, 11)
        path = tmp_path / "g7.col"
        path.write_text(write_dimacs(g), encoding="ascii")
        monkeypatch.setattr("cvckit.cli.find_pstp_mismatch", lambda g: frozenset({3, 1}))
        code, out, _ = run_cli(capsys, "verify", str(path), "--model", "all",
                               "--out", str(tmp_path))
        dump = tmp_path / "g7.pstp.mismatch.col"
        assert code == 5
        assert out == f"parb: ok\npstp: MISMATCH on {{1 3}}, wrote {dump}\n"
        assert dump.read_text(encoding="ascii").startswith("c mismatch_set 1 3\n")
        assert not (tmp_path / "g7.mismatch.col").exists()

    def test_unwritable_counterexample(self, instance, tmp_path, capsys, monkeypatch):
        _, path = instance
        monkeypatch.setattr(
            "cvckit.cli.find_parb_mismatch", lambda g, r, r1: frozenset({0, 2})
        )
        code, _, err = run_cli(capsys, "verify", str(path),
                               "--out", str(tmp_path / "missing"))
        assert code == 3 and err.startswith("error: cannot write")


class TestBench:
    HEADER = "name,n,m,algorithm,cover,time_s,nodes,status,seed"

    def test_csv_shape(self, instance, capsys):
        _, path = instance
        code, out, _ = run_cli(capsys, "bench", str(path), "--gnp", "8,0.4,3",
                               "--algorithm", "bb", "--algorithm", "rds", "--repeats", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == self.HEADER
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4  # two instances x two algorithms
        assert [row["algorithm"] for row in rows] == ["bb", "rds"] * 2
        for row in rows:
            assert row["status"] == "optimal"
        generated = [r for r in rows if r["name"].startswith("G_gnp_8")]
        assert all(r["seed"] == "3" for r in generated)
        from_file = [r for r in rows if r["name"] == "g9"]
        assert all(r["seed"] == "" for r in from_file)

    def test_output_file_and_jobs(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "bench", "--gnp", "8,0.4,3",
                               "--bipartite", "3,4,0.6,1", "--jobs", "2",
                               "-o", str(target))
        assert code == 0 and out == ""
        with target.open() as handle:
            rows = list(csv.DictReader(handle))
        assert {r["name"][:5] for r in rows} == {"G_gnp", "G_bip"}
        assert {r["algorithm"] for r in rows} == {"bb"}  # the default

    def test_one_row_per_algorithm(self, instance, capsys):
        g, path = instance
        args = [arg for algorithm in ALGORITHMS for arg in ("--algorithm", algorithm)]
        code, out, _ = run_cli(capsys, "bench", str(path), *args)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["algorithm"] for row in rows] == list(ALGORITHMS)
        cvc = brute_force_cvc(g)[1]
        expected = {"bb": cvc, "rds": cvc, "vc-bb": brute_force_vc(g)}
        assert {row["algorithm"]: int(row["cover"]) for row in rows} == expected

    def test_instances_resolve_before_any_solve(self, capsys, monkeypatch):
        # a missing file ends the run before a worker pool starts
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr("cvckit.cli.os.cpu_count", lambda: 2)
        monkeypatch.setattr("cvckit.cli.ProcessPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, "bench", "--gnp", "8,0.4,3", "--jobs", "2",
                                 "missing.col")
        assert code == 3 and out == "" and err.startswith("error: cannot read missing.col")

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(capsys, "bench", "--gnp", "8,0.4,3", "-o", str(target))
        assert code == 3 and out == "" and err.startswith("error: cannot write")

    def test_vc_bb_row_is_the_optimum(self, capsys):
        # n = 40 is past the brute-force cap; the vc-bb row is its own solve
        code, out, _ = run_cli(capsys, "bench", "--gnp", "40,0.1,1", "--algorithm", "vc-bb")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert (row["n"], row["algorithm"], row["cover"], row["status"]) == (
            "40", "vc-bb", "23", "optimal")

    def test_vc_bb_row_at_time_limit(self, capsys):
        # the solve stops at once: its row says so, and its cover is only
        # an incumbent, no smaller than the optimum 23
        code, out, _ = run_cli(capsys, "bench", "--gnp", "40,0.1,1", "--algorithm", "vc-bb",
                               "--time-limit", "1e-6")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["status"] == "time_limit" and int(row["cover"]) >= 23

    def test_node_counts_varied_across_repeats(self, capsys, monkeypatch):
        # the solver is deterministic, so a repeat that visits another
        # number of nodes is warned about; the row reports the maximum
        counts = iter([5, 7])
        monkeypatch.setattr(
            "cvckit.cli.solve",
            lambda g, algorithm, time_limit: SolveReport(
                frozenset(), 0, next(counts), 0.0, "optimal", 0, algorithm),
        )
        with pytest.warns(UserWarning, match="node counts varied"):
            code, out, _ = run_cli(capsys, "bench", "--gnp", "8,0.4,3", "--repeats", "2")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["nodes"] == "7"

    def test_bad_specs(self, capsys):
        code, _, err = run_cli(capsys, "bench")
        assert code == 3 and "at least one" in err
        # a spec of the wrong length names the form its kind wants
        code, _, err = run_cli(capsys, "bench", "--gnp", "30,0.1")
        assert (code, err) == (3, "error: bad instance spec: --gnp wants N,P,SEED, got '30,0.1'\n")
        code, _, err = run_cli(capsys, "bench", "--bipartite", "3,4,0.5")
        assert (code, err) == (
            3, "error: bad instance spec: --bipartite wants N1,N2,P,SEED, got '3,4,0.5'\n")
        code, _, err = run_cli(capsys, "bench", "--gnp", "8,x,1")
        assert code == 3
        # a generator's own refusal is not a malformed spec
        code, _, err = run_cli(capsys, "bench", "--gnp", "8,1.5,1")
        assert (code, err) == (3, "error: edge probability must be a number in [0, 1], got 1.5\n")

    # every rejected value fails before any solve or worker pool starts
    @pytest.mark.parametrize(
        "flag,value",
        [("--repeats", 0), ("--jobs", 0), ("--jobs", (os.cpu_count() or 1) + 1)],
    )
    def test_range_checks(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "bench", "--gnp", "8,0.4,3", flag, str(value))
        assert code == 3 and out == "" and err.startswith("error:") and flag in err


class TestUsage:
    def test_argparse_exits_map_to_two(self, capsys):
        assert run_cli(capsys, )[0] == 2
        assert run_cli(capsys, "frobnicate")[0] == 2
        assert run_cli(capsys, "solve")[0] == 2
        assert run_cli(capsys, "--help")[0] == 0
