import json
import os
import subprocess
import sys

import numpy as np
import pytest

import shapesplit
from shapesplit import read_labelmap, write_labelmap, write_mask
from shapesplit.cli import main

from conftest import make_c_annulus


def put_mask(tmp_path, name, mask):
    path = tmp_path / name
    path.write_bytes(write_mask(mask))
    return path


@pytest.fixture
def rect_pgm(tmp_path):
    return put_mask(tmp_path, "rect64x16.pgm", np.ones((16, 64), dtype=bool))


@pytest.fixture
def strip_pgm(tmp_path):
    return put_mask(tmp_path, "strip.pgm", np.ones((1, 9), dtype=bool))


class TestSubdivideCommand:
    def test_rectangle_k4(self, rect_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        code = main(["subdivide", "--input", str(rect_pgm), "--k", "4", "--output", str(out)])
        assert code == 0
        labels = read_labelmap(out.read_bytes())
        assert set(np.unique(labels).tolist()) <= {0, 1, 2, 3, 4}
        assert [int((labels == j).sum()) for j in range(1, 5)] == [256] * 4

    def test_k_zero_exits_1_with_usage(self, rect_pgm, tmp_path, capsys):
        code = main(["subdivide", "--input", str(rect_pgm), "--k", "0", "--output", str(tmp_path / "o.pgm")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err
        assert "--k" in err

    def test_k_too_large_exits_2(self, strip_pgm, tmp_path, capsys):
        out = tmp_path / "o.pgm"
        code = main(["subdivide", "--input", str(strip_pgm), "--k", "500", "--output", str(out)])
        assert code == 2
        assert "k too large" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["subdivide", "--input", str(tmp_path / "nope.pgm"), "--k", "2", "--output", str(tmp_path / "o.pgm")])
        assert code == 1
        assert capsys.readouterr().err

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n2 2\n255\n0 1\n")  # truncated
        code = main(["subdivide", "--input", str(bad), "--k", "2", "--output", str(tmp_path / "o.pgm")])
        assert code == 1
        assert "byte offset" in capsys.readouterr().err

    def test_disconnected_mask_exits_2(self, tmp_path, capsys):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0:2, 0:2] = True
        mask[6:8, 6:8] = True
        src = put_mask(tmp_path, "two.pgm", mask)
        out = tmp_path / "o.pgm"
        code = main(["subdivide", "--input", str(src), "--k", "2", "--output", str(out)])
        assert code == 2
        assert "not connected" in capsys.readouterr().err
        assert not out.exists()

    def test_output_directory_exits_1_and_leaves_no_part_file(self, rect_pgm, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["subdivide", "--input", str(rect_pgm), "--k", "4", "--output", str(out)])
        assert code == 1
        assert "shapesplit: error:" in capsys.readouterr().err
        assert out.is_dir() and not list(out.iterdir())
        assert not (tmp_path / "out.part").exists()

    def test_dump_artifacts(self, rect_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        dump = tmp_path / "dump"
        code = main([
            "subdivide", "--input", str(rect_pgm), "--k", "4",
            "--output", str(out), "--dump", str(dump),
        ])
        assert code == 0
        names = {p.name for p in dump.iterdir()}
        assert names == {
            "distance.csv", "arrival1.csv", "arrival2.csv",
            "centerline.csv", "cuts.csv", "stats.jsonl",
        }
        centerline = (dump / "centerline.csv").read_text().splitlines()
        assert all(len(line.split(",")) == 2 for line in centerline)
        cuts = (dump / "cuts.csv").read_text().splitlines()
        assert len(cuts) == 3
        assert all(len(line.split(",")) == 4 for line in cuts)
        stats = [json.loads(line) for line in (dump / "stats.jsonl").read_text().splitlines()]
        assert [s["area"] for s in stats] == [256] * 4
        distance = (dump / "distance.csv").read_text().splitlines()
        assert len(distance) == 16
        assert all(len(line.split(",")) == 64 for line in distance)

    def test_no_balance_flag(self, rect_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        code = main(["subdivide", "--input", str(rect_pgm), "--k", "4", "--output", str(out), "--no-balance"])
        assert code == 0
        labels = read_labelmap(out.read_bytes())
        assert int((labels > 0).sum()) == 1024

    def test_exponent_flag(self, rect_pgm, tmp_path):
        out = tmp_path / "out.pgm"
        code = main(["subdivide", "--input", str(rect_pgm), "--k", "2", "--output", str(out), "--exponent", "2"])
        assert code == 0

    @pytest.mark.parametrize("exponent, code, message", [
        ("30", 3, "stuck at non-source local minimum"),
        ("400", 2, "exponent 400 is too large"),
        ("-2000", 2, "potential must be positive and finite on the domain"),
    ])
    def test_large_exponent_exit_codes(self, tmp_path, capsys, exponent, code, message):
        src = put_mask(tmp_path, "c.pgm", make_c_annulus())
        out = tmp_path / "o.pgm"
        argv = ["subdivide", "--input", str(src), "--k", "16", "--output", str(out), "--exponent", exponent]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_reruns(self, tmp_path):
        src = put_mask(tmp_path, "c.pgm", make_c_annulus())
        payloads = []
        dumps = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}.pgm"
            dump = tmp_path / f"dump_{tag}"
            assert main([
                "subdivide", "--input", str(src), "--k", "16",
                "--output", str(out), "--dump", str(dump),
            ]) == 0
            payloads.append(out.read_bytes())
            dumps.append({p.name: p.read_bytes() for p in dump.iterdir()})
        assert payloads[0] == payloads[1]
        assert dumps[0] == dumps[1]


class TestCenterlineCommand:
    def test_strip(self, strip_pgm, tmp_path):
        out = tmp_path / "line.csv"
        code = main(["centerline", "--input", str(strip_pgm), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9
        assert lines[0] in ("0,0", "8,0")

    def test_rectangle_band(self, rect_pgm, tmp_path):
        out = tmp_path / "line.csv"
        assert main(["centerline", "--input", str(rect_pgm), "--output", str(out)]) == 0
        pts = [tuple(map(int, line.split(","))) for line in out.read_text().splitlines()]
        length = len(pts)
        for i, (_, y) in enumerate(pts):
            if min(i, length - 1 - i) >= 8:
                assert y in (7, 8)

    def test_disconnected_exits_2(self, tmp_path):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[3, 3] = True
        src = put_mask(tmp_path, "two.pgm", mask)
        out = tmp_path / "line.csv"
        assert main(["centerline", "--input", str(src), "--output", str(out)]) == 2
        assert not out.exists()


class TestStatsCommand:
    def test_zero_map(self, tmp_path, capsys):
        src = tmp_path / "zero.pgm"
        src.write_bytes(write_labelmap(np.zeros((4, 4), dtype=np.int32)))
        assert main(["stats", "--input", str(src)]) == 0
        assert capsys.readouterr().out == ""

    def test_areas_match_recount(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 5, (16, 16)).astype(np.int32)
        src = tmp_path / "lab.pgm"
        src.write_bytes(write_labelmap(labels))
        assert main(["stats", "--input", str(src)]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["label"] for r in records] == [1, 2, 3, 4]
        for r in records:
            assert r["area"] == int((labels == r["label"]).sum())


class TestParsing:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["subdivide", "--k", "4"]) == 1

    def test_one_process_writes_what_separate_processes_write(self, rect_pgm, tmp_path, capsys):
        # main builds its parser once per process: two calls with different
        # --k, a usage error between them, leave the files, exit codes and
        # messages of three separate runs
        def calls(top):
            top.mkdir()
            return [
                ["subdivide", "--input", str(rect_pgm), "--k", "2", "--output", str(top / "2.pgm"),
                 "--dump", str(top / "dump")],
                ["subdivide", "--input", str(rect_pgm), "--k", "x", "--output", str(top / "x.pgm")],
                ["subdivide", "--input", str(rect_pgm), "--k", "3", "--output", str(top / "3.pgm")],
            ]

        def files(top):
            return {p.relative_to(top).as_posix(): p.read_bytes() for p in top.rglob("*") if p.is_file()}

        one = []
        for argv in calls(tmp_path / "one"):
            one.append((main(argv), capsys.readouterr().err))
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(shapesplit.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        apart = []
        for argv in calls(tmp_path / "apart"):
            proc = subprocess.run([sys.executable, "-m", "shapesplit", *argv], capture_output=True, env=env)
            apart.append((proc.returncode, proc.stderr.decode()))
        assert [code for code, _ in one] == [0, 1, 0]
        assert one == apart
        assert files(tmp_path / "one") == files(tmp_path / "apart")
        assert len(files(tmp_path / "one")) == 8

    def test_module_entry_point(self, tmp_path):
        src = put_mask(tmp_path, "strip.pgm", np.ones((1, 9), dtype=bool))
        out = tmp_path / "o.csv"
        # The child must import the same shapesplit as this process.
        package_root = os.path.dirname(os.path.dirname(shapesplit.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "shapesplit", "centerline", "--input", str(src), "--output", str(out)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert out.exists()
