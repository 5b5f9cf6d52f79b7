import json
import tracemalloc

import numpy as np
import pytest

from levyfluid.noise import MarkSpace, ZeroNoise
from levyfluid.operators import FluidParams
from levyfluid.reporting import (
    export_ledger_jsonl,
    export_trajectory_csv,
    write_series,
    write_summary,
)
from levyfluid.solver import FluidModel, SolverConfig, run_paths


class TestWriteSeries:
    def test_header_comment_block(self, tmp_path):
        path = tmp_path / "t.csv"
        write_series(path, ("a", "b"), [(1, 2), (3, 4)], units=("s", "m"),
                     config_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash: deadbeef"
        assert lines[1].startswith("# units: a[s], b[m]")
        assert lines[2] == "a,b"
        assert lines[3:] == ["1,2", "3,4"]

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        n = write_series(path, ("a",), [])
        assert n == 0
        assert path.read_text().splitlines() == ["a"]

    def test_unicode_column_names_roundtrip(self, tmp_path):
        import csv

        path = tmp_path / "t.csv"
        cols = ("t", "|u|", "‖u‖₂", "λ̃")
        write_series(path, cols, [(0, 1, 2, 3)])
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == cols

    def test_streams_without_buffering(self, tmp_path):
        # a streaming writer's peak does not grow with the row count; one
        # that buffers the rows grows about tenfold from 20 000 to 200 000
        def peak_at(n_rows):
            rows = ((i, i * 0.5) for i in range(n_rows))
            tracemalloc.start()
            n = write_series(tmp_path / "big.csv", ("i", "x"), rows)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert n == n_rows
            return peak

        small, large = peak_at(20_000), peak_at(200_000)
        assert large < 2 * small, f"peak {small/1e6:.2f} -> {large/1e6:.2f} MB"
        assert large < 4 * 1024 * 1024, f"peak {large/1e6:.1f} MB"

    def test_io_error_names_path(self, tmp_path):
        with pytest.raises(OSError) as err:
            write_series(tmp_path / "no" / "dir.csv", ("a",), [])
        assert "dir.csv" in str(err.value)


class TestSummary:
    def test_byte_stable_and_numpy_safe(self, tmp_path):
        doc = {
            "b": np.float64(1.5),
            "a": np.int64(2),
            "flag": np.bool_(True),
            "arr": np.arange(3),
        }
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        write_summary(p1, doc)
        write_summary(p2, dict(reversed(doc.items())))
        assert p1.read_bytes() == p2.read_bytes()
        loaded = json.loads(p1.read_text())
        assert loaded["arr"] == [0, 1, 2]


@pytest.fixture(scope="module")
def audited():
    marks = MarkSpace(np.array([2.0]))
    cfg = SolverConfig(params=FluidParams(), level=4, dt=1e-2, horizon=0.2)
    model = FluidModel(cfg, ZeroNoise(marks))
    return model, run_paths(model, np.array([[0.5, 0, 0, 0]]), seed=1, track_audit=True)


class TestPathExports:

    def test_csv_series(self, tmp_path, audited):
        model, res = audited
        path = tmp_path / "traj.csv"
        times = np.concatenate([[0.0], res.ledger["t"][:, 0]])
        states = np.concatenate([[[0.5, 0, 0, 0]], res.states[:, 0]])
        jump_times = np.array([0.05, 0.05, 0.15])
        n = export_trajectory_csv(path, times, states, jump_times, model.basis, config_hash="ff")
        assert n == times.size == model.n_steps + 1
        lines = path.read_text().splitlines()
        assert lines[2].split(",") == ["t", "l2", "h1", "h2", "jump_count"]
        rows = [line.split(",") for line in lines[3:]]
        assert [float(r[0]) for r in rows] == pytest.approx(times.tolist())
        assert float(rows[0][1]) == 0.5
        # the jumps up to each time, one counted at its own time
        assert [int(r[4]) for r in rows] == [0] * 5 + [2] * 10 + [3] * 6

    def test_ledger_jsonl(self, tmp_path, audited):
        _, res = audited
        path = tmp_path / "ledger.jsonl"
        ledger = {k: v[:, 0] for k, v in res.ledger.items()}
        export_ledger_jsonl(path, ledger)
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(rows) == ledger["t"].size
        assert [row["l2_post_sq"] for row in rows] == ledger["l2_post_sq"].tolist()
