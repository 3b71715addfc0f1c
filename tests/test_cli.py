import json

import numpy as np
import pytest

from timelock import Trial, trialio


def _read_values(path):
    return trialio.read_trial_csv(path).samples


def _synth(run_cli, path, *extra):
    code, _, err = run_cli("synth", "-o", path, *extra)
    assert code == 0, err
    return path


class TestSynthCommand:
    def test_default_trial_file(self, run_cli, tmp_path):
        out = tmp_path / "trial.csv"
        _synth(run_cli, out)
        text = out.read_text()
        assert text.startswith("# f_samp: 2048.0\n")
        trial = trialio.read_trial_csv(out)
        assert len(trial) == 8192
        sidecar = tmp_path / "trial.events.json"
        events = json.loads(sidecar.read_text())["events"]
        assert [e["index"] for e in events] == [2048, 4096, 6144]

    def test_one_second_duration(self, run_cli, tmp_path):
        out = _synth(run_cli, tmp_path / "t.csv", "--duration", "1")
        assert len(_read_values(out)) == 2048

    def test_nyquist_violation_exits_3(self, run_cli, tmp_path):
        code, _, err = run_cli("synth", "-o", tmp_path / "t.csv",
                               "--f1", "600", "--f2", "700", "--f-samp", "1024")
        assert code == 3
        assert "error" in err

    def test_roundtrip_read(self, run_cli, tmp_path):
        out = _synth(run_cli, tmp_path / "t.csv", "--duration", "0.25")
        trial = trialio.read_trial_csv(out)
        assert trial.f_samp == 2048.0
        assert np.all(np.isfinite(trial.samples))


class TestWarpCommand:
    @pytest.fixture
    def demo_2400(self, run_cli, tmp_path):
        # 2400-sample variant of the demonstration trial: 600-sample warpable
        # intervals, so the 480/720 contraction-expansion split preserves length
        path = tmp_path / "demo.csv"
        _synth(run_cli, path, "--duration", str(2400 / 2048))
        trial = trialio.read_trial_csv(path)
        assert len(trial) == 2400
        return path

    def test_identity_warp(self, run_cli, tmp_path, demo_2400):
        out = tmp_path / "warped.csv"
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", out,
                               "--t1-target", 600, "--t2-target", 600)
        assert code == 0, err
        assert np.abs(_read_values(out) - _read_values(demo_2400)).max() <= 1e-9
        report = json.loads((tmp_path / "warped.report.json").read_text())
        assert report["intervals"]["t1"]["correlation"] == pytest.approx(1.0, abs=1e-12)
        assert report["intervals"]["t2"]["correlation"] == pytest.approx(1.0, abs=1e-12)

    def test_contraction_expansion_split(self, run_cli, tmp_path, demo_2400):
        out = tmp_path / "warped.csv"
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", out,
                               "--t1-target", 480, "--t2-target", 720,
                               "--pad-fraction", 0.10)
        assert code == 0, err
        assert len(_read_values(out)) == 2400
        report = json.loads((tmp_path / "warped.report.json").read_text())
        assert report["ratios"]["t1"] == 1.25
        for interval in report["intervals"].values():
            assert interval["correlation"] >= 0.85
        events = json.loads((tmp_path / "warped.events.json").read_text())["events"]
        assert [e["index"] for e in events] == [600, 1080, 1800]

    def test_inline_event_flags(self, run_cli, tmp_path, demo_2400):
        out = tmp_path / "warped.csv"
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", out,
                               "--onset", 600, "--transition", 1200, "--offset", 1800,
                               "--t1-target", 600, "--t2-target", 600)
        assert code == 0, err

    def test_partial_event_flags_exit_2(self, run_cli, tmp_path, demo_2400):
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--onset", 600, "--t1-target", 600, "--t2-target", 600)
        assert code == 2
        assert "together" in err

    def test_missing_events_exit_2(self, run_cli, tmp_path, demo_2400):
        (tmp_path / "demo.events.json").unlink()
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 600, "--t2-target", 600)
        assert code == 2

    def test_malformed_row_exit_2_with_line_number(self, run_cli, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# f_samp: 100.0\n0.5\nnot-a-number\n1.0\n")
        code, _, err = run_cli("warp", "-i", bad, "-o", tmp_path / "w.csv",
                               "--onset", 0, "--transition", 1, "--offset", 2,
                               "--t1-target", 1, "--t2-target", 1)
        assert code == 2
        assert "line 3" in err

    def test_one_sample_target(self, run_cli, tmp_path):
        # a one-sample interval has no correlation; the report says NaN
        seed = _synth(run_cli, tmp_path / "one.csv", "--duration", "1")
        out = tmp_path / "w.csv"
        code, _, err = run_cli("warp", "-i", seed, "-o", out,
                               "--t1-target", 1, "--t2-target", 1023)
        assert code == 0, err
        assert len(_read_values(out)) == 2048
        report = json.loads((tmp_path / "w.report.json").read_text())
        assert np.isnan(report["intervals"]["t1"]["correlation"])
        assert report["intervals"]["t1"]["ratio"] == 512.0

    def test_non_preserving_needs_flag(self, run_cli, tmp_path, demo_2400):
        args = ("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                "--t1-target", 480, "--t2-target", 600)
        code, _, err = run_cli(*args)
        assert code == 3
        code, _, err = run_cli(*args, "--no-preserve")
        assert code == 0
        assert len(_read_values(tmp_path / "w.csv")) == 2400 - 120

    def test_zero_pad_flag(self, run_cli, tmp_path, demo_2400):
        near = tmp_path / "near.csv"
        zero = tmp_path / "zero.csv"
        for out, extra in ((near, ()), (zero, ("--zero-pad",))):
            code, _, err = run_cli("warp", "-i", demo_2400, "-o", out,
                                   "--t1-target", 480, "--t2-target", 720,
                                   "--pad-fraction", 0.005, *extra)
            assert code == 0, err
        assert not np.array_equal(_read_values(near), _read_values(zero))


class TestSweepCommands:
    def test_padding_table(self, run_cli, tmp_path):
        out = tmp_path / "pad.csv"
        code, _, err = run_cli("sweep-padding", "-o", out, "--duration", "0.5",
                               "--pad-fractions", "0.001", "0.1")
        assert code == 0, err
        text = out.read_text()
        assert "# pad_fractions: 0.001,0.1\n" in text
        rows = trialio.read_table(out)
        assert len(rows) == 8
        assert set(r["status"] for r in rows) == {"ok"}
        assert rows[0]["direction"] == "contract_t1_expand_t2"

    def test_config_file_with_flag_override(self, run_cli, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# comment\npad_fractions = 0.05, 0.2\nwarp_magnitude = 0.1\n")
        out = tmp_path / "pad.csv"
        code, _, err = run_cli("sweep-padding", "-o", out, "--duration", "0.5",
                               "--config", cfg, "--pad-fractions", "0.1")
        assert code == 0, err
        rows = trialio.read_table(out)
        assert {r["pad_fraction"] for r in rows} == {"0.1"}  # flag beats file
        assert "# warp_magnitude: 0.1\n" in out.read_text()

    def test_unknown_config_key_exit_2(self, run_cli, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("padding = 0.05\n")
        code, _, err = run_cli("sweep-padding", "-o", tmp_path / "pad.csv",
                               "--config", cfg)
        assert code == 2

    def test_malformed_config_line_exit_2(self, run_cli, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("pad_fractions 0.05\n")
        code, _, err = run_cli("sweep-padding", "-o", tmp_path / "pad.csv",
                               "--config", cfg)
        assert code == 2
        assert "line 1" in err

    def test_fsamp_table(self, run_cli, tmp_path):
        out = tmp_path / "fs.csv"
        code, _, err = run_cli("sweep-fsamp", "-o", out, "--duration", "0.5",
                               "--fsamp-factors", "1.0", "0.5",
                               "--pad-fractions", "0.1")
        assert code == 0, err
        rows = trialio.read_table(out)
        assert len(rows) == 8  # 2 factors x 2 directions x 2 intervals x 1 pad
        assert {r["fsamp_factor"] for r in rows} == {"1.0", "0.5"}

    def test_unsorted_factors_exit_2(self, run_cli, tmp_path):
        code, _, err = run_cli("sweep-fsamp", "-o", tmp_path / "fs.csv",
                               "--fsamp-factors", "0.5", "1.0")
        assert code == 2


class TestDtwMatrixCommand:
    def test_identical_inputs_diagonal_path(self, run_cli, tmp_path):
        trial = _synth(run_cli, tmp_path / "a.csv", "--duration", "0.05")
        code, _, err = run_cli("dtw-matrix", trial, trial, "-o", tmp_path / "out")
        assert code == 0, err
        path_rows = (tmp_path / "out.path.csv").read_text().splitlines()
        assert path_rows[0] == "i,j"
        n = len(_read_values(trial))
        assert path_rows[1:] == [f"{i},{i}" for i in range(n)]
        matrix_rows = [line for line in (tmp_path / "out.matrix.csv").read_text().splitlines()
                       if not line.startswith("#")]
        assert float(matrix_rows[-1].split(",")[-1]) == 0.0

    def test_mismatched_lengths_accepted(self, run_cli, tmp_path):
        a = _synth(run_cli, tmp_path / "a.csv", "--duration", "0.05")
        b = _synth(run_cli, tmp_path / "b.csv", "--duration", "0.03")
        code, _, err = run_cli("dtw-matrix", a, b, "-o", tmp_path / "out")
        assert code == 0, err
        matrix_rows = [line for line in (tmp_path / "out.matrix.csv").read_text().splitlines()
                       if not line.startswith("#")]
        assert len(matrix_rows) == len(_read_values(a))

    def test_matrix_over_cell_budget_exits_3(self, run_cli, tmp_path):
        trial = Trial(np.sin(0.01 * np.arange(4097)), 2048.0)
        path = tmp_path / "long.csv"
        trialio.write_trial_csv(path, trial)
        code, _, err = run_cli("dtw-matrix", path, path, "-o", tmp_path / "out")
        assert code == 3
        assert "4097 x 4097 DTW cost matrix exceeds the limit" in err
        assert not (tmp_path / "out.matrix.csv").exists()

    def test_missing_input_exit_2(self, run_cli, tmp_path):
        code, _, err = run_cli("dtw-matrix", tmp_path / "nope.csv",
                               tmp_path / "nope.csv", "-o", tmp_path / "out")
        assert code == 2


class TestDeterminism:
    def test_synth_byte_identical(self, run_cli, tmp_path):
        a = _synth(run_cli, tmp_path / "a.csv", "--duration", "0.5")
        b = _synth(run_cli, tmp_path / "b.csv", "--duration", "0.5")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.events.json").read_bytes() == \
               (tmp_path / "b.events.json").read_bytes()
