import json
import tracemalloc

import numpy as np
import pytest

from helpers import read_table

from timelock import (FsampSweepRow, PaddingSweepRow, SincConfig, SweepConfig, SynthSpec,
                      Trial, cli, trialio)
from timelock.cli import (_fields_from_args, _sinc_from_args, _sweep_config_from_args,
                          build_parser)
from timelock.errors import ConfigError, TimelockError


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

    @pytest.mark.parametrize("flags", [("--duration", "1e12"),
                                       ("--duration", "1e308", "--f-samp", "1e10")])
    def test_trial_over_sample_budget_exits_3(self, run_cli, tmp_path, flags):
        code, _, err = run_cli("synth", "-o", tmp_path / "t.csv", *flags)
        assert code == 3
        assert "exceeds the limit of 16777216" in err
        assert "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_config_checks_exit_3_and_other_value_errors_propagate(
            self, run_cli, monkeypatch, tmp_path):
        # a config check raises ConfigError, a TimelockError and a
        # ValueError; any other ValueError, say from inside NumPy, is a
        # defect and must end as a traceback, not as exit 3
        with pytest.raises(ConfigError) as info:
            SynthSpec(duration_s=-1.0)
        assert isinstance(info.value, TimelockError)
        assert isinstance(info.value, ValueError)
        code, _, err = run_cli("synth", "-o", tmp_path / "t.csv", "--duration", "-1")
        assert (code, err) == (3, "error: duration_s must be positive, got -1.0\n")

        def broken(args):
            raise ValueError("not a config check")

        monkeypatch.setattr(cli, "cmd_synth", broken)
        with pytest.raises(ValueError, match="not a config check"):
            cli.main(["synth", "-o", str(tmp_path / "t.csv")])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitudes, message", [
        (("inf", "1"), "amplitudes must be finite, got (inf, 1.0)"),
        (("1e308", "1e308"), "trial contains NaN or infinite samples"),
    ], ids=["inf", "overflow"])
    def test_non_finite_mix_exits_3_without_a_warning(self, run_cli, tmp_path,
                                                      amplitudes, message):
        # with warnings as errors, a NumPy RuntimeWarning from the mix would
        # propagate instead of the exit code
        code, _, err = run_cli("synth", "-o", tmp_path / "t.csv", "--amplitudes", *amplitudes)
        assert (code, err) == (3, f"error: {message}\n")
        assert not (tmp_path / "t.csv").exists()

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

    def test_report_ratios_are_the_interval_ratios(self, run_cli, tmp_path, demo_2400):
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 500, "--t2-target", 700)
        assert code == 0, err
        report = json.loads((tmp_path / "w.report.json").read_text())
        assert report["ratios"] == {"t1": 600 / 500, "t2": 600 / 700}
        assert report["ratios"] == {name: interval["ratio"]
                                    for name, interval in report["intervals"].items()}

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
        # a one-sample interval has no correlation; the report says null
        seed = _synth(run_cli, tmp_path / "one.csv", "--duration", "1")
        out = tmp_path / "w.csv"
        code, _, err = run_cli("warp", "-i", seed, "-o", out,
                               "--t1-target", 1, "--t2-target", 1023)
        assert code == 0, err
        assert len(_read_values(out)) == 2048
        report = json.loads((tmp_path / "w.report.json").read_text())
        assert report["intervals"]["t1"]["correlation"] is None
        assert report["intervals"]["t1"]["ratio"] == 512.0

    def test_silent_interval_has_no_energy_ratio(self, run_cli, tmp_path):
        # t1 of this trial is all zeros, so E_in is 0 and the ratio is NaN,
        # written as null; the pad reads the nonzero neighbours, so the
        # warped t1 is not silent
        x = np.sin(0.3 * np.arange(100))
        x[20:50] = 0.0
        seed = tmp_path / "silent.csv"
        trialio.write_trial_csv(seed, Trial(x, 100.0))
        code, _, err = run_cli("warp", "-i", seed, "-o", tmp_path / "w.csv",
                               "--onset", 20, "--transition", 50, "--offset", 80,
                               "--t1-target", 25, "--t2-target", 35)
        assert code == 0, err
        report = json.loads((tmp_path / "w.report.json").read_text())
        t1 = report["intervals"]["t1"]
        assert t1["energy_in"] == 0.0 and t1["energy_out"] > 0.0
        assert t1["energy_ratio"] is None
        assert report["intervals"]["t2"]["energy_ratio"] > 0.0

    def test_report_is_strict_json(self, run_cli, tmp_path):
        # energies past the float range are written as null, not as the
        # Infinity token that strict JSON parsers refuse
        seed = _synth(run_cli, tmp_path / "big.csv", "--duration", "1",
                      "--amplitudes", "1e160", "1e160")
        code, _, err = run_cli("warp", "-i", seed, "-o", tmp_path / "w.csv",
                               "--t1-target", 410, "--t2-target", 614)
        assert code == 0, err

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "w.report.json").read_text()
        report = json.loads(text, parse_constant=refuse)
        for interval in report["intervals"].values():
            assert interval["energy_in"] is None
            for key in ("dtw_distance", "dtw_normalized_distance", "dtw_similarity"):
                assert np.isfinite(interval[key])

    def test_huge_pad_exits_3(self, run_cli, tmp_path, demo_2400):
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", "500", "--t2-target", "700",
                               "--pad-fraction", "1e12")
        assert code == 3
        assert "pad must lie in [0, 16777216], got 2048000000000000" in err
        assert "Traceback" not in err

    def test_overflowing_kaiser_beta_exits_2(self, run_cli, tmp_path, demo_2400):
        # i0(800) overflows, so the taper would be NaN; the flag is refused
        # before any warp, with no NumPy warning
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 480, "--t2-target", 720, "--beta", 800)
        assert code == 2
        assert err.splitlines() == ["error: Kaiser beta must keep i0(beta) finite, got 800.0"]

    def test_half_width_over_the_cap_exits_2(self, run_cli, tmp_path, demo_2400):
        # a 100000-tap half width would need gigabytes of kernel; it is
        # refused before any warp
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 480, "--t2-target", 720,
                               "--half-width", 100000)
        assert code == 2
        assert err.splitlines() == ["error: half_width must be <= 4096, got 100000"]
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("index", ["1023.7", "600.0", "true", '"600"'])
    def test_event_index_must_be_a_json_integer(self, run_cli, tmp_path, demo_2400, index):
        # int() would truncate 1023.7 to 1023 and warp around a moved event
        sidecar = tmp_path / "demo.events.json"
        sidecar.write_text(sidecar.read_text().replace("1200", index))
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 480, "--t2-target", 720)
        assert code == 2
        assert "JSON integer" in err
        assert not (tmp_path / "w.csv").exists()

    def test_output_over_budget_exits_3(self, run_cli, tmp_path, demo_2400):
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 100, "--t2-target", 100000000,
                               "--no-preserve")
        assert code == 3
        assert err.splitlines() == [
            "error: output length 100000000 exceeds the limit of 16777216 samples"]
        assert not (tmp_path / "w.csv").exists()

    def test_events_file_not_utf8_exits_2(self, run_cli, tmp_path, demo_2400):
        sidecar = tmp_path / "demo.events.json"
        sidecar.write_bytes(b"\xff\xfe")
        code, _, err = run_cli("warp", "-i", demo_2400, "-o", tmp_path / "w.csv",
                               "--t1-target", 600, "--t2-target", 600)
        assert code == 2
        assert f"{sidecar}: not UTF-8 text" in err

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
        assert text.splitlines()[6] == ("direction,interval,pad_fraction,correlation,"
                                        "dtw_distance,dtw_similarity,energy_ratio,status")
        rows = read_table(out)
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
        rows = read_table(out)
        assert {r["pad_fraction"] for r in rows} == {"0.1"}  # flag beats file
        assert "# warp_magnitude: 0.1\n" in out.read_text()

    def test_huge_warp_magnitude_exits_0(self, run_cli, tmp_path):
        out = tmp_path / "pad.csv"
        code, _, err = run_cli("sweep-padding", "-o", out, "--duration", "0.5",
                               "--pad-fractions", "0.1", "--warp-magnitude", "1e308")
        assert code == 0, err
        assert "# warp_magnitude: 1e+308\n" in out.read_text()
        assert {r["status"] for r in read_table(out)} == {"ok"}

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

    def test_config_file_not_utf8_exits_2(self, run_cli, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, _, err = run_cli("sweep-padding", "-o", tmp_path / "pad.csv",
                               "--config", cfg)
        assert code == 2
        assert f"{cfg}: not UTF-8 text" in err

    @pytest.mark.parametrize("command, flags", [
        ("sweep-fsamp", ("--duration", "1e9")),
        ("sweep-padding", ("--duration", "1e308", "--f-samp", "1e10")),
    ])
    def test_trial_over_sample_budget_exits_3(self, run_cli, tmp_path, command, flags):
        code, _, err = run_cli(command, "-o", tmp_path / "s.csv", *flags)
        assert code == 3
        assert "exceeds the limit of 16777216" in err
        assert not (tmp_path / "s.csv").exists()

    def test_fsamp_table(self, run_cli, tmp_path):
        out = tmp_path / "fs.csv"
        code, _, err = run_cli("sweep-fsamp", "-o", out, "--duration", "0.5",
                               "--fsamp-factors", "1.0", "0.5",
                               "--pad-fractions", "0.1")
        assert code == 0, err
        assert out.read_text().splitlines()[6] == (
            "fsamp_factor,direction,interval,pad_fraction,correlation,dtw_similarity,status")
        rows = read_table(out)
        assert len(rows) == 8  # 2 factors x 2 directions x 2 intervals x 1 pad
        assert {r["fsamp_factor"] for r in rows} == {"1.0", "0.5"}

    def test_unsorted_factors_exit_2(self, run_cli, tmp_path):
        code, _, err = run_cli("sweep-fsamp", "-o", tmp_path / "fs.csv",
                               "--fsamp-factors", "0.5", "1.0")
        assert code == 2

    def test_huge_pad_becomes_error_rows(self, run_cli, tmp_path):
        out = tmp_path / "pad.csv"
        code, _, err = run_cli("sweep-padding", "-o", out, "--duration", "0.5",
                               "--pad-fractions", "0.1", "1e12")
        assert code == 0, err
        status = {(r["direction"], r["pad_fraction"]): r["status"]
                  for r in read_table(out)}
        assert len(status) == 4
        for (_, pad), s in status.items():
            assert s == ("ok" if pad == "0.1" else "RangeOutOfBoundsError")

    def test_too_short_regenerated_trial_becomes_error_rows(self, run_cli, tmp_path):
        # at 64 Hz the 0.02 s trial has one sample, too few for its three events
        out = tmp_path / "fs.csv"
        code, _, err = run_cli("sweep-fsamp", "-o", out, "--duration", "0.02",
                               "--fsamp-factors", "1", "0.5", "0.03125",
                               "--pad-fractions", "0.001")
        assert code == 0, err
        rows = read_table(out)
        assert [r["status"] for r in rows] == ["ok"] * 8 + ["BadEventFracsError"] * 4
        assert {r["fsamp_factor"] for r in rows[8:]} == {"0.03125"}
        assert all(r["correlation"] == "" for r in rows[8:])


class TestConfigsFromFlags:
    def test_flags_named_after_fields_override_the_config_file(self, tmp_path):
        # each config is built from the flags named after its fields, with
        # list flags as tuples, and flags override the file's values
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("pad_fractions = 0.05, 0.2\nwarp_magnitude = 0.1\n"
                       "directions = expand_t1_contract_t2\n")
        args = build_parser().parse_args([
            "sweep-fsamp", "-o", "x.csv", "--config", str(cfg), "--duration", "0.5",
            "--fsamp-factors", "1", "0.5", "--warp-magnitude", "0.3",
            "--half-width", "16", "--window", "hann", "--no-anti-alias"])
        assert _sweep_config_from_args(args) == SweepConfig(
            pad_fractions=(0.05, 0.2), fsamp_factors=(1.0, 0.5),
            directions=("expand_t1_contract_t2",), warp_magnitude=0.3)
        assert _fields_from_args(SynthSpec, args) == SynthSpec(duration_s=0.5)
        assert _sinc_from_args(args) == SincConfig(half_width=16, window="hann",
                                                   anti_alias=False)

    def test_synth_flags_set_every_field(self):
        args = build_parser().parse_args([
            "synth", "-o", "x.csv", "--f-samp", "1000", "--duration", "0.09",
            "--f1", "3", "--f2", "11", "--amplitudes", "1", "0.5",
            "--phases", "0.3", "1.1", "--event-fracs", "0.2", "0.45", "0.8"])
        assert _fields_from_args(SynthSpec, args) == SynthSpec(
            f_samp=1000.0, f1=3.0, f2=11.0, duration_s=0.09,
            event_fracs=(0.2, 0.45, 0.8), amplitudes=(1.0, 0.5), phases=(0.3, 1.1))


class TestSweepTable:
    def test_rows_follow_field_order(self, tmp_path):
        out = tmp_path / "t.csv"
        rows = [FsampSweepRow(1, "d", "t1", 0, 0.5, None, "ok")]
        trialio.write_sweep_table(out, FsampSweepRow, rows, {"k": "v"})
        assert out.read_text() == (
            "# k: v\n"
            "fsamp_factor,direction,interval,pad_fraction,correlation,dtw_similarity,status\n"
            "1.0,d,t1,0.0,0.5,,ok\n"
        )

    def test_empty_table_keeps_header(self, tmp_path):
        out = tmp_path / "t.csv"
        trialio.write_sweep_table(out, PaddingSweepRow, [], {})
        assert out.read_text() == ("direction,interval,pad_fraction,correlation,"
                                   "dtw_distance,dtw_similarity,energy_ratio,status\n")
        assert read_table(out) == []


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

    def test_trial_file_not_utf8_exits_2(self, run_cli, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe")
        code, _, err = run_cli("dtw-matrix", path, path, "-o", tmp_path / "out")
        assert code == 2
        assert f"{path}: not UTF-8 text" in err

    def test_missing_input_exit_2(self, run_cli, tmp_path):
        code, _, err = run_cli("dtw-matrix", tmp_path / "nope.csv",
                               tmp_path / "nope.csv", "-o", tmp_path / "out")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("# f_samp: 100.0\n0.5\nnan\n", "trial contains NaN or infinite samples"),
        ("# f_samp: 0\n0.5\n1.0\n", "f_samp must be positive and finite, got 0.0"),
    ], ids=["nan-row", "zero-rate"])
    def test_invalid_trial_error_names_its_file(self, run_cli, tmp_path, text, message):
        # the second file is the bad one; the message must say so
        good = _synth(run_cli, tmp_path / "a.csv", "--duration", "0.05")
        bad = tmp_path / "b.csv"
        bad.write_text(text)
        code, _, err = run_cli("dtw-matrix", good, bad, "-o", tmp_path / "out")
        assert code == 3
        assert err.splitlines() == [f"error: {bad}: {message}"]


class TestReaders:
    """Every reader path of the trial, events and config files, through the CLI."""

    def _dtw_matrix(self, run_cli, tmp_path, text, newline="\n"):
        path = tmp_path / "t.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        code, _, err = run_cli("dtw-matrix", path, path, "-o", tmp_path / "out")
        return path, code, err

    @pytest.mark.parametrize("text, message", [
        ("# f_samp: fast\n0.5\n", "line 1: bad f_samp value 'fast'"),
        ("0.5\n1.0\n", "missing '# f_samp:' metadata line"),
        ("# f_samp: 100.0\n\n# note\n", "no sample rows"),
    ])
    def test_bad_trial_file_exits_2(self, run_cli, tmp_path, text, message):
        path, code, err = self._dtw_matrix(run_cli, tmp_path, text)
        assert code == 2
        assert err.splitlines() == [f"error: {path}: {message}"]
        assert not (tmp_path / "out.matrix.csv").exists()

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n# made by hand\n# f_samp: 100.0\n\n0.5\n  \n# gap\n-1.5\n\n")
        trial = trialio.read_trial_csv(path)
        assert trial.f_samp == 100.0
        assert trial.samples.tolist() == [0.5, -1.5]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_ends_read_like_lf(self, run_cli, tmp_path, newline):
        lf = _synth(run_cli, tmp_path / "lf.csv", "--duration", "0.05")
        other = tmp_path / "other.csv"
        other.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
        a, b = trialio.read_trial_csv(lf), trialio.read_trial_csv(other)
        assert b.f_samp == a.f_samp
        assert np.array_equal(b.samples, a.samples)

    def test_line_number_counts_crlf_lines(self, run_cli, tmp_path):
        path, code, err = self._dtw_matrix(run_cli, tmp_path,
                                           "# f_samp: 100.0\n0.5\n\nx\n", "\r\n")
        assert code == 2
        assert err.splitlines() == [
            f"error: {path}: line 4: could not parse 'x' as a sample value"]

    def test_file_cut_short_exits_2(self, run_cli, tmp_path):
        # the first 1000 lines of a 2048-sample trial: 2 metadata lines and
        # 998 samples, which read silently as a 998-sample trial before
        full = _synth(run_cli, tmp_path / "full.csv", "--duration", "1")
        cut = tmp_path / "cut.csv"
        cut.write_text("".join(full.read_text().splitlines(keepends=True)[:1000]))
        message = f"error: {cut}: '# samples: 2048' but 998 sample rows; the file may be cut short"
        code, _, err = run_cli("dtw-matrix", cut, cut, "-o", tmp_path / "out")
        assert (code, err.splitlines()) == (2, [message])
        assert not (tmp_path / "out.matrix.csv").exists()
        (tmp_path / "full.events.json").rename(tmp_path / "cut.events.json")
        code, _, err = run_cli("warp", "-i", cut, "-o", tmp_path / "w.csv",
                               "--t1-target", 512, "--t2-target", 512)
        assert (code, err.splitlines()) == (2, [message])

    def test_samples_line_must_be_an_integer(self, run_cli, tmp_path):
        path, code, err = self._dtw_matrix(run_cli, tmp_path,
                                           "# f_samp: 100.0\n# samples: 2.0\n0.5\n1.0\n")
        assert code == 2
        assert err.splitlines() == [f"error: {path}: line 2: bad samples value '2.0'"]

    def test_samples_line_over_budget_exits_3(self, run_cli, tmp_path):
        # refused when the '# samples:' line is read, before any row: the
        # one row here would otherwise make it a file cut short (exit 2)
        path, code, err = self._dtw_matrix(
            run_cli, tmp_path, "# samples: 16777217\n# f_samp: 100.0\n0.5\n")
        assert code == 3
        assert err.splitlines() == [
            f"error: {path}: '# samples: 16777217' exceeds the limit of 16777216 samples"]
        assert not (tmp_path / "out.matrix.csv").exists()

    def test_rows_over_budget_exit_3(self, run_cli, tmp_path, monkeypatch):
        # the row that passes the budget stops the reader, with or without
        # a '# samples:' line; the real budget of 2**24 rows is too big to
        # write here, so it is patched small
        monkeypatch.setattr(trialio, "_MAX_SAMPLES", 8)
        rows = "".join(f"{v}\n" for v in range(12))
        at_budget = tmp_path / "eight.csv"
        at_budget.write_text("# f_samp: 100.0\n# samples: 8\n" + rows[:16])
        assert len(trialio.read_trial_csv(at_budget)) == 8
        for header in ("# f_samp: 100.0\n", "# f_samp: 100.0\n# samples: 4\n"):
            path, code, err = self._dtw_matrix(run_cli, tmp_path, header + rows)
            lineno = header.count("\n") + 9
            assert code == 3
            assert err.splitlines() == [
                f"error: {path}: line {lineno}: more sample rows than the limit of 8 samples"]

    def test_only_newlines_end_lines(self, run_cli, tmp_path):
        # a separator such as \x1c between two values keeps them on one line;
        # at the end of a line it is stripped like other whitespace
        path = tmp_path / "t.csv"
        path.write_text("# f_samp: 100.0\n0.5\x1c\n1.0 \n")
        assert trialio.read_trial_csv(path).samples.tolist() == [0.5, 1.0]
        path, code, err = self._dtw_matrix(run_cli, tmp_path, "# f_samp: 100.0\n0.5\x1c1.0\n")
        assert code == 2
        assert err.splitlines() == [
            f"error: {path}: line 2: could not parse '0.5\\x1c1.0' as a sample value"]

    def test_trial_file_memory_stays_bounded(self, tmp_path):
        # the whole text of a 100000-sample file took 11 MiB to write and
        # 12 MiB to read
        trial = Trial(np.random.default_rng(5).normal(size=100_000), 2048.0)
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            trialio.write_trial_csv(path, trial)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = trialio.read_trial_csv(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert write_peak < 2**20
        assert read_peak < 4 * 2**20
        assert back.samples.tobytes() == trial.samples.tobytes()

    @pytest.mark.parametrize("text, message", [
        ('{"events": [', "invalid JSON: "),
        ('{"events": [{"index": 600}]}', "malformed events payload: 'label'"),
    ])
    def test_bad_events_file_exits_2(self, run_cli, tmp_path, text, message):
        trial = _synth(run_cli, tmp_path / "t.csv", "--duration", "0.5")
        sidecar = tmp_path / "t.events.json"
        sidecar.write_text(text)
        code, _, err = run_cli("warp", "-i", trial, "-o", tmp_path / "w.csv",
                               "--t1-target", 256, "--t2-target", 256)
        assert code == 2
        assert err.startswith(f"error: {sidecar}: {message}")
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("pad_fractions = 0.1, fast\n",
         "expected a list of numbers, got '0.1, fast'"),
        ("# comment\nwarp_magnitude = big\n", "bad warp_magnitude 'big'"),
    ])
    def test_bad_config_value_exits_2(self, run_cli, tmp_path, text, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        code, _, err = run_cli("sweep-padding", "-o", tmp_path / "pad.csv",
                               "--config", cfg)
        assert code == 2
        assert err.splitlines() == [f"error: {cfg}: {message}"]
        assert not (tmp_path / "pad.csv").exists()


class TestDeterminism:
    def test_synth_byte_identical(self, run_cli, tmp_path):
        a = _synth(run_cli, tmp_path / "a.csv", "--duration", "0.5")
        b = _synth(run_cli, tmp_path / "b.csv", "--duration", "0.5")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.events.json").read_bytes() == \
               (tmp_path / "b.events.json").read_bytes()
