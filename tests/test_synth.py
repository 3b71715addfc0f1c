import dataclasses
import math

import numpy as np
import pytest

import timelock.synth as synth
from timelock import SynthSpec, generate
from timelock.errors import (BadEventFracsError, BadRateError, ConfigError, NonFiniteError,
                             NyquistViolationError)


class TestSynthSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.f_samp == 2048.0
        assert spec.f1 == pytest.approx(5.0 / math.pi)
        assert spec.f2 == 2.5
        assert spec.duration_s == 4.0
        assert spec.event_fracs == (0.25, 0.50, 0.75)

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolationError):
            SynthSpec(f_samp=1024.0, f1=600.0, f2=700.0)

    def test_bad_rate(self):
        with pytest.raises(BadRateError):
            SynthSpec(f_samp=0.0)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            SynthSpec(duration_s=0.0)

    @pytest.mark.parametrize("field, values", [
        ("amplitudes", (math.inf, 1.0)),
        ("amplitudes", (1.0, -math.inf)),
        ("amplitudes", (math.nan, 1.0)),
        ("phases", (0.0, math.inf)),
        ("phases", (math.nan, 0.0)),
    ])
    def test_non_finite_amplitude_or_phase(self, field, values):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SynthSpec(**{field: values})

    def test_sample_budget(self, monkeypatch):
        # a trial of more than 2**24 samples, or an infinite count, is refused
        # before anything is allocated
        for f_samp, duration_s in ((2048.0, 1e12), (1e10, 1e308)):
            with pytest.raises(ValueError, match="exceeds the limit of 16777216"):
                SynthSpec(f_samp=f_samp, duration_s=duration_s)
        monkeypatch.setattr(synth, "_MAX_SAMPLES", 100)
        assert len(generate(SynthSpec(f_samp=100.0, duration_s=1.004))) == 100
        with pytest.raises(ValueError, match="exceeds the limit of 100"):
            SynthSpec(f_samp=100.0, duration_s=1.01)

    @pytest.mark.parametrize("fracs", [
        (0.5, 0.25, 0.75),
        (0.0, 0.5, 0.9),
        (0.25, 0.25, 0.75),
        (0.2, 0.5, 1.0),
    ])
    def test_bad_event_fracs(self, fracs):
        with pytest.raises(BadEventFracsError):
            SynthSpec(event_fracs=fracs)


class TestGenerate:
    def test_default_trial_shape(self, demo_trial):
        assert len(demo_trial) == 8192
        assert demo_trial.f_samp == 2048.0
        assert demo_trial.f_nyq == 1024.0
        assert [(e.index, e.label) for e in demo_trial.events] == [
            (2048, "onset"), (4096, "transition"), (6144, "offset")]

    def test_waveform_formula(self, demo_trial):
        spec = SynthSpec()
        n = np.arange(len(demo_trial))
        expected = (np.sin(2 * math.pi * spec.f1 * (n / spec.f_samp))
                    + np.sin(2 * math.pi * spec.f2 * (n / spec.f_samp)))
        assert np.abs(demo_trial.samples - expected).max() <= 1e-12

    def test_zero_amplitudes(self):
        t = generate(SynthSpec(amplitudes=(0.0, 0.0)))
        assert np.all(t.samples == 0.0)
        assert len(t.events) == 3

    def test_deterministic(self):
        a = generate(SynthSpec())
        b = generate(SynthSpec())
        assert np.array_equal(a.samples, b.samples)
        assert a.events == b.events

    def test_half_rate_shares_sample_grid(self, demo_trial):
        coarse = generate(SynthSpec(f_samp=1024.0, duration_s=4.0))
        assert len(coarse) == 4096
        assert np.array_equal(coarse.samples, demo_trial.samples[::2])

    def test_event_fracs_collapsing_rejected(self):
        # two samples cannot hold three distinct interior markers
        with pytest.raises(BadEventFracsError):
            generate(SynthSpec(duration_s=2.0 / 2048.0))

    @pytest.mark.parametrize("n_samples", [0.2, 1.0])
    def test_too_few_samples_rejected(self, n_samples):
        # 0 or 1 samples fail the same event-index check, as a TimelockError
        with pytest.raises(BadEventFracsError):
            generate(SynthSpec(duration_s=n_samples / 2048.0))

    @pytest.mark.filterwarnings("error")
    def test_mix_past_the_float_range_raises_without_a_warning(self):
        with pytest.raises(NonFiniteError):
            generate(SynthSpec(amplitudes=(1e308, 1e308), duration_s=1.0))

    def test_phases_and_amplitudes_applied(self):
        spec = SynthSpec(amplitudes=(0.5, 2.0), phases=(0.3, -1.1), duration_s=1.0)
        t = generate(spec)
        n = np.arange(len(t))
        expected = (0.5 * np.sin(2 * math.pi * spec.f1 * (n / spec.f_samp) + 0.3)
                    + 2.0 * np.sin(2 * math.pi * spec.f2 * (n / spec.f_samp) - 1.1))
        assert np.abs(t.samples - expected).max() <= 1e-12


class TestSignalProperties:
    def test_component_frequencies_mutually_non_divisible(self):
        # no integer pair (p, q) up to 1e4 satisfies p*f2 == q*f1 to 1e-9;
        # only the nearest q can ever violate the bound for a given p
        spec = SynthSpec()
        p = np.arange(1, 10001, dtype=np.float64)
        q = np.rint(p * spec.f2 / spec.f1)
        residual = np.abs(p * spec.f2 - q * spec.f1)
        assert residual.min() >= 1e-9

    def test_band_limit_by_projection(self, demo_trial):
        # the trial must be exactly representable by its two generating
        # sinusoids: the least-squares residual is numerical noise
        spec = SynthSpec()
        t = np.arange(len(demo_trial)) / spec.f_samp
        basis = np.column_stack([
            np.sin(2 * math.pi * spec.f1 * t), np.cos(2 * math.pi * spec.f1 * t),
            np.sin(2 * math.pi * spec.f2 * t), np.cos(2 * math.pi * spec.f2 * t),
        ])
        coef, *_ = np.linalg.lstsq(basis, demo_trial.samples, rcond=None)
        residual = demo_trial.samples - basis @ coef
        rel = np.linalg.norm(residual) / np.linalg.norm(demo_trial.samples)
        assert rel <= 1e-6

    def test_spec_is_frozen(self):
        spec = SynthSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.f1 = 3.0
