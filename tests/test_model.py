import numpy as np
import pytest

from timelock import EventMarker, Partition, Trial, partition_from_events
from timelock.errors import (
    BadEventsError,
    BadRateError,
    ConfigError,
    DegenerateIntervalError,
    DuplicateEventError,
    EmptySignalError,
    MissingEventError,
    NonFiniteError,
)
from timelock.model import event_index_from_seconds


def _trial(n=100, events=((20, "onset"), (50, "transition"), (80, "offset")), f_samp=2048.0):
    rng = np.random.default_rng(42)
    return Trial(rng.normal(size=n), f_samp, tuple(EventMarker(i, lbl) for i, lbl in events))


class TestTrialValidation:
    def test_valid_trial_passes(self):
        t = Trial([0.0, 1.0, 0.0], 2048, (EventMarker(1, "onset"),))
        assert t.samples.tolist() == [0.0, 1.0, 0.0]
        assert t.f_samp == 2048.0 and isinstance(t.f_samp, float)
        assert t.events == (EventMarker(1, "onset"),)

    def test_events_from_a_generator_are_kept_as_a_tuple(self):
        markers = (EventMarker(1, "onset"), EventMarker(3, "offset"))
        t = Trial(np.zeros(5), 100.0, (e for e in markers))
        assert isinstance(t.events, tuple) and t.events == markers

    def test_empty_signal(self):
        with pytest.raises(EmptySignalError):
            Trial([], 2048.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples(self, bad):
        with pytest.raises(NonFiniteError):
            Trial([0.0, bad, 1.0], 2048.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_bad_rate(self, rate):
        with pytest.raises(BadRateError):
            Trial([0.0, 1.0], rate)

    def test_rate_that_is_not_a_number(self):
        with pytest.raises(BadRateError, match="must be a number"):
            Trial(np.zeros(3), "abc")

    def test_event_that_is_not_a_marker(self):
        with pytest.raises(BadEventsError, match="EventMarker instances, got tuple"):
            Trial(np.zeros(3), 1.0, ((1, "onset"),))

    def test_unordered_events(self):
        with pytest.raises(BadEventsError):
            Trial(np.zeros(10), 1.0, (EventMarker(5, "a"), EventMarker(2, "b")))

    def test_event_out_of_range(self):
        with pytest.raises(BadEventsError):
            Trial(np.zeros(10), 1.0, (EventMarker(10, "a"),))

    def test_negative_event_index(self):
        with pytest.raises(BadEventsError):
            EventMarker(-1, "a")

    @pytest.mark.parametrize("index", [1024.0, 1024.5, "1024", None, True, False])
    def test_event_index_must_be_an_integer(self, index):
        # a float index built a trial that partitioned and then failed in a
        # slice, or gave a fractional partition; a bool is a numbers.Integral
        # that would reach the report JSON as true
        with pytest.raises(BadEventsError, match="event index must be an integer"):
            EventMarker(index, "onset")

    def test_numpy_integer_event_index(self):
        t = Trial(np.zeros(10), 1.0, (EventMarker(np.int64(3), "a"),
                                      EventMarker(np.int32(7), "b")))
        assert [e.index for e in t.events] == [3, 7]

    def test_duplicate_index_rejected(self):
        with pytest.raises(BadEventsError):
            Trial(np.zeros(10), 1.0, (EventMarker(3, "a"), EventMarker(3, "b")))

    def test_samples_are_copied_and_frozen(self):
        src = np.ones(8)
        t = Trial(src, 1.0)
        src[0] = 99.0
        assert t.samples[0] == 1.0
        with pytest.raises(ValueError):
            t.samples[0] = 5.0

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ValueError):
            Trial(np.zeros((4, 2)), 1.0)

    def test_nyquist_accessor_exact(self):
        t = Trial([0.0, 1.0], 2048.0)
        assert t.f_nyq == 1024.0


class TestPartition:
    def test_from_events(self):
        p = partition_from_events(_trial())
        assert (p.onset, p.transition, p.offset, p.n_samples) == (20, 50, 80, 100)
        assert p.pre == (0, 20)
        assert p.t1 == (20, 50)
        assert p.t2 == (50, 80)
        assert p.post == (80, 100)

    def test_boundary_partition_empty_pre_post(self):
        p = Partition(onset=0, transition=50, offset=100, n_samples=100)
        assert p.pre == (0, 0)
        assert p.post == (100, 100)
        assert p.len_t1 + p.len_t2 == 100

    def test_empty_t1_rejected(self):
        with pytest.raises(DegenerateIntervalError):
            Partition(onset=20, transition=20, offset=80, n_samples=100)

    def test_empty_t2_rejected(self):
        with pytest.raises(DegenerateIntervalError):
            Partition(onset=20, transition=80, offset=80, n_samples=100)

    @pytest.mark.parametrize("bounds", [(0.5, 1, 2, 3), (0, 1.0, 2, 3), (0, 1, True, 3),
                                        (0, 1, 2, np.float64(3))])
    def test_bounds_must_be_integers(self, bounds):
        with pytest.raises(ConfigError, match="must be integers"):
            Partition(*bounds)

    def test_numpy_integer_bounds_accepted(self):
        p = Partition(np.int64(0), np.int32(1), 2, np.int64(3))
        assert (p.len_t1, p.len_t2) == (1, 1)

    def test_out_of_order_bounds_rejected(self):
        with pytest.raises(ValueError):
            Partition(onset=50, transition=20, offset=80, n_samples=100)

    def test_reversed_labels_degenerate(self):
        t = _trial(events=((20, "transition"), (50, "onset"), (80, "offset")))
        with pytest.raises(DegenerateIntervalError):
            partition_from_events(t)

    def test_missing_event(self):
        t = _trial(events=((20, "onset"), (50, "transition")))
        with pytest.raises(MissingEventError):
            partition_from_events(t)

    def test_duplicate_event(self):
        t = _trial(events=((20, "onset"), (50, "onset"), (80, "offset")))
        with pytest.raises(DuplicateEventError):
            partition_from_events(t)

    def test_custom_labels(self):
        t = _trial(events=((10, "go"), (40, "mid"), (70, "stop")))
        p = partition_from_events(t, "go", "mid", "stop")
        assert (p.onset, p.transition, p.offset) == (10, 40, 70)

    def test_tiling_and_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 400))
            a, b, c = sorted(rng.choice(np.arange(1, n), size=3, replace=False))
            if a == b or b == c:
                continue
            x = rng.normal(size=n)
            t = Trial(x, 100.0, (EventMarker(int(a), "onset"),
                                 EventMarker(int(b), "transition"),
                                 EventMarker(int(c), "offset")))
            p = partition_from_events(t)
            lengths = [hi - lo for lo, hi in (p.pre, p.t1, p.t2, p.post)]
            assert sum(lengths) == n
            rebuilt = np.concatenate([t.samples[lo:hi] for lo, hi in (p.pre, p.t1, p.t2, p.post)])
            assert np.array_equal(rebuilt, t.samples)


class TestSecondsConversion:
    @pytest.mark.parametrize("seconds,f_samp,expected", [
        (2.5, 1.0, 2),    # exact half -> earlier sample
        (3.5, 1.0, 3),
        (2.4, 1.0, 2),
        (2.6, 1.0, 3),
        (0.1, 2048.0, 205),   # 204.8 rounds up
        (0.0, 2048.0, 0),
    ])
    def test_rounding(self, seconds, f_samp, expected):
        assert event_index_from_seconds(seconds, f_samp) == expected

    def test_bad_rate(self):
        with pytest.raises(BadRateError):
            event_index_from_seconds(1.0, 0.0)

    @pytest.mark.parametrize("seconds", [float("inf"), -float("inf"), float("nan"), 1e308])
    def test_time_without_a_finite_sample_position(self, seconds):
        # int() of an infinite or NaN position would raise a bare
        # OverflowError or ValueError; 1e308 s is finite but its position
        # at 2048 Hz is not
        with pytest.raises(BadEventsError, match="not a finite sample position"):
            event_index_from_seconds(seconds, 2048.0)
