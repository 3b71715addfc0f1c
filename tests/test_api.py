import dataclasses
import inspect
import math
import types

import numpy as np
import pytest

import timelock
from timelock import errors
import timelock.resample as sincmod


def test_resample_names_the_module():
    assert isinstance(sincmod, types.ModuleType)
    assert timelock.resample is sincmod
    assert callable(sincmod.resample)


def test_removed_names_stay_out_of_the_package():
    for name in ("resample", "validate_trial", "power"):
        assert name not in timelock.__all__
    assert not hasattr(timelock, "validate_trial")
    assert not hasattr(timelock, "power")


def test_all_names_resolve():
    for name in timelock.__all__:
        assert hasattr(timelock, name), name


def test_one_pad_per_side():
    fields = {f.name for f in dataclasses.fields(timelock.WarpSpec)}
    assert "pad" in fields
    assert not fields & {"pad_left", "pad_right"}
    params = list(inspect.signature(timelock.resample_padded).parameters)
    assert params[:4] == ["full", "index_range", "out_len", "pad"]
    assert not set(params) & {"pad_left", "pad_right"}


# A field given a value that is not a number raises the class the same field
# raises for an out-of-range number: each case makes the object or the call
# from one value, and gives a value that is not a number and one out of range.
PART = timelock.Partition(10, 20, 30, 40)


def _case(name, make, value, out_of_range):
    return pytest.param(make, value, out_of_range, id=name)


def _raises_as_out_of_range(error, make, value, out_of_range):
    with pytest.raises(error):
        make(out_of_range)
    with pytest.raises(error):
        make(value)


@pytest.mark.parametrize("make, value, out_of_range", [
    _case("pad_fractions", lambda v: timelock.SweepConfig(pad_fractions=(v,)), "a", -1.0),
    _case("fsamp_factors", lambda v: timelock.SweepConfig(fsamp_factors=(v,)), "a", 2.0),
    _case("warp_magnitude", lambda v: timelock.SweepConfig(warp_magnitude=v), "a", 0.0),
    _case("directions", lambda v: timelock.SweepConfig(directions=(v,)), ["x"], "x"),
    # a grid is taken as a tuple, so an array grid is checked value by value
    _case("pad_fractions-array", lambda v: timelock.SweepConfig(pad_fractions=v),
          np.array(["a"]), np.array([0.1, -1.0])),
    _case("pad_fractions-object", lambda v: timelock.SweepConfig(pad_fractions=v),
          object(), (-1.0,)),
    _case("fsamp_factors-array", lambda v: timelock.SweepConfig(fsamp_factors=v),
          np.array(["a"]), np.array([0.5, 1.0])),
    _case("window-array", lambda v: timelock.SincConfig(window=v),
          np.array(["kaiser", "hann"]), "mirror"),
    _case("pad_mode-array", lambda v: timelock.resample_padded(np.ones(8), (0, 8), 8, 0,
                                                               pad_mode=v),
          np.array(["zero", "zero"]), "mirror"),
    _case("beta", lambda v: timelock.SincConfig(beta=v), "a", -1.0),
    _case("beta-none", lambda v: timelock.SincConfig(beta=v), None, math.inf),
    _case("amplitudes", lambda v: timelock.SynthSpec(amplitudes=(v, 1.0)), "a", math.nan),
    _case("amplitudes-none", lambda v: timelock.SynthSpec(amplitudes=v), None, (1.0,)),
    _case("phases-number", lambda v: timelock.SynthSpec(phases=v), 5, (0.0, 0.0, 0.0)),
    _case("amplitudes-0d", lambda v: timelock.SynthSpec(amplitudes=v), np.array(1.0), (1.0,)),
    _case("phases-0d", lambda v: timelock.SynthSpec(phases=v), np.array(0.0), (0.0, 0.0, 0.0)),
])
def test_config_fields_that_are_not_numbers(make, value, out_of_range):
    _raises_as_out_of_range(errors.ConfigError, make, value, out_of_range)


def test_array_grids_equal_their_tuples():
    grids = {"pad_fractions": (0.1, 0.2), "fsamp_factors": (1.0, 0.5),
             "directions": ("contract_t1_expand_t2",)}
    for name, grid in grids.items():
        config = timelock.SweepConfig(**{name: np.array(grid)})
        assert config == timelock.SweepConfig(**{name: grid}), name
        assert isinstance(getattr(config, name), tuple), name


@pytest.mark.parametrize("make, value, out_of_range", [
    _case("synth", lambda v: timelock.SynthSpec(f_samp=v), "a", 0.0),
    _case("plan_warp", lambda v: timelock.plan_warp(PART, 10, 10, 0.1, v), "a", -1.0),
])
def test_rates_that_are_not_numbers(make, value, out_of_range):
    _raises_as_out_of_range(errors.BadRateError, make, value, out_of_range)


@pytest.mark.parametrize("make, value, out_of_range", [
    _case("string", lambda v: timelock.SynthSpec(event_fracs=v), "abc", (0.5, 0.25, 0.75)),
    _case("none", lambda v: timelock.SynthSpec(event_fracs=(0.25, v, 0.75)), None, 1.5),
    _case("fracs-none", lambda v: timelock.SynthSpec(event_fracs=v), None, (0.25, 0.5)),
    _case("fracs-number", lambda v: timelock.SynthSpec(event_fracs=v), 5, (0.2, 0.4, 0.6, 0.8)),
    _case("fracs-0d", lambda v: timelock.SynthSpec(event_fracs=v), np.array(0.5), (0.25, 0.5)),
])
def test_event_fractions_that_are_not_numbers(make, value, out_of_range):
    _raises_as_out_of_range(errors.BadEventFracsError, make, value, out_of_range)


@pytest.mark.parametrize("make, value, out_of_range", [
    _case("plan_warp", lambda v: timelock.plan_warp(PART, 10, 10, v, 100.0), "a", -0.1),
    # a warp target, which plan_warp checks as WarpSpec does
    _case("plan_warp-target", lambda v: timelock.plan_warp(PART, v, 20, 0.1, 100.0), "a", 0),
])
def test_pad_fractions_that_are_not_numbers(make, value, out_of_range):
    _raises_as_out_of_range(errors.BadTargetError, make, value, out_of_range)


@pytest.mark.parametrize("make, value, out_of_range", [
    _case("string", lambda v: timelock.event_index_from_seconds(v, 100.0), "a", math.inf),
    _case("none", lambda v: timelock.event_index_from_seconds(v, 100.0), None, 1e308),
    _case("trial-events", lambda v: timelock.Trial([1.0, 2.0], 10.0, v), 5,
          (timelock.EventMarker(5, "onset"),)),
])
def test_event_times_that_are_not_numbers(make, value, out_of_range):
    _raises_as_out_of_range(errors.BadEventsError, make, value, out_of_range)
