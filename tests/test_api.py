import dataclasses
import inspect
import types

import timelock
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
