"""The Python API the README documents: exactly its public names, and a
ConfigError naming the knob for every config field or scalar of a wrong type."""

import dataclasses
import re
import types
from pathlib import Path

import numpy as np
import pytest

import cyclevc
from conftest import make_model
from cyclevc.degrade import DegradeConfig
from cyclevc.errors import ConfigError
from cyclevc.fixture import make_corpus
from cyclevc.model import ModelArch, loss_gradients
from cyclevc.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_the_readme_api():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"from cyclevc import \((.*?)\)", text, re.S)
    assert block, "README has no `from cyclevc import (...)` block"
    documented = {name.strip() for name in block.group(1).split(",") if name.strip()}
    public = {
        name
        for name, value in vars(cyclevc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == documented


def _set_field(cls, name):
    return lambda value, tmp: cls(**{name: value})


# (owner, name, call that sets it to a value) for every knob of the config
# dataclasses and the scalar arguments of make_corpus and loss_gradients
KNOBS = [(cls.__name__, f.name, _set_field(cls, f.name))
         for cls in (ModelArch, TrainConfig, DegradeConfig) for f in dataclasses.fields(cls)] + [
    ("make_corpus", "n_utterances", lambda value, tmp: make_corpus(tmp, n_utterances=value)),
    ("make_corpus", "seed", lambda value, tmp: make_corpus(tmp, seed=value)),
    ("loss_gradients", "rho",
     lambda value, tmp: loss_gradients(make_model(), np.zeros((4, 50)), np.zeros((4, 50)), rho=value)),
]


@pytest.mark.parametrize(
    "name, call, value",
    [pytest.param(name, call, value, id=f"{owner}.{name}={value!r}")
     for owner, name, call in KNOBS for value in (True, "7", None)
     if (name, value) != ("teacher_forcing", True)],  # the one field a bool is right for
)
def test_a_knob_of_the_wrong_type_raises_a_config_error_naming_it(tmp_path, name, call, value):
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        call(value, tmp_path)
    assert not any(tmp_path.iterdir())
