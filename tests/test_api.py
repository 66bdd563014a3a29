"""The package's public names are exactly the Python API the README documents."""

import re
import types
from pathlib import Path

import cyclevc

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
