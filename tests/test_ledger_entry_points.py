"""The benchmark ledger's wrap table must name real library attributes.

``perfbench/ledger.py`` wraps library entry points by (module, owner,
attribute) name.  A rename in the library would otherwise surface only
in the slow benchmark job; this check resolves every name by import
without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LEDGER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"


def load_entry_points():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ledger", LEDGER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = load_entry_points()


@pytest.mark.parametrize(
    "module_name, owner_name, names",
    [(entry[0], entry[1], entry[2]) for entry in ENTRY_POINTS],
    ids=[f"{entry[0]}:{entry[1] or ''}:{entry[3]}" for entry in ENTRY_POINTS],
)
def test_wrapped_entry_point_resolves(module_name, owner_name, names):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    for name in names:
        assert callable(getattr(owner, name)), f"{module_name}.{name}"

