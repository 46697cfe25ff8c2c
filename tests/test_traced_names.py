"""Every name the benchmark's tracer wraps must still exist in the package.

``perfbench/child.py`` wraps each ``TRACED`` target in place, so a
refactor that drops or renames one fails a traced benchmark run. This test
reads that table from the benchmark and resolves each target the way the
tracer does, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_target_resolves_to_a_callable():
    table = _traced_table()
    assert table
    missing = []
    for layer, targets in table.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {target}")
    assert missing == []
