"""The environment knobs ``src/`` reads, and the retired backend switch.

Pricing has one path (the numpy kernels), results and truth one store
(per-query JSON), pooled sweeps one way to ship a database, and the
grid-point and plan caches are always on — so the only ``REPRO_*``
variable left is the workspace LRU cap.  A new knob has to be added
here on purpose.  The python reference loops stay in the test tree:
nothing under ``src/`` may import them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.cost import SimpleCostModel
from repro.enumeration import DPEnumerator
from repro.physical import IndexConfig, PhysicalDesign

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_reads_exactly_one_knob():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == {"REPRO_WORKSPACE_CAP"}


def test_src_never_imports_the_reference_package():
    offenders = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            offenders.extend(
                f"{path.relative_to(SRC)}: {module}"
                for module in modules
                if module.split(".")[0] in ("reference", "tests")
            )
    assert offenders == []


def test_enumerator_rejects_a_kernel_backend(toy_db):
    with pytest.raises(ValueError):
        DPEnumerator(
            SimpleCostModel(toy_db),
            PhysicalDesign(toy_db, IndexConfig.PK_FK),
            kernels="python",
        )
