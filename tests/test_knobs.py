"""The environment knobs ``src/`` reads, and the retired backend switch.

Pricing has one path (the numpy kernels), pooled sweeps one way to ship
a database, and the grid-point and plan caches are always on — so the
only ``REPRO_*`` variables left are the store engine and the workspace
LRU cap.  A new knob has to be added here on purpose.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cost import SimpleCostModel
from repro.enumeration import DPEnumerator
from repro.physical import IndexConfig, PhysicalDesign

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_reads_exactly_two_knobs():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == {"REPRO_STORE", "REPRO_WORKSPACE_CAP"}


def test_enumerator_rejects_a_kernel_backend(toy_db):
    with pytest.raises(ValueError):
        DPEnumerator(
            SimpleCostModel(toy_db),
            PhysicalDesign(toy_db, IndexConfig.PK_FK),
            kernels="python",
        )
