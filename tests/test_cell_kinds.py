"""The kind seam: one orchestration core executes every row kind.

The acceptance bar of the ``CellKind`` refactor:

* the registry dispatches both kinds by name and by spec type, and a
  spec survives the JSON payload round trip *exactly* (lease-queue
  workers rebuild their world from that payload);
* ``run_sweep`` / ``run_deep_sweep`` are thin wrappers: each is
  row-for-row identical to ``run_cells`` with the matching kind, cold,
  pooled, and warm (where the warm path prices zero cells for *both*
  kinds through the same generic driver);
* every registered artifact — all 11 shallow and all 5 deep — builds
  byte-identical rows through ``run_cells`` whether replayed from a
  warm store or recomputed.
"""

import json

import pytest

from repro.experiments import frame as frame_mod
from repro.pipeline import (
    DEEP_KIND,
    KINDS,
    SWEEP_KIND,
    DeepSpec,
    EnumeratorConfig,
    SweepSpec,
    kind_for_spec,
    run_cells,
    run_deep_sweep,
    run_sweep,
    spec_digest,
    subexpr_deep_config,
    unit_digest,
)
from repro.pipeline import driver as driver_module
from repro.pipeline import instrument
from repro.pipeline.grid import TRUE_SOURCE, DeepConfig
from repro.physical import IndexConfig

SPEC = SweepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a"),
    estimators=("PostgreSQL", "HyPer"),
)

DEEP_SPEC = DeepSpec(
    scale="tiny",
    seed=42,
    query_names=("1a", "4a"),
    estimators=("PostgreSQL", TRUE_SOURCE),
    configs=(
        subexpr_deep_config(4),
        DeepConfig(
            name="pk/no-nlj+rehash",
            kind="runtime",
            indexes=IndexConfig.PK,
            allow_nlj=False,
            rehash=True,
        ),
    ),
)


class TestKindRegistry:
    def test_kinds_addressed_by_name(self):
        assert set(KINDS) == {"sweep", "deep"}
        assert KINDS["sweep"] is SWEEP_KIND
        assert KINDS["deep"] is DEEP_KIND

    def test_kind_for_spec_dispatches_by_type(self):
        assert kind_for_spec(SPEC) is SWEEP_KIND
        assert kind_for_spec(DEEP_SPEC) is DEEP_KIND

    def test_kind_for_unknown_spec_rejected(self):
        with pytest.raises(TypeError, match="no cell kind"):
            kind_for_spec(object())

    def test_row_shape_flags(self):
        # the replay-accounting contract: a shallow scan's row count is
        # its cell count; a deep cell owns many rows
        assert SWEEP_KIND.one_row_per_cell is True
        assert DEEP_KIND.one_row_per_cell is False


class TestSpecSerialisation:
    @pytest.mark.parametrize("kind, spec", [
        (SWEEP_KIND, SPEC),
        (
            SWEEP_KIND,
            SweepSpec(
                scale="small",
                seed=7,
                correlation=0.5,
                query_names=None,
                dataset="tpch",
                configs=(
                    EnumeratorConfig(
                        "pk", indexes=IndexConfig.PK, allow_nlj=True
                    ),
                ),
            ),
        ),
        (DEEP_KIND, DEEP_SPEC),
    ])
    def test_payload_round_trips_exactly(self, kind, spec):
        payload = json.loads(json.dumps(kind.spec_payload(spec)))
        assert kind.spec_from_payload(payload) == spec

    def test_spec_digest_stable_and_sensitive(self):
        assert spec_digest(SWEEP_KIND, SPEC) == spec_digest(SWEEP_KIND, SPEC)
        changed = SweepSpec(
            scale="tiny",
            seed=43,
            query_names=("1a", "4a"),
            estimators=("PostgreSQL", "HyPer"),
        )
        assert spec_digest(SWEEP_KIND, changed) != spec_digest(
            SWEEP_KIND, SPEC
        )

    @pytest.mark.parametrize("spec_cls", [SweepSpec, DeepSpec])
    def test_oracle_processes_is_not_a_field(self, spec_cls):
        """The truth oracle has one mode: no spec can ask for another."""
        assert spec_cls().oracle_processes == 1
        with pytest.raises(TypeError):
            spec_cls(oracle_processes=2)

    def test_unit_digest_content_keyed(self):
        units = SWEEP_KIND.decompose(SPEC)
        again = SWEEP_KIND.decompose(SPEC)
        # same grid delta, same ids — what makes re-enqueueing idempotent
        assert [unit_digest(SWEEP_KIND, u) for u in units] == [
            unit_digest(SWEEP_KIND, u) for u in again
        ]
        narrowed = units[0].restrict({(0, 0)})
        assert unit_digest(SWEEP_KIND, narrowed) != unit_digest(
            SWEEP_KIND, units[0]
        )


class TestWrapperParity:
    def test_run_sweep_is_run_cells_with_sweep_kind(self, tmp_path):
        wrapped = run_sweep(
            SPEC, truth_root=tmp_path, result_root=tmp_path / "a"
        )
        generic = run_cells(
            SPEC,
            SWEEP_KIND,
            truth_root=tmp_path,
            result_root=tmp_path / "b",
        )
        assert generic.rows == wrapped.rows
        assert generic.priced_cells == wrapped.priced_cells == 8

    def test_run_deep_sweep_is_run_cells_with_deep_kind(self, tmp_path):
        wrapped = run_deep_sweep(
            DEEP_SPEC, truth_root=tmp_path, result_root=tmp_path / "a"
        )
        generic = run_cells(
            DEEP_SPEC,
            DEEP_KIND,
            truth_root=tmp_path,
            result_root=tmp_path / "b",
        )
        assert generic.rows == wrapped.rows
        assert generic.priced_cells == wrapped.priced_cells == 8

    def test_pooled_generic_matches_sequential(self, tmp_path):
        sequential = run_cells(SPEC, SWEEP_KIND, truth_root=tmp_path)
        pooled = run_cells(
            SPEC, SWEEP_KIND, processes=2, truth_root=tmp_path
        )
        assert pooled.rows == sequential.rows

    @pytest.mark.parametrize("kind, spec", [
        (SWEEP_KIND, SPEC), (DEEP_KIND, DEEP_SPEC),
    ])
    def test_warm_generic_path_prices_nothing(
        self, kind, spec, tmp_path, monkeypatch
    ):
        first = run_cells(
            spec, kind, truth_root=tmp_path, result_root=tmp_path
        )

        def _no_pricing(*args, **kwargs):
            raise AssertionError("a fully cached run must not price cells")

        monkeypatch.setattr(driver_module, "price_cells", _no_pricing)
        monkeypatch.setattr(driver_module, "price_deep_cells", _no_pricing)
        monkeypatch.setattr(driver_module, "build_resources", _no_pricing)
        second = run_cells(
            spec, kind, truth_root=tmp_path, result_root=tmp_path
        )
        assert second.priced_cells == 0
        assert second.cached_cells == first.priced_cells
        assert second.rows == first.rows


# --------------------------------------------------------------------- #
# every registered artifact, both kinds, through the one generic driver
# --------------------------------------------------------------------- #

BASE = SweepSpec(scale="tiny", seed=42, query_names=("1a", "4a"))


@pytest.fixture(scope="module")
def parity_root(tmp_path_factory):
    """One shared store; the first pass over each artifact warms it."""
    return tmp_path_factory.mktemp("kind-parity-store")


@pytest.mark.parametrize("name", [
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table1", "table2", "table3", "ablation",
    "fig3-deep", "fig5-deep", "fig6-deep", "fig7-deep", "fig8-deep",
])
class TestArtifactKindParity:
    def test_rows_byte_identical_warm_and_cold(self, name, parity_root):
        definition = frame_mod._registry()[name]
        kind = DEEP_KIND if definition.deep else SWEEP_KIND
        cold = [
            run_cells(
                spec,
                kind,
                truth_root=parity_root,
                result_root=parity_root,
            )
            for spec in definition.specs(BASE)
        ]
        before = instrument.snapshot()
        warm = [
            run_cells(
                spec,
                kind,
                truth_root=parity_root,
                result_root=parity_root,
            )
            for spec in definition.specs(BASE)
        ]
        delta = instrument.snapshot() - before
        assert delta.cells_priced == 0
        assert delta.deep_cells_priced == 0
        assert delta.db_generations == 0
        assert sum(r.priced_cells for r in warm) == 0
        assert [w.rows for w in warm] == [c.rows for c in cold]
