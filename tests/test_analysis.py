"""Cost model: analytic counts against built models and observed forward passes."""

import numpy as np
import pytest

import evit.tensor as T
from evit import cli
from evit.analysis import (
    REFERENCE_FLOPS,
    REFERENCE_PARAMS,
    cost_report,
    export_attention_maps,
    measure_macs,
    parameter_count,
)
from evit.attention import ConnectionPattern
from evit.backbone import VARIANTS, build, reduced_variant
from evit.data import read_image
from evit.errors import ConfigError
from evit.feedforward import FfnKind

# Regression pins: analytic totals for the published stage tables. These must
# only change if the architecture itself changes.
FROZEN_PARAM_TOTALS = {
    "tiny": 12_830_376,
    "small": 25_838_504,
    "base": 46_775_144,
    "large": 62_415_320,
}


class TestParamCounts:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_frozen_totals(self, name):
        assert cost_report(VARIANTS[name]).total_params == FROZEN_PARAM_TOTALS[name]

    def test_per_module_rows_match_built_groups(self, toy_spec):
        graph = build(toy_spec, seed=0)
        report = cost_report(toy_spec, input_size=32)
        named = graph.named_parameters()
        for row in report.rows:
            group = sum(p.size for n, p in named if n.startswith(row.name + "."))
            assert row.params == group, row.name

    @pytest.mark.parametrize("ffn_kind", list(FfnKind))
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_each_row_owns_its_named_parameters(self, name, ffn_kind):
        """Row ``r`` counts exactly the parameters named ``r.name + "."...``,
        and every parameter falls under exactly one row."""
        spec = reduced_variant(VARIANTS[name], num_classes=10)
        named = build(spec, seed=0, ffn_kind=ffn_kind).named_parameters()
        rows = cost_report(spec, ffn_kind=ffn_kind).rows
        for row in rows:
            group = sum(p.size for n, p in named if n.startswith(row.name + "."))
            assert row.params == group, row.name
        for n, _ in named:
            assert sum(n.startswith(row.name + ".") for row in rows) == 1, n

    @pytest.mark.parametrize("ffn_kind", list(FfnKind))
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_parameter_count_equals_report_total(self, name, ffn_kind):
        spec = VARIANTS[name]
        assert parameter_count(spec, ffn_kind) == cost_report(spec, ffn_kind=ffn_kind).total_params

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_reference_deviation_within_10_percent(self, name):
        report = cost_report(VARIANTS[name])
        assert abs(report.param_deviation) <= 0.10

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_reference_flop_deviation_within_15_percent(self, name):
        report = cost_report(VARIANTS[name])
        assert abs(report.flop_deviation) <= 0.15

    def test_reference_tables_cover_all_variants(self):
        assert set(REFERENCE_PARAMS) == set(VARIANTS) == set(REFERENCE_FLOPS)


class TestMacCounts:
    @pytest.mark.parametrize("size", [32, 64])
    def test_instrumented_equals_analytic(self, toy_spec, size):
        graph = build(toy_spec, seed=0)
        report = cost_report(toy_spec, input_size=size)
        counter = measure_macs(graph, size)
        assert counter.total == report.total_macs_inclusive

    def test_instrumented_full_tiny_224(self):
        graph = build(VARIANTS["tiny"], seed=0)
        report = cost_report(VARIANTS["tiny"])
        assert measure_macs(graph, 224).total == report.total_macs_inclusive

    def test_reconcile_script_verifies_every_variant(self, capsys):
        assert cli.main(["build", "--variant", "all", "--input", "64", "--verify"]) == 0
        verdicts = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("instrumented forward:")
        ]
        assert len(verdicts) == len(VARIANTS)
        assert all(line.endswith("[OK]") for line in verdicts)

    @pytest.mark.parametrize("ffn_kind", list(FfnKind))
    @pytest.mark.parametrize("pattern", list(ConnectionPattern))
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_scope_macs_equal_cost_rows(self, name, pattern, ffn_kind):
        """Ops run under the scope named like their row: every row's
        ``macs + attn_macs`` are the MACs observed in exactly its scope, and
        no MACs run in a scope that is not a row."""
        spec = reduced_variant(VARIANTS[name], blocks_per_stage=2, num_classes=10)
        graph = build(spec, seed=0, pattern=pattern, ffn_kind=ffn_kind)
        by_scope = {}

        def tally(op, scope, out, macs):
            by_scope[scope] = by_scope.get(scope, 0) + macs

        with T.observe(tally), T.no_grad():
            graph.forward(np.zeros((1, 3, 32, 32)))
        rows = {r.name: r.macs + r.attn_macs for r in cost_report(spec, 32, pattern, ffn_kind).rows}
        assert len(rows) == 9 + 8 * 6
        assert {s: by_scope.get(s, 0) for s in rows} == rows
        assert {s: m for s, m in by_scope.items() if s not in rows and m} == {}

    def test_attention_products_accounted_separately(self, toy_spec):
        report = cost_report(toy_spec, input_size=32)
        assert report.total_attn_macs > 0
        assert report.total_macs_inclusive == report.total_macs_dense + report.total_attn_macs
        attn_rows = [r for r in report.rows if r.attn_macs]
        assert all(".bfsa." in r.name for r in attn_rows)


class TestAblationGrid:
    def test_patterns_share_counts(self):
        spec = VARIANTS["tiny"]
        reports = [cost_report(spec, pattern=p) for p in ConnectionPattern]
        assert len({r.total_params for r in reports}) == 1
        assert len({r.total_macs_inclusive for r in reports}) == 1

    def test_ffn_param_ordering_strict(self):
        spec = VARIANTS["base"]
        totals = {k: cost_report(spec, ffn_kind=k).total_params for k in FfnKind}
        assert totals[FfnKind.FFN] < totals[FfnKind.CFFN] < totals[FfnKind.BFFN]

    def test_built_models_agree_with_reports(self, toy_spec):
        for kind in FfnKind:
            report = cost_report(toy_spec, input_size=32, ffn_kind=kind)
            graph = build(toy_spec, seed=0, ffn_kind=kind)
            assert report.total_params == sum(p.size for _, p in graph.named_parameters())


class TestReportSurface:
    def test_render_mentions_conventions_and_gaps(self):
        text = cost_report(VARIANTS["tiny"]).render()
        assert "deviation" in text
        assert "attention products" in text
        assert "notes:" in text
        assert "feedforward split" in text and "position encoding" in text

    def test_csv_export(self, tmp_path):
        report = cost_report(VARIANTS["tiny"])
        path = tmp_path / "cost.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "module,params,macs,attn_macs"
        assert lines[-1].startswith("total,")
        assert len(lines) == len(report.rows) + 2

    def test_rejects_bad_input_size(self):
        with pytest.raises(ConfigError):
            cost_report(VARIANTS["tiny"], input_size=100)


class TestAttentionExport:
    def test_no_observer_left_registered(self, toy_spec, tmp_path, rng):
        graph = build(toy_spec, seed=0)
        measure_macs(graph, 32)
        export_attention_maps(graph, rng.uniform(size=(3, 32, 32)), 1, 0, tmp_path)
        assert T._OBSERVERS == [] and T._SCOPES == []
        with pytest.raises(ConfigError):  # raised inside the forward: 48 is no multiple of 32
            export_attention_maps(graph, rng.uniform(size=(3, 48, 48)), 1, 0, tmp_path)
        assert T._OBSERVERS == [] and T._SCOPES == []

    def test_export_writes_per_head_maps(self, toy_spec, tmp_path, rng):
        graph = build(toy_spec, seed=0)
        image = rng.uniform(size=(3, 64, 64))
        paths = export_attention_maps(graph, image, stage=3, block=0, out_dir=tmp_path)
        stage = toy_spec.stages[2]
        assert len(paths) == stage.heads
        for p in paths:
            assert p.exists() and p.suffix == ".pgm"
            grid = read_image(p)
            assert grid.shape == (3, 4, 4)  # 64px input -> stage3 side 4

    def test_maps_are_minmax_normalized(self, toy_spec, tmp_path, rng):
        graph = build(toy_spec, seed=0)
        image = rng.uniform(size=(3, 64, 64))
        paths = export_attention_maps(graph, image, stage=1, block=0, out_dir=tmp_path)
        grid = read_image(paths[0])
        assert grid.min() == 0.0 and grid.max() == 1.0

    def test_single_kv_token_renders_mid_gray(self, toy_spec, tmp_path, rng):
        # at 32px every stage-1 query sees one pooled key, a constant map
        graph = build(toy_spec, seed=0)
        image = rng.uniform(size=(3, 32, 32))
        paths = export_attention_maps(graph, image, stage=1, block=0, out_dir=tmp_path)
        grid = read_image(paths[0])
        np.testing.assert_allclose(grid, 128.0 / 255.0, atol=1e-12)

    def test_deep_fovea_and_bad_indices(self, toy_spec, tmp_path, rng):
        graph = build(toy_spec, seed=0)
        image = rng.uniform(size=(3, 64, 64))
        paths = export_attention_maps(
            graph, image, stage=2, block=0, out_dir=tmp_path, fovea="dfa"
        )
        assert all("dfa" in p.name for p in paths)
        with pytest.raises(ConfigError):
            export_attention_maps(graph, image, stage=5, block=0, out_dir=tmp_path)
        with pytest.raises(ConfigError):
            export_attention_maps(graph, image, stage=1, block=3, out_dir=tmp_path)
        with pytest.raises(ConfigError):
            export_attention_maps(graph, image, stage=1, block=0, out_dir=tmp_path, fovea="x")

    @pytest.mark.parametrize("shape", [(32, 32), (1, 32, 32), (3, 32, 64)])
    def test_rejects_image_not_3_s_s(self, toy_spec, tmp_path, shape):
        graph = build(toy_spec, seed=0)
        with pytest.raises(ConfigError, match=r"expected one \(3, S, S\) image"):
            export_attention_maps(graph, np.zeros(shape), stage=1, block=0, out_dir=tmp_path)
