"""Cost model: analytic counts against built models and observed forward passes."""

import hashlib
from dataclasses import replace

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


# Golden pins per variant and kind: (sha256 of ``render`` for every detail at
# 224 and 96 px, sha256 of the ``write_csv`` bytes at the same sizes,
# ``parameter_count`` of the variant and of its full-depth ``reduced_variant``).
GOLDEN = {
    ("base", "ffn"): (
        "40b63c2dfcbd9cea81006ca30884b31ee00cea93102485cf59327fd9c79e01d7",
        "7a842eede55abbdde4ef8894d9833c782d5d250564b5dabe021fe28ad9eb79d0",
        46_400_616, 4_271_688,
    ),
    ("base", "cffn"): (
        "89608932cf3305a4e703e6a0767f831f44f2e660651f083bbba85891d82fca1b",
        "413e1e2c98f400b4521b1f1fe4b902f0f0b455b005cbfebec12f299f7fc186ab",
        46_741_096, 4_356_808,
    ),
    ("base", "bffn"): (
        "c96d8ed2a606c52de9d669af57776bcc4ebf417e70684c5072f65bf893e746be",
        "de38a6e9334587cd93be1112faa3b63198211e9a960d86041fd10ff0f1c7faa9",
        46_775_144, 4_365_320,
    ),
    ("large", "ffn"): (
        "cace4e1baa1c36db21236fb241eb4b684a9c22dc96ae3bfeecf71b24a4b2664d",
        "7d381fde0b9d50e4cc7025c22ec9c2a2be0c20b7943195789afcba82b720f631",
        61_933_784, 5_264_726,
    ),
    ("large", "cffn"): (
        "3b2323465f3d27f69c30a534872a81a1434266560f420d6eb07ec9b54bbdacc4",
        "2dfeef539849e612ce74890f085c9e8067a69fbe797722cf230697f65f8d6b6b",
        62_371_544, 5_374_166,
    ),
    ("large", "bffn"): (
        "78ccf424e402d1bf952e6b3bff116964a11399044ffd1b560ea2fe8d5fd784c1",
        "ede1e8dda5182600bafd13bae4da2efbb77b6fb55ce24ebb589e9de535a9c741",
        62_415_320, 5_385_110,
    ),
    ("small", "ffn"): (
        "fc88711bdebcac8a110dab2918bc48b6c1bd8d6fee0ce51f6b5758025806012b",
        "4b4f5ac7cb2c1e96cd1a487359bb04515d2b1d6a1d132ed3cdeaca55635fbbf5",
        25_667_432, 2_954_504,
    ),
    ("small", "cffn"): (
        "44f91453eb5b8a5af9a9b426ba71a49889e542dc91f94c5e6754fef683ae3778",
        "7c3a35b9b92b122a58e9458ce3803b1a949d713ab3633c6a766131fb2f9095d3",
        25_822_952, 2_993_384,
    ),
    ("small", "bffn"): (
        "e83b35d0fc3de897dea2ff2f00d3a68859bc68640f3d839440ccea1a98b5c269",
        "42416c1d735b8a7f908355f2c17d4ff6b575e14aa0ec81876e4b0e54662ecada",
        25_838_504, 2_997_272,
    ),
    ("tiny", "ffn"): (
        "ec07e462004f65f0f3c2f17d484537d72b4dd05d19d39c1d0902da3ecc908320",
        "4c28b434fe9c6d27bc5f2b168e0720ad0b9505b9913074f8ed01ee9982f1d739",
        12_745_368, 2_119_158,
    ),
    ("tiny", "cffn"): (
        "e786efd1d69b36f9dc4b879a08511506629a0d3d659d863718cebe008dc01e3d",
        "1a643ed5e0f4afdbbb645bc368bb0723c505c9da0a2b813d3a238dd3ae046b29",
        12_822_648, 2_138_478,
    ),
    ("tiny", "bffn"): (
        "7066e5245910253d0af950a77d8a641b2e89e4fc652ab1460c16f26f552e1d4f",
        "f443969d9518a80526bb18716cb2078a271b24da27b9b16afb7e199bb2a886fc",
        12_830_376, 2_140_410,
    ),
}

# the four variants, plus reduced tiny with every expansion 2.5: hidden widths
# 35/70/140/280 are odd, so the BFFN's shallow half is one channel wider
SPEC_NAMES = sorted(VARIANTS) + ["tiny-odd-hidden"]


def _reduced(name, **kwargs):
    if name != "tiny-odd-hidden":
        return reduced_variant(VARIANTS[name], **kwargs)
    spec = reduced_variant(VARIANTS["tiny"], **kwargs)
    return replace(spec, stages=tuple(replace(s, expansion=2.5) for s in spec.stages))


def test_odd_hidden_spec_has_odd_widths():
    stages = _reduced("tiny-odd-hidden").stages
    assert [s.ffn(FfnKind.BFFN).hidden for s in stages] == [35, 70, 140, 280]


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
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_each_row_owns_its_named_parameters(self, name, ffn_kind):
        """Row ``r`` counts exactly the parameters named ``r.name + "."...``,
        and every parameter falls under exactly one row."""
        spec = _reduced(name, num_classes=10)
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


class TestGoldenOutputs:
    """Any change to a row's price, name or order, or to the report text, shows here."""

    @staticmethod
    def _reports(name, kind):
        return [cost_report(VARIANTS[name], size, ffn_kind=FfnKind(kind)) for size in (224, 96)]

    @pytest.mark.parametrize("name, kind", sorted(GOLDEN))
    def test_render_text(self, name, kind):
        details = ("params", "flops", "table")
        text = "\n".join(r.render(d) for r in self._reports(name, kind) for d in details)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name, kind][0]

    @pytest.mark.parametrize("name, kind", sorted(GOLDEN))
    def test_csv_bytes(self, name, kind, tmp_path):
        blob = b""
        for report in self._reports(name, kind):
            report.write_csv(tmp_path / "cost.csv")
            blob += (tmp_path / "cost.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN[name, kind][1]

    @pytest.mark.parametrize("name, kind", sorted(GOLDEN))
    def test_parameter_count(self, name, kind):
        spec, ffn_kind = VARIANTS[name], FfnKind(kind)
        full_depth = reduced_variant(spec, blocks_per_stage=None)
        counts = (parameter_count(spec, ffn_kind), parameter_count(full_depth, ffn_kind))
        assert counts == GOLDEN[name, kind][2:]


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
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_scope_macs_equal_cost_rows(self, name, pattern, ffn_kind):
        """Ops run under the scope named like their row: every row's
        ``macs + attn_macs`` are the MACs observed in exactly its scope, and
        no MACs run in a scope that is not a row."""
        spec = _reduced(name, blocks_per_stage=2, num_classes=10)
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
