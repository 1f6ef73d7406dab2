"""Backbone construction, variant table, forward shapes, block wiring."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import evit.tensor as T
from evit.analysis import cost_report
from evit.attention import ConnectionPattern
from evit.backbone import (
    VARIANTS,
    bev_block_forward,
    build,
    reduced_variant,
    stage_sides,
    validate_spec,
)
from evit.errors import ConfigError, ShapeError
from evit.feedforward import FfnKind
from evit.tensor import Tensor

from conftest import softmax_outputs, to_nhwc
from reference import (
    layernorm_twopass,
    naive_conv2d,
    naive_dwconv2d,
    naive_fovea_attention,
    naive_gelu,
)


def _with_stage1(**changes):
    """Full-width tiny with its first stage row changed."""
    tiny = VARIANTS["tiny"]
    return replace(tiny, stages=(replace(tiny.stages[0], **changes),) + tiny.stages[1:])


# makers of stage tables that are refused when made: (maker, a fragment of the error)
BAD_SPECS = [
    pytest.param(lambda: replace(VARIANTS["tiny"], stages=VARIANTS["tiny"].stages[:3]),
                 "^expected 4 stages, got 3$", id="three-stages"),
    pytest.param(lambda: replace(VARIANTS["tiny"], stem_channels=0, num_classes=0),
                 "stem/head/classes must be positive", id="stem-0-classes-0"),
    pytest.param(lambda: _with_stage1(blocks=0), "stage1 needs at least one block",
                 id="blocks-0"),
    pytest.param(lambda: _with_stage1(heads=0), "stage1: dim and heads must be positive",
                 id="heads-0"),
    pytest.param(lambda: _with_stage1(expansion=float("inf")),
                 "stage1: expansion must be finite", id="expansion-inf"),
]


@pytest.mark.parametrize("make,message", BAD_SPECS)
def test_bad_stage_table_refused_when_made(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


class TestVariantTable:
    def test_four_variants_present(self):
        assert sorted(VARIANTS) == ["base", "large", "small", "tiny"]

    @pytest.mark.parametrize(
        "name,stem,channels,depths,heads,expansion",
        [
            ("tiny", 28, (56, 112, 224, 448), (2, 2, 6, 2), (1, 2, 4, 8), 3.0),
            ("small", 32, (64, 128, 256, 512), (3, 3, 12, 3), (1, 2, 4, 8), 3.0),
            ("base", 32, (64, 128, 256, 512), (4, 4, 27, 4), (2, 4, 8, 16), 3.5),
            ("large", 36, (72, 144, 288, 576), (4, 4, 27, 4), (2, 4, 8, 16), 4.0),
        ],
    )
    def test_stage_tables(self, name, stem, channels, depths, heads, expansion):
        spec = VARIANTS[name]
        assert spec.stem_channels == stem
        assert tuple(s.channels for s in spec.stages) == channels
        assert tuple(s.blocks for s in spec.stages) == depths
        assert tuple(s.heads for s in spec.stages) == heads
        assert all(s.expansion == expansion for s in spec.stages)
        assert tuple(s.sfa_reduction for s in spec.stages) == (8, 4, 2, 1)
        assert tuple(s.dfa_reduction for s in spec.stages) == (4, 2, 1, 1)
        assert spec.head_channels == 1280 and spec.num_classes == 1000

    def test_stage_sides_at_224(self):
        assert stage_sides(224) == [56, 28, 14, 7]

    def test_input_size_must_be_multiple_of_32(self):
        validate_spec(VARIANTS["tiny"], 64)
        with pytest.raises(ConfigError):
            validate_spec(VARIANTS["tiny"], 48)
        with pytest.raises(ConfigError):
            validate_spec(VARIANTS["tiny"], 0)

    def test_reduction_must_divide_stage_side(self):
        spec = _with_stage1(sfa_reduction=3)
        message = "stage1 map side 56 .* sfa reduction 3"
        with pytest.raises(ConfigError, match=message):
            validate_spec(spec, 224)
        with pytest.raises(ConfigError, match=message):
            build(spec, seed=0).forward(np.zeros((1, 3, 224, 224)))
        with pytest.raises(ConfigError, match=message):
            cost_report(spec, 224)

    def test_reduced_variant_arithmetic(self):
        spec = reduced_variant(VARIANTS["tiny"], width_divisor=4, num_classes=2)
        assert spec.stem_channels == 7
        assert tuple(s.channels for s in spec.stages) == (14, 28, 56, 112)
        assert all(s.blocks == 1 for s in spec.stages)
        assert spec.num_classes == 2 and spec.name == "tiny-reduced"

    def test_reduced_variant_bad_divisor(self):
        with pytest.raises(ConfigError):
            reduced_variant(VARIANTS["tiny"], width_divisor=3)

    def test_reduced_variant_stage_width_not_divisible(self):
        with pytest.raises(ConfigError, match="stage1 channels 58 not divisible by 4"):
            reduced_variant(_with_stage1(channels=58), width_divisor=4)

    @pytest.mark.parametrize("argument", ["width_divisor", "blocks_per_stage"])
    def test_reduced_variant_rejects_zero(self, argument):
        with pytest.raises(ConfigError, match=argument):
            reduced_variant(VARIANTS["tiny"], **{argument: 0})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            build("huge", seed=0)


class TestBuild:
    def test_deterministic_bitwise(self, toy_spec):
        a = build(toy_spec, seed=11)
        b = build(toy_spec, seed=11)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self, toy_spec):
        a = build(toy_spec, seed=0)
        b = build(toy_spec, seed=1)
        assert not np.array_equal(
            a.params["stem"]["conv1"]["weight"].data, b.params["stem"]["conv1"]["weight"].data
        )

    def test_names_unique_and_addressable(self, toy_spec):
        graph = build(toy_spec, seed=0)
        names = [n for n, _ in graph.named_parameters()]
        assert len(names) == len(set(names))
        assert "stage3.block0.bfsa.sfa.q_weight" in names
        assert "stage1.block0.ffn.fuse.weight" in names
        assert "stem.conv1.weight" in names and "head.fc.bias" in names

    def test_zero_classifier_default(self, toy_spec, rng):
        graph = build(toy_spec, seed=3)
        logits = graph.forward(rng.uniform(size=(2, 3, 32, 32)))
        np.testing.assert_array_equal(logits.data, np.zeros((2, 2)))
        live = build(toy_spec, seed=3, zero_classifier=False)
        assert np.abs(live.forward(rng.uniform(size=(2, 3, 32, 32))).data).max() > 0

    def test_negative_seed_rejected(self, toy_spec):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            build(toy_spec, seed=-1)

    # sha256 of the "<name> <d0,d1,...>" lines of full-width tiny, in order;
    # a checkpoint's tensor table follows this list, so it must not move
    NAME_SHAPE_SHA256 = {
        FfnKind.FFN: "70a7525ddd71d66dcf9b825bead12e9b7b37064aef0b2dd6f2eb6c92a8c7f5be",
        FfnKind.CFFN: "817295022bea2483162b763387abd8866bcf8bb8c12947768eb1cebadb333757",
        FfnKind.BFFN: "750e62563a7e6f2a386f3af2c668d80dca5ae047015c2a7bb33f5aa6efce9a7c",
    }

    @pytest.mark.parametrize("ffn_kind", list(FfnKind))
    def test_tiny_names_order_and_shapes_pinned(self, ffn_kind):
        graph = build("tiny", seed=0, ffn_kind=ffn_kind)
        text = "\n".join(
            f"{name} {','.join(map(str, p.shape))}" for name, p in graph.named_parameters()
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.NAME_SHAPE_SHA256[ffn_kind]

    def test_norm_and_gate_init(self, toy_spec):
        graph = build(toy_spec, seed=0)
        params = dict(graph.named_parameters())
        np.testing.assert_array_equal(params["stage1.block0.ln1.gamma"].data, 1.0)
        np.testing.assert_array_equal(params["stage1.block0.ln2.beta"].data, 0.0)
        np.testing.assert_array_equal(params["stage2.block0.ffn.fuse.weight"].data, 1.0)


class TestForward:
    def test_stage_maps_follow_table(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        logits, maps = graph.forward(rng.uniform(size=(2, 3, 64, 64)), return_stage_maps=True)
        assert logits.shape == (2, 2)
        sides = [16, 8, 4, 2]
        for m, stage, side in zip(maps, toy_spec.stages, sides):
            assert m.shape == (2, stage.channels, side, side)

    def test_rejects_bad_inputs(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        with pytest.raises(ShapeError):
            graph.forward(rng.uniform(size=(2, 1, 32, 32)))
        with pytest.raises(ShapeError):
            graph.forward(rng.uniform(size=(2, 3, 32, 64)))
        with pytest.raises(ConfigError):
            graph.forward(rng.uniform(size=(2, 3, 48, 48)))

    def test_capture_records_requested_block(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        with softmax_outputs() as capture:
            graph.forward(rng.uniform(size=(1, 3, 32, 32)))
        stage = toy_spec.stages[1]
        tokens = 4 * 4
        kv = (4 // stage.sfa_reduction) ** 2
        assert capture["stage2.block0.bfsa.sfa"].shape == (1, stage.heads, tokens, kv)
        assert capture["stage2.block0.bfsa.dfa"].shape[0:2] == (1, stage.heads)

    def test_forward_deterministic(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        x = rng.uniform(size=(1, 3, 32, 32))
        a = graph.forward(x).data
        b = graph.forward(x).data
        assert np.array_equal(a, b)

    def test_gradients_give_unreached_parameters_zeros(self, toy_spec, rng):
        """A loss on the stage-1 map reaches the stem and stage 1 only; every
        later parameter still gets a gradient, all zeros, of its own shape."""
        graph = build(toy_spec, seed=0, zero_classifier=False)
        _, maps = graph.forward(rng.uniform(size=(2, 3, 32, 32)), return_stage_maps=True)
        loss = T.tensor_sum(T.mul(maps[0], Tensor(rng.normal(size=maps[0].shape))))
        grads = graph.gradients(loss)
        params = graph.named_parameters()
        assert list(grads) == [name for name, _ in params]
        later = ("stage2.", "stage3.", "stage4.", "head.")
        unreached = [(name, p) for name, p in params if name.startswith(later)]
        assert unreached
        for name, p in unreached:
            assert grads[name].shape == p.shape, name
            assert not grads[name].any(), name
        assert np.abs(grads["stem.conv1.weight"]).max() > 0


class TestBlockWiring:
    def _zero_branches(self, blk: dict) -> None:
        blk["cpe"]["weight"].data[:] = 0.0
        blk["cpe"]["bias"].data[:] = 0.0
        blk["bfsa"]["sfa"]["out_weight"].data[:] = 0.0
        blk["bfsa"]["dfa"]["out_weight"].data[:] = 0.0
        blk["ffn"]["fc2"]["weight"].data[:] = 0.0
        blk["ffn"]["fc2"]["bias"].data[:] = 0.0

    def test_zeroed_branches_give_identity(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        blk = graph.params["stage1"]["block0"]
        self._zero_branches(blk)
        x = Tensor(to_nhwc(rng.normal(size=(2, toy_spec.stages[0].channels, 8, 8))))
        out = bev_block_forward(
            x, blk, graph.spec.stages[0].attention, graph.spec.stages[0].ffn(graph.ffn_kind),
            ConnectionPattern.BIFOVEA,
        )
        assert np.abs(out.data - x.data).max() <= 1e-12

    def test_identity_position_encoding_doubles_input(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        blk = graph.params["stage1"]["block0"]
        self._zero_branches(blk)
        center = np.zeros_like(blk["cpe"]["weight"].data)
        center[:, 0, 1, 1] = 1.0  # 3x3 identity kernel
        blk["cpe"]["weight"].data[:] = center
        x = Tensor(to_nhwc(rng.normal(size=(1, toy_spec.stages[0].channels, 8, 8))))
        out = bev_block_forward(
            x, blk, graph.spec.stages[0].attention, graph.spec.stages[0].ffn(graph.ffn_kind),
            ConnectionPattern.BIFOVEA,
        )
        np.testing.assert_allclose(out.data, 2.0 * x.data, atol=1e-12)

    def test_patterns_change_output(self, toy_spec, rng):
        graph = build(toy_spec, seed=0)
        blk = graph.params["stage1"]["block0"]
        x = Tensor(to_nhwc(rng.normal(size=(1, toy_spec.stages[0].channels, 8, 8))))
        outs = {
            p: bev_block_forward(
                x, blk, graph.spec.stages[0].attention, graph.spec.stages[0].ffn(graph.ffn_kind), p
            ).data
            for p in ConnectionPattern
        }
        assert not np.allclose(outs[ConnectionPattern.BIFOVEA], outs[ConnectionPattern.PARALLEL])
        assert not np.allclose(outs[ConnectionPattern.BIFOVEA], outs[ConnectionPattern.CASCADE])

    def test_ffn_kind_changes_parameter_names(self, toy_spec):
        plain = build(toy_spec, seed=0, ffn_kind=FfnKind.FFN)
        names = {n for n, _ in plain.named_parameters()}
        assert not any("fuse" in n or "shallow" in n for n in names)
        local = build(toy_spec, seed=0, ffn_kind=FfnKind.CFFN)
        assert any(".ffn.dw.weight" in n for n, _ in local.named_parameters())


def _reference_logits(graph, images):
    """The whole bifovea/BFFN forward in (N,C,H,W), from the loop oracles only."""

    def conv(x, p, stride, padding):
        out = naive_conv2d(x, p["weight"].data, stride, padding)
        return out + p["bias"].data[None, :, None, None]

    def affine(t, p):
        return t @ p["weight"].data + p["bias"].data

    def dwconv(x, p):
        return naive_dwconv2d(x, p["weight"].data, 1, 1) + p["bias"].data[None, :, None, None]

    def per_position(fn, x):
        return fn(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)

    def norm(x, p):
        return per_position(lambda t: layernorm_twopass(t, p["gamma"].data, p["beta"].data), x)

    def attention(x, heads, reduction, fovea):
        pooled = reduction > 1
        return naive_fovea_attention(
            x, heads, reduction, fovea["q_weight"].data, fovea["k_weight"].data,
            fovea["v_weight"].data, fovea["out_weight"].data,
            fovea["reduce"]["weight"].data if pooled else None,
            fovea["reduce"]["bias"].data if pooled else None,
        )

    x = images
    for i, stride in enumerate((2, 1, 1), start=1):
        x = naive_gelu(conv(x, graph.params["stem"][f"conv{i}"], stride, 1))
    for i, stage_cfg in enumerate(graph.spec.stages):
        stage = graph.params[f"stage{i + 1}"]
        cfg, ffn_cfg = graph.spec.stages[i].attention, graph.spec.stages[i].ffn(graph.ffn_kind)
        x = conv(x, stage["embed"], 2, 0)
        for j in range(stage_cfg.blocks):
            blk = stage[f"block{j}"]
            x = x + dwconv(x, blk["cpe"])
            bfsa = blk["bfsa"]
            shallow = attention(norm(x, blk["ln1"]), cfg.heads, cfg.sfa_reduction, bfsa["sfa"])
            y = x + shallow + attention(shallow, cfg.heads, cfg.dfa_reduction, bfsa["dfa"])

            f = blk["ffn"]
            normed = norm(y, blk["ln2"])
            hidden = per_position(lambda t: affine(t, f["fc1"]), normed)
            hs, hd = ffn_cfg.shallow_width, ffn_cfg.deep_width
            shallow_out = dwconv(hidden[:, :hs], f["shallow_dw"])
            deep_out = dwconv(shallow_out[:, :hd] + hidden[:, hs:], f["deep_dw"])
            merged = np.concatenate([shallow_out, deep_out], axis=1)
            gated = naive_gelu(merged * f["fuse"]["weight"].data[None, :, None, None])
            x = y + per_position(lambda t: affine(t, f["fc2"]), gated)
    pooled = naive_gelu(conv(x, graph.params["head"]["proj"], 1, 0)).mean(axis=(2, 3))
    return affine(pooled, graph.params["head"]["fc"])


class TestWholeModelOracle:
    def test_logits_match_loop_oracle(self, toy_spec, rng):
        graph = build(toy_spec, seed=5, zero_classifier=False)
        images = rng.uniform(size=(2, 3, 32, 32))
        ours = graph.forward(images).data
        expected = _reference_logits(graph, images)
        assert np.abs(expected).max() > 0
        assert np.abs(ours - expected).max() <= 1e-10


class TestLayout:
    def test_forward_moves_data_only_for_attention_heads(self, toy_spec, rng, monkeypatch):
        """Maps stay channels-last: the one transpose turns the (N,3,H,W)
        images channels-last, and each attention pathway splits and merges
        its heads inside one ``T.attention`` call."""
        calls = {"transpose": 0, "attention": 0}

        def counting(name):
            original = getattr(T, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(T, name, counting(name))
        build(toy_spec, seed=0).forward(rng.uniform(size=(2, 3, 32, 32)))
        pathways = 2 * sum(stage.blocks for stage in toy_spec.stages)
        assert calls == {"transpose": 1, "attention": pathways}
