"""Acceptance suite: the eight end-to-end criteria this package must meet.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers,
bypassing pytest's capture so the lines show up in plain test logs. Run with
``pytest tests/test_acceptance.py`` (add ``-v`` for per-test status too).
"""

import math

import numpy as np
import pytest

import evit.tensor as T
from evit.analysis import cost_report
from evit.attention import (
    AttentionConfig,
    ConnectionPattern,
    bfsa_forward,
    dfa_forward,
    init_bfsa_params,
    init_fovea_params,
    sfa_forward,
)
from evit.backbone import VARIANTS, bev_block_forward, build, reduced_variant
from evit.checkpoint import load_checkpoint, save_checkpoint
from evit.config import RunConfig
from evit.feedforward import FfnKind
from evit.gradcheck import run_gradcheck
from evit.tensor import Tensor
from evit.train import run_training

from conftest import softmax_outputs, to_nchw, to_nhwc
from reference import layernorm_twopass, naive_fovea_attention, softmax_longdouble
from test_autograd import check_against_fd


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_budget_reconciliation(capsys):
    """Params within 10% and headline FLOPs within 15% of the references."""
    worst_param, worst_flop = 0.0, 0.0
    for name, spec in VARIANTS.items():
        report = cost_report(spec)
        built = sum(p.size for _, p in build(spec, seed=0).named_parameters())
        assert report.total_params == built, f"{name}: analytic != built"
        assert any(".bfsa.sfa" in r.name for r in report.rows)
        assert any("feedforward split" in note for note in report.notes)
        assert any("position encoding" in note for note in report.notes)
        worst_param = max(worst_param, abs(report.param_deviation))
        worst_flop = max(worst_flop, abs(report.flop_deviation))
    ok = worst_param <= 0.10 and worst_flop <= 0.15
    _report(
        capsys, ok, "criterion-1 budget reconciliation",
        f"worst param deviation {worst_param:.2%} (<=10%), "
        f"worst headline FLOP deviation {worst_flop:.2%} (<=15%), "
        f"analytic totals equal built totals for all 4 variants",
    )


def test_criterion_2_shape_suite(capsys):
    """Stage resolutions and channels match the table at 224, 64 and 256 px."""
    checked = []
    for name, spec in VARIANTS.items():
        graph = build(spec, seed=0)
        logits, maps = graph.forward(np.zeros((1, 3, 224, 224)), return_stage_maps=True)
        assert logits.shape == (1, 1000)
        for m, stage, side in zip(maps, spec.stages, (56, 28, 14, 7)):
            assert m.shape == (1, stage.channels, side, side), name
        checked.append(f"{name}@224")

    toy = reduced_variant(VARIANTS["tiny"], num_classes=2)
    graph = build(toy, seed=0)
    for size in (64, 256):
        logits, maps = graph.forward(np.zeros((1, 3, size, size)), return_stage_maps=True)
        assert logits.shape == (1, 2)
        for m, stage, divisor in zip(maps, toy.stages, (4, 8, 16, 32)):
            assert m.shape == (1, stage.channels, size // divisor, size // divisor)
        checked.append(f"tiny-reduced@{size}")
    _report(capsys, True, "criterion-2 shape suite", ", ".join(checked) + " all match")


def test_criterion_3_oracle_equivalence(capsys):
    """Attention, softmax and layer norm agree with independent oracles."""
    rng = np.random.default_rng(7)

    attn_worst, attn_cases = 0.0, 0
    for dim, heads in [(4, 1), (6, 2), (8, 4), (12, 3)]:
        for reduction in (1, 2):
            for side in (2, 4, 6, 8):
                if side % reduction:
                    continue
                for _ in range(4):
                    params = init_fovea_params(rng, dim, reduction)
                    x = rng.normal(size=(1, dim, side, side))
                    cfg = AttentionConfig(dim, heads, reduction, reduction)
                    ours = to_nchw(sfa_forward(Tensor(to_nhwc(x)), cfg, params).data)
                    ref = naive_fovea_attention(
                        x, heads, reduction,
                        params["q_weight"].data, params["k_weight"].data,
                        params["v_weight"].data, params["out_weight"].data,
                        None if reduction == 1 else params["reduce"]["weight"].data,
                        None if reduction == 1 else params["reduce"]["bias"].data,
                    )
                    attn_worst = max(attn_worst, np.abs(ours - ref).max())
                    attn_cases += 1

    soft_worst = 0.0
    for _ in range(120):
        x = rng.normal(scale=rng.uniform(0.5, 25.0), size=(3, 11))
        soft_worst = max(
            soft_worst, np.abs(T.softmax(Tensor(x)).data - softmax_longdouble(x)).max()
        )

    ln_worst = 0.0
    for _ in range(120):
        x = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.5, 10), size=(4, 16))
        gamma, beta = rng.normal(size=16), rng.normal(size=16)
        ours = T.layernorm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        ln_worst = max(ln_worst, np.abs(ours - layernorm_twopass(x, gamma, beta)).max())

    ok = attn_cases >= 100 and attn_worst <= 1e-10 and soft_worst <= 1e-12 and ln_worst <= 1e-10
    _report(
        capsys, ok, "criterion-3 oracle equivalence",
        f"attention {attn_worst:.1e} over {attn_cases} cases (<=1e-10), "
        f"softmax {soft_worst:.1e} (<=1e-12), layernorm {ln_worst:.1e} (<=1e-10)",
    )


def test_criterion_4_gradient_verification(capsys):
    """Per-op adjoints within 1e-4 and the end-to-end model within 1e-3."""
    rng = np.random.default_rng(3)
    per_op_worst = 0.0

    x = Tensor(to_nhwc(rng.normal(size=(2, 3, 7, 7))), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    mix = Tensor(to_nhwc(rng.normal(size=(2, 4, 4, 4))))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.conv2d(x, w, stride=2, padding=1), mix)), [x, w], rng))

    xd = Tensor(to_nhwc(rng.normal(size=(1, 4, 6, 6))), requires_grad=True)
    wd = Tensor(rng.normal(size=(4, 1, 2, 2)), requires_grad=True)
    mixd = Tensor(to_nhwc(rng.normal(size=(1, 4, 3, 3))))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.dwconv2d(xd, wd, stride=2), mixd)), [xd, wd], rng))

    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    mixm = Tensor(rng.normal(size=(4, 3)))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.matmul(a, b), mixm)), [a, b], rng))

    xs = Tensor(rng.normal(scale=3, size=(3, 7)), requires_grad=True)
    mixs = Tensor(rng.normal(size=(3, 7)))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.softmax(xs), mixs)), [xs], rng))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.gelu(xs), mixs)), [xs], rng))

    xl = Tensor(rng.normal(loc=1, scale=4, size=(3, 8)), requires_grad=True)
    gam = Tensor(rng.normal(size=(8,)), requires_grad=True)
    bet = Tensor(rng.normal(size=(8,)), requires_grad=True)
    mixl = Tensor(rng.normal(size=(3, 8)))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.layernorm(xl, gam, bet), mixl)), [xl, gam, bet], rng))

    logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    labels = np.array([0, 1, 2, 1, 0])
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.cross_entropy(logits, labels), [logits], rng, count=6))

    xp = Tensor(to_nhwc(rng.normal(size=(2, 3, 4, 4))), requires_grad=True)
    mixp = Tensor(rng.normal(size=(2, 3)))
    per_op_worst = max(per_op_worst, check_against_fd(
        lambda: T.tensor_sum(T.mul(T.avgpool_global(xp), mixp)), [xp], rng))

    spec = reduced_variant(VARIANTS["tiny"], num_classes=2)
    result = run_gradcheck(spec, seed=0, input_size=32, samples=12)

    ok = per_op_worst <= 1e-4 and result.passed
    _report(
        capsys, ok, "criterion-4 gradient verification",
        f"per-op max rel error {per_op_worst:.1e} (<=1e-4), end-to-end max rel "
        f"error {result.max_rel_error:.1e} over {len(result.samples)} sampled "
        f"params (<=1e-3)",
    )


def test_criterion_5_wiring_identities(capsys):
    """Connection patterns compose exactly as specified."""
    rng = np.random.default_rng(11)
    cfg = AttentionConfig(dim=12, heads=3, sfa_reduction=2, dfa_reduction=1)
    params = init_bfsa_params(rng, cfg)
    x = Tensor(to_nhwc(rng.normal(size=(2, 12, 6, 6))))

    sfa, dfa = params["sfa"], params["dfa"]
    shallow = sfa_forward(x, cfg, sfa)
    worst = 0.0
    bi = bfsa_forward(x, cfg, params, ConnectionPattern.BIFOVEA).data
    worst = max(worst, np.abs(bi - (shallow.data + dfa_forward(shallow, cfg, dfa).data)).max())
    pa = bfsa_forward(x, cfg, params, ConnectionPattern.PARALLEL).data
    worst = max(worst, np.abs(pa - (shallow.data + dfa_forward(x, cfg, dfa).data)).max())
    ca = bfsa_forward(x, cfg, params, ConnectionPattern.CASCADE).data
    worst = max(worst, np.abs(ca - dfa_forward(shallow, cfg, dfa).data).max())

    with softmax_outputs() as capture:
        bfsa_forward(x, cfg, params, ConnectionPattern.BIFOVEA)
    row_err = max(np.abs(w.sum(axis=-1) - 1.0).max() for w in capture.values())

    toy = reduced_variant(VARIANTS["tiny"], num_classes=2)
    graph = build(toy, seed=0)
    blk = graph.params["stage1"]["block0"]
    blk["cpe"]["weight"].data[:] = 0.0
    blk["cpe"]["bias"].data[:] = 0.0
    blk["bfsa"]["sfa"]["out_weight"].data[:] = 0.0
    blk["bfsa"]["dfa"]["out_weight"].data[:] = 0.0
    blk["ffn"]["fc2"]["weight"].data[:] = 0.0
    blk["ffn"]["fc2"]["bias"].data[:] = 0.0
    xb = Tensor(to_nhwc(rng.normal(size=(1, toy.stages[0].channels, 8, 8))))
    out = bev_block_forward(
        xb, blk, graph.spec.stages[0].attention, graph.spec.stages[0].ffn(graph.ffn_kind),
        ConnectionPattern.BIFOVEA,
    )
    identity_err = np.abs(out.data - xb.data).max()

    ok = worst <= 1e-12 and identity_err <= 1e-12 and row_err <= 1e-9
    _report(
        capsys, ok, "criterion-5 wiring identities",
        f"pattern composition error {worst:.1e} (<=1e-12), zero-branch block "
        f"identity {identity_err:.1e} (<=1e-12), attention rows sum to 1 "
        f"within {row_err:.1e} (<=1e-9)",
    )


def test_criterion_6_ablation_grid(capsys):
    """Every pattern x feedforward combination builds, runs and gradchecks."""
    toy = reduced_variant(VARIANTS["tiny"], num_classes=2)
    combos = 0
    worst = 0.0
    ffn_counts = {}
    for pattern in ConnectionPattern:
        for kind in FfnKind:
            result = run_gradcheck(
                toy, seed=2, input_size=32, samples=4, pattern=pattern, ffn_kind=kind
            )
            assert result.passed, f"{pattern.value}/{kind.value}: {result.max_rel_error:.1e}"
            worst = max(worst, result.max_rel_error)
            graph = build(toy, seed=2, pattern=pattern, ffn_kind=kind)
            ffn_counts[(pattern, kind)] = sum(p.size for _, p in graph.named_parameters())
            combos += 1

    per_pattern = {
        p: tuple(ffn_counts[(p, k)] for k in FfnKind) for p in ConnectionPattern
    }
    assert len(set(per_pattern.values())) == 1  # wiring does not change counts
    counts = per_pattern[ConnectionPattern.BIFOVEA]
    ordered = counts[list(FfnKind).index(FfnKind.FFN)] < counts[
        list(FfnKind).index(FfnKind.CFFN)
    ] < counts[list(FfnKind).index(FfnKind.BFFN)]

    ok = combos == 9 and ordered
    _report(
        capsys, ok, "criterion-6 ablation grid",
        f"9/9 combinations pass gradcheck (worst {worst:.1e}); feedforward "
        f"param counts strictly ordered {counts[list(FfnKind).index(FfnKind.FFN)]:,} < "
        f"{counts[list(FfnKind).index(FfnKind.CFFN)]:,} < "
        f"{counts[list(FfnKind).index(FfnKind.BFFN)]:,}",
    )


def test_criterion_7_toy_training(capsys, tmp_path):
    """A reduced model reaches 95% training accuracy within 300 steps."""
    config = RunConfig()  # defaults: tiny/4, one block per stage, 300 steps, seed 0
    result = run_training(config, tmp_path)
    first_loss = result.history[0][1]
    start_ok = abs(first_loss - math.log(2.0)) <= 0.05
    ok = result.final_accuracy >= 0.95 and start_ok
    _report(
        capsys, ok, "criterion-7 toy training",
        f"first-step loss {first_loss:.4f} (ln 2 +- 0.05), final training "
        f"accuracy {result.final_accuracy:.1%} after {result.steps} steps (>=95%), seed "
        f"{config.train.seed}",
    )


def test_criterion_8_determinism(capsys, tmp_path, monkeypatch):
    """Same seed, same bits: builds, training runs and checkpoints."""
    monkeypatch.delenv("EVIT_SEED", raising=False)
    toy = reduced_variant(VARIANTS["tiny"], num_classes=2)
    a = build(toy, seed=9)
    b = build(toy, seed=9)
    builds_equal = all(
        np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
    )

    config = RunConfig()
    config.train.steps = 40
    config.data.count = 64
    run1 = run_training(config, tmp_path / "r1")
    run2 = run_training(config, tmp_path / "r2")
    metrics_equal = run1.metrics_path.read_bytes() == run2.metrics_path.read_bytes()
    ckpt_equal = run1.checkpoint_path.read_bytes() == run2.checkpoint_path.read_bytes()

    graph = load_checkpoint(run1.checkpoint_path)
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(graph, resaved)
    roundtrip_equal = resaved.read_bytes() == run1.checkpoint_path.read_bytes()

    probe = np.random.default_rng(0).uniform(size=(2, 3, 32, 32))
    logits_equal = np.array_equal(
        graph.forward(probe).data, load_checkpoint(resaved).forward(probe).data
    )

    ok = builds_equal and metrics_equal and ckpt_equal and roundtrip_equal and logits_equal
    _report(
        capsys, ok, "criterion-8 determinism",
        f"repeated builds bitwise equal: {builds_equal}; 40-step reruns: "
        f"metrics {metrics_equal}, checkpoints {ckpt_equal}; save/load/save "
        f"bitwise {roundtrip_equal}; reloaded logits bitwise {logits_equal}",
    )
