"""Optimizer behavior, short training runs, and the command line surface."""

import numpy as np
import pytest

import evit.cli
import evit.tensor as T
from evit.backbone import ModuleGraph, build
from evit.checkpoint import load_checkpoint, save_checkpoint
from evit.cli import main
from evit.config import RunConfig, render_config
from evit.data import read_image, synthetic_shapes, write_image
from evit.errors import ConfigError, NonFiniteError
from evit.tensor import Tensor
from evit.train import AdamW, cosine_scale, evaluate, run_training, train_step


def _short_config(steps=4, **model_overrides):
    config = RunConfig()
    config.train.steps = steps
    config.data.count = 32
    for key, value in model_overrides.items():
        setattr(config.model, key, value)
    return config


class TestOptimizer:
    def test_converges_on_quadratic(self):
        w = Tensor(np.array([[10.0]]), requires_grad=True)
        target = Tensor(np.array([[3.0]]))
        opt = AdamW(learning_rate=0.2)
        for _ in range(200):
            diff = T.sub(w, target)
            loss = T.tensor_sum(T.mul(diff, diff))
            opt.step([("w", w)], {"w": loss.backward()[w]})
        assert abs(w.data[0, 0] - 3.0) < 1e-3

    def test_moments_allocated_on_the_first_step_only(self, monkeypatch):
        params = [("w", Tensor(np.ones((2, 3)), requires_grad=True)),
                  ("b", Tensor(np.ones(3), requires_grad=True))]
        grads = {"w": np.full((2, 3), 0.5), "b": np.full(3, 0.5)}
        opt = AdamW(learning_rate=0.1)
        calls = []
        zeros_like = np.zeros_like

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return zeros_like(*args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counted)
        opt.step(params, grads)
        assert len(calls) == 2 * len(params)  # m and v of each tensor
        calls.clear()
        opt.step(params, grads)
        assert calls == []

    def test_decay_skips_one_dimensional_params(self):
        matrix = Tensor(np.full((2, 2), 4.0), requires_grad=True)
        bias = Tensor(np.full(2, 4.0), requires_grad=True)
        opt = AdamW(learning_rate=0.1, weight_decay=0.5)
        zeros = {"m": np.zeros((2, 2)), "b": np.zeros(2)}
        opt.step([("m", matrix), ("b", bias)], zeros)
        assert (matrix.data < 4.0).all()  # decayed
        np.testing.assert_array_equal(bias.data, np.full(2, 4.0))  # untouched

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_steps_bitwise_equal_to_textbook_expressions(self, weight_decay, rng):
        """Small tensors, and a matrix and a vector that span two update blocks
        (``T.row_blocks`` rows of single values) and a ragged tail, decayed and
        undecayed."""
        long = 2 * (T._BLOCK_BYTES // 8) + 5
        shapes = {"w": (3, 4), "b": (4,), "wide": (1, long), "long": (long,)}
        params = [(n, Tensor(rng.normal(size=s), requires_grad=True)) for n, s in shapes.items()]
        expected = {n: p.data.copy() for n, p in params}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        opt = AdamW(learning_rate=0.01, weight_decay=weight_decay)
        b1, b2, eps = AdamW.beta1, AdamW.beta2, AdamW.eps
        for t in range(1, 5):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            lr = 0.01 * 0.5**t
            opt.step(params, grads, lr_scale=0.5**t)
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                update = (m[n] / (1.0 - b1**t)) / (np.sqrt(v[n] / (1.0 - b2**t)) + eps)
                if weight_decay and g.ndim >= 2:
                    update = update + weight_decay * expected[n]
                expected[n] = expected[n] - lr * update
            for n, p in params:
                assert np.array_equal(p.data, expected[n]), (t, n)

    def test_pairs_in_reverse_order_give_the_bits_of_the_mapping(self, rng):
        shapes = {"w": (3, 4), "b": (4,), "conv": (2, 2, 3, 3)}
        start = {n: rng.normal(size=s) for n, s in shapes.items()}
        by_mapping, by_pairs = (
            [(n, Tensor(a.copy(), requires_grad=True)) for n, a in start.items()]
            for _ in range(2)
        )
        opts = [AdamW(learning_rate=0.01, weight_decay=0.05) for _ in range(2)]
        for t in range(1, 4):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            opts[0].step(by_mapping, grads, lr_scale=0.5**t)
            opts[1].step(by_pairs, reversed(list(grads.items())), lr_scale=0.5**t)
        for (n, p), (_, q) in zip(by_mapping, by_pairs):
            assert p.data.tobytes() == q.data.tobytes(), n
            assert opts[0]._m[n].tobytes() == opts[1]._m[n].tobytes(), n
            assert opts[0]._v[n].tobytes() == opts[1]._v[n].tobytes(), n

    def test_a_parameter_the_loss_misses_steps_after_the_walk(self, toy_spec):
        """``gradient_stream`` gives every parameter the loss does not reach an
        all-zeros gradient once the walk is done, so AdamW still steps it: its
        moments decay and weight decay applies, bit for bit the textbook update."""
        graph = build(toy_spec, seed=0, zero_classifier=False)
        named = graph.named_parameters()
        params = dict(named)
        reached = "head.fc.weight"
        missed = [n for n, p in named if n != reached and p.ndim >= 2][0]
        rng = np.random.default_rng(0)
        opt = AdamW(learning_rate=0.01, weight_decay=0.05)
        opt.step(named, {n: rng.normal(size=p.shape) for n, p in named})
        p1, m1, v1 = params[missed].data.copy(), opt._m[missed].copy(), opt._v[missed].copy()

        def loss():
            return T.tensor_sum(T.mul(params[reached], Tensor(rng.normal(size=params[reached].shape))))

        assert [n for n, _ in graph.gradient_stream(loss())] == [reached] + [
            n for n, _ in named if n != reached
        ]
        opt.step(named, graph.gradient_stream(loss()))
        b1, b2, eps, t = AdamW.beta1, AdamW.beta2, AdamW.eps, 2
        m2, v2 = b1 * m1, b2 * v1
        update = (m2 / (1.0 - b1**t)) / (np.sqrt(v2 / (1.0 - b2**t)) + eps) + 0.05 * p1
        assert np.array_equal(opt._m[missed], m2) and np.array_equal(opt._v[missed], v2)
        assert np.array_equal(params[missed].data, p1 - 0.01 * update)

    def test_cosine_scale_endpoints(self):
        assert cosine_scale(1, 100) == 1.0
        assert cosine_scale(100, 100) < 0.001


class TestTrainingLoop:
    def test_short_run_writes_artifacts(self, tmp_path):
        result = run_training(_short_config(), tmp_path)
        assert result.metrics_path.exists() and result.checkpoint_path.exists()
        lines = result.metrics_path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,accuracy"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1"
        assert 0.0 <= float(first[2]) <= 1.0

    def test_loss_starts_at_uniform_prediction(self, tmp_path):
        result = run_training(_short_config(steps=1), tmp_path)
        assert abs(result.history[0][1] - np.log(2.0)) < 0.05

    def test_checkpoint_reloads_and_evaluates(self, tmp_path):
        config = _short_config()
        result = run_training(config, tmp_path)
        graph = load_checkpoint(result.checkpoint_path)
        data = synthetic_shapes(8, 32, seed=config.train.seed)
        accuracy = evaluate(graph, data)
        assert 0.0 <= accuracy <= 1.0

    def test_each_step_enters_adamw_once_after_its_forward(self, tmp_path, monkeypatch):
        """The benchmark's step probe opens step 1 on the first
        ``ModuleGraph.forward`` and closes each step on the return from
        ``AdamW.step``, so each step runs its forward, then one ``AdamW.step``
        with the backward walk inside."""
        events = []
        forward, step = ModuleGraph.forward, AdamW.step

        def counted_forward(graph, *args, **kwargs):
            events.append("forward")
            return forward(graph, *args, **kwargs)

        def counted_step(optimizer, *args, **kwargs):
            events.append("step")
            return step(optimizer, *args, **kwargs)

        monkeypatch.setattr(ModuleGraph, "forward", counted_forward)
        monkeypatch.setattr(AdamW, "step", counted_step)
        run_training(_short_config(steps=3), tmp_path)
        assert events.count("step") == 3
        assert events[:6] == ["forward", "step"] * 3  # then evaluate's forward

    def test_train_step_stops_before_any_parameter_moves(self, toy_spec):
        graph = build(toy_spec, seed=0, zero_classifier=False)
        named = graph.named_parameters()
        before = [p.data.copy() for _, p in named]
        optimizer = AdamW(learning_rate=0.01)
        images = np.full((2, 3, 32, 32), np.nan)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="^step 1: "):
            train_step(graph, optimizer, named, images, np.array([0, 1]))
        assert optimizer.step_count == 0
        for (name, p), data in zip(named, before):
            assert np.array_equal(p.data, data), name

    def test_bitwise_deterministic(self, tmp_path):
        config = _short_config(steps=3)
        a = run_training(config, tmp_path / "a")
        b = run_training(config, tmp_path / "b")
        assert a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
        assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()

    def test_class_count_mismatch_rejected(self, tmp_path):
        config = _short_config(num_classes=5)
        with pytest.raises(ConfigError):
            run_training(config, tmp_path)

    def test_image_size_mismatch_rejected(self, tmp_path):
        config = _short_config()
        config.model.input_size = 64
        config.data.source = str(tmp_path / "imgs")
        rng = np.random.default_rng(0)
        for cls in ("c0", "c1"):
            (tmp_path / "imgs" / cls).mkdir(parents=True)
            write_image(tmp_path / "imgs" / cls / "0.ppm", rng.uniform(size=(3, 32, 32)))
        with pytest.raises(ConfigError):
            run_training(config, tmp_path / "out")


class TestCli:
    def test_build_reports_totals(self, capsys):
        assert main(["build", "--variant", "tiny", "--report", "params"]) == 0
        out = capsys.readouterr().out
        assert "12,830,376" in out
        assert "deviation" in out

    def test_build_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["build", "--variant", "small", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("module,params")

    def test_build_csv_rejects_all_variants(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["build", "--variant", "all", "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    def test_build_rejects_bad_input_size(self, capsys):
        assert main(["build", "--variant", "tiny", "--input", "223"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["build", "--variant", "huge"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["build", "--pattern", "bogus"], id="bad-choice"),
            pytest.param(["build", "--input", "abc"], id="bad-int"),
            pytest.param(["train"], id="missing-required-flag"),
            pytest.param(["bogus"], id="unknown-subcommand"),
            pytest.param([], id="missing-subcommand"),
        ],
    )
    def test_usage_error_is_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["build", "--help"])
        assert info.value.code == 0
        assert "--pattern" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "exc,line",
        [
            (MemoryError("cannot allocate 14.1 GiB"), "error: out of memory: cannot allocate 14.1 GiB"),
            (MemoryError(), "error: out of memory"),
        ],
    )
    def test_memory_error_exits_2_with_one_line(self, exc, line, capsys, monkeypatch):
        def out_of_memory(args):
            raise exc

        # a stand-in subcommand, so the test never makes a real huge allocation
        monkeypatch.setitem(evit.cli._COMMANDS, "build", out_of_memory)
        assert main(["build"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [line]

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--samples", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_gradcheck_detects_corruption(self, capsys, scaled_gelu_adjoint):
        assert main(["gradcheck", "--samples", "4", "--seed", "1"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_gradcheck_at_64_px_reaches_the_attention_scores(self, capsys, request):
        """At 64 px the shallow fovea attends over four keys, so a softmax
        adjoint scaled by 1.5 moves sampled gradients and the check fails; at
        the default 32 px it attends over one key and the same mutant passes."""
        argv = ["gradcheck", "--variant", "tiny", "--input", "64", "--samples", "12"]
        assert main(argv) == 0
        assert "PASS" in capsys.readouterr().out
        request.getfixturevalue("scaled_softmax_adjoint")
        assert main(argv) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_gradcheck_non_finite_exits_3_with_one_line(self, capsys):
        # a step of 1e308 overflows the perturbed loss, so some numeric estimates are NaN
        assert main(["gradcheck", "--step", "1e308"]) == 3
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == ["FAIL: non-finite gradient encountered"]
        assert "rel_err=nan" in captured.out
        assert "max relative error nan over 12 samples" in captured.out

    def test_train_and_attnmap_pipeline(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EVIT_SEED", raising=False)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(render_config(_short_config(steps=2)))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.csv").exists()

        image_path = tmp_path / "probe.ppm"
        write_image(image_path, np.random.default_rng(0).uniform(size=(3, 32, 32)))
        maps_dir = tmp_path / "maps"
        code = main([
            "attnmap",
            "--checkpoint", str(out_dir / "model.ckpt"),
            "--image", str(image_path),
            "--stage", "2", "--block", "0",
            "--fovea", "deep",
            "--out", str(maps_dir),
        ])
        assert code == 0
        written = sorted(maps_dir.glob("*.pgm"))
        assert len(written) == 2  # stage2 of the reduced tiny model has 2 heads
        assert read_image(written[0]).shape == (3, 4, 4)

    def test_train_class_mismatch_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EVIT_SEED", raising=False)
        config_path = tmp_path / "bad.cfg"
        config_path.write_text(render_config(_short_config(num_classes=3)))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diverging_train_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EVIT_SEED", raising=False)
        config = _short_config(steps=3)
        config.train.learning_rate = 1e300  # in range, but the first update overflows
        config_path = tmp_path / "run.cfg"
        config_path.write_text(render_config(config))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: step 2: the loss is nan"), err
        assert not (out_dir / "metrics.csv").exists()
        assert not (out_dir / "model.ckpt").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = main([
            "attnmap", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--image", str(tmp_path / "none.ppm"),
        ])
        assert code == 2

    def test_evit_seed_overrides_config(self, tmp_path, monkeypatch):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(render_config(_short_config(steps=2)))
        monkeypatch.setenv("EVIT_SEED", "777")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("EVIT_SEED")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "file")]) == 0
        env_ckpt = (tmp_path / "env" / "model.ckpt").read_bytes()
        file_ckpt = (tmp_path / "file" / "model.ckpt").read_bytes()
        assert env_ckpt != file_ckpt
        assert b"seed: 777" in env_ckpt


@pytest.fixture
def cli_files(tmp_path, toy_spec, monkeypatch):
    """Valid inputs for every subcommand, a plain file, two truncated images and
    a config file that is not UTF-8."""
    monkeypatch.delenv("EVIT_SEED", raising=False)
    save_checkpoint(build(toy_spec, seed=0), tmp_path / "model.ckpt")
    (tmp_path / "run.cfg").write_text(render_config(_short_config(steps=1)))
    rng = np.random.default_rng(0)
    write_image(tmp_path / "probe.ppm", rng.uniform(size=(3, 32, 32)))
    write_image(tmp_path / "probe.pgm", rng.uniform(size=(32, 32)))
    for name in ("probe.ppm", "probe.pgm"):
        raw = (tmp_path / name).read_bytes()
        (tmp_path / f"short{name[-4:]}").write_bytes(raw[:-5])
    (tmp_path / "taken").write_text("a file, not a directory\n")
    (tmp_path / "latin1.cfg").write_bytes(b"model.variant = tiny\xff\n")
    return tmp_path


def _attnmap(d, checkpoint="model.ckpt", image="probe.ppm", out="maps"):
    return ["attnmap", "--checkpoint", str(d / checkpoint), "--image", str(d / image),
            "--out", str(d / out)]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda d: _attnmap(d, checkpoint="."), id="attnmap-checkpoint-is-dir"),
        pytest.param(lambda d: ["train", "--config", str(d), "--out", str(d / "o")],
                     id="train-config-is-dir"),
        pytest.param(lambda d: ["train", "--config", str(d / "latin1.cfg"), "--out", str(d / "o")],
                     id="train-config-not-utf8"),
        pytest.param(lambda d: _attnmap(d, out="taken"), id="attnmap-out-is-file"),
        pytest.param(lambda d: ["train", "--config", str(d / "run.cfg"), "--out", str(d / "taken")],
                     id="train-out-is-file"),
        pytest.param(lambda d: _attnmap(d, image="short.ppm"), id="attnmap-truncated-ppm"),
        pytest.param(lambda d: _attnmap(d, image="short.pgm"), id="attnmap-truncated-pgm"),
        pytest.param(lambda d: ["gradcheck", "--width-divisor", "0"], id="gradcheck-width-divisor-0"),
        pytest.param(lambda d: ["gradcheck", "--samples", "0"], id="gradcheck-samples-0"),
        # past the reduced model's parameter count
        pytest.param(lambda d: ["gradcheck", "--samples", "100000000"],
                     id="gradcheck-samples-huge"),
        pytest.param(lambda d: ["gradcheck", "--seed", "-1"], id="gradcheck-seed-negative"),
        pytest.param(lambda d: ["gradcheck", "--step", "0"], id="gradcheck-step-0"),
        pytest.param(lambda d: ["gradcheck", "--step", "nan"], id="gradcheck-step-nan"),
        pytest.param(lambda d: ["gradcheck", "--tolerance", "nan"], id="gradcheck-tolerance-nan"),
        pytest.param(lambda d: ["gradcheck", "--input", "33"], id="gradcheck-input-33"),
        pytest.param(lambda d: ["build", "--variant", "tiny", "--input", "48", "--verify"],
                     id="build-input-48-verify"),
    ],
)
def test_malformed_flag_or_path_exits_2_with_one_line(argv, cli_files, capsys):
    code = main(argv(cli_files))
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:"), err
