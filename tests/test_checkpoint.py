"""Checkpoint format: bitwise round trips, tamper detection, inference-ready loads."""

import contextlib
import io
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evit.checkpoint
import evit.tensor as T
from evit.backbone import build
from evit.checkpoint import MAGIC, load_checkpoint, read_manifest, save_checkpoint
from evit.cli import main
from evit.data import write_image
from evit.errors import ConfigError, NonFiniteError, ShapeError


def checkpoint_equal(path_a, path_b) -> bool:
    """Byte-for-byte file comparison."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


@pytest.fixture
def saved(toy_spec, tmp_path):
    graph = build(toy_spec, seed=21, zero_classifier=False)
    path = tmp_path / "model.ckpt"
    save_checkpoint(graph, path)
    return graph, path


def test_round_trip_bitwise(saved, tmp_path):
    graph, path = saved
    restored = load_checkpoint(path)
    second = tmp_path / "again.ckpt"
    save_checkpoint(restored, second)
    assert checkpoint_equal(path, second)


def test_round_trip_parameters_exact(saved):
    graph, path = saved
    restored = load_checkpoint(path)
    for (name, a), (_, b) in zip(graph.named_parameters(), restored.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def test_logits_reproduced_exactly(saved, rng):
    graph, path = saved
    x = rng.uniform(size=(2, 3, 32, 32))
    before = graph.forward(x).data
    after = load_checkpoint(path).forward(x).data
    assert np.array_equal(before, after)


def test_loaded_graph_records_no_tape(saved, rng):
    _, path = saved
    graph = load_checkpoint(path)
    assert not any(p.requires_grad for _, p in graph.named_parameters())
    logits = graph.forward(rng.uniform(size=(2, 3, 32, 32)))
    assert not logits.requires_grad and logits._backward_fn is None


def _retained_bytes(graph, x) -> int:
    """tracemalloc bytes still held after one forward, with the logits alive."""
    graph.forward(x)  # warm-up: lazily built caches are not the tape
    tracemalloc.start()
    try:
        logits = graph.forward(x)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert logits.shape == (2, 2)
    return retained


def test_loaded_forward_retains_under_5pct_of_built(saved, rng):
    graph, path = saved
    x = rng.uniform(size=(2, 3, 32, 32))
    built = _retained_bytes(graph, x)
    loaded = _retained_bytes(load_checkpoint(path), x)
    assert loaded < 0.05 * built, (loaded, built)


def test_load_draws_no_random_numbers(saved, monkeypatch):
    graph, path = saved

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    restored = load_checkpoint(path)
    for (name, a), (_, b) in zip(graph.named_parameters(), restored.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def _loss(graph, x):
    return T.cross_entropy(graph.forward(x), np.array([0, 1]))


def test_loaded_graph_gradients_raise(saved, rng):
    _, path = saved
    graph = load_checkpoint(path)
    with pytest.raises(ValueError, match="no tensor in the loss needs a gradient"):
        graph.gradients(_loss(graph, rng.uniform(size=(2, 3, 32, 32))))


def test_fine_tuning_a_loaded_graph_matches_the_saved_graph(saved, rng):
    graph, path = saved
    restored = load_checkpoint(path)
    for _, p in restored.named_parameters():
        p.requires_grad = True
    x = rng.uniform(size=(2, 3, 32, 32))
    expected = graph.gradients(_loss(graph, x))
    got = restored.gradients(_loss(restored, x))
    assert list(got) == list(expected)
    for name, g in expected.items():
        assert np.array_equal(got[name], g), name


def test_save_refuses_non_finite(saved, tmp_path):
    graph, _ = saved
    graph.params["stage2"]["block0"]["ffn"]["fc1"]["bias"].data[3] = np.inf
    target = tmp_path / "inf.ckpt"
    with pytest.raises(NonFiniteError, match="stage2.block0.ffn.fc1.bias"):
        save_checkpoint(graph, target)
    assert not target.exists()


def test_manifest_contents(saved):
    graph, path = saved
    with open(path, "rb") as fh:
        head, fields = read_manifest(fh, path)
    assert fields["name"] == "tiny-reduced"
    assert fields["seed"] == "21"
    assert fields["pattern"] == "bifovea" and fields["ffn"] == "bffn"
    # the tensor table, parsed here from the raw header: packed back to back
    lines = head.decode("ascii").split("\n")
    start = lines.index(f"tensors: {fields['tensors']}") + 1
    table = lines[start : start + int(fields["tensors"])]
    assert lines[start + len(table) :] == [f"data: {fields['data']}", "END", ""]
    total = 0
    for line, (name, p) in zip(table, graph.named_parameters(), strict=True):
        stored_name, shape, offset = line.split(" ")
        assert (stored_name, shape) == (name, ",".join(map(str, p.shape)))
        assert int(offset) == total, name
        total += 8 * p.size
    assert int(fields["data"]) == total == path.stat().st_size - len(head)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_load_and_save_peak_memory(saved, tmp_path):
    """Load reads into the parameters and save writes from them: no second model copy."""
    graph, path = saved
    data_bytes = sum(p.data.nbytes for _, p in graph.named_parameters())
    assert _peak_bytes(lambda: load_checkpoint(path)) <= 1.25 * data_bytes
    assert _peak_bytes(lambda: save_checkpoint(graph, tmp_path / "again.ckpt")) <= 0.25 * data_bytes


def test_spec_rebuilt_from_manifest(saved):
    graph, path = saved
    restored = load_checkpoint(path)
    assert restored.spec == graph.spec
    assert restored.pattern == graph.pattern and restored.ffn_kind == graph.ffn_kind


def test_bad_magic_rejected(saved, tmp_path):
    _, path = saved
    raw = path.read_bytes().replace(MAGIC.encode(), b"NOT-A-CKPT-99", 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw)
    with pytest.raises(ConfigError):
        load_checkpoint(bad)


def test_truncated_data_rejected(saved, tmp_path):
    _, path = saved
    raw = path.read_bytes()
    bad = tmp_path / "short.ckpt"
    bad.write_bytes(raw[:-16])
    with pytest.raises(ConfigError):
        load_checkpoint(bad)


def test_renamed_tensor_rejected(saved, tmp_path):
    _, path = saved
    raw = path.read_bytes().replace(b"head.fc.weight", b"head.fc.wrongo", 1)
    bad = tmp_path / "renamed.ckpt"
    bad.write_bytes(raw)
    with pytest.raises(ConfigError):
        load_checkpoint(bad)


def test_missing_end_marker_rejected(tmp_path):
    bad = tmp_path / "noend.ckpt"
    bad.write_bytes(b"EVIT-CKPT-V1\nname: x\n")
    with pytest.raises(ConfigError):
        load_checkpoint(bad)


def _replace(old: bytes, new: bytes):
    return lambda raw: raw.replace(old, new, 1)


def _shift_offset(name: bytes, by: int):
    """Move one tensor's manifest offset by ``by`` bytes, leaving the data alone."""

    def corrupt(raw: bytes) -> bytes:
        start = raw.index(b"\n" + name + b" ") + 1
        end = raw.index(b"\n", start)
        head, offset = raw[start:end].rsplit(b" ", 1)
        return raw[:start] + head + b" " + str(int(offset) + by).encode() + raw[end:]

    return corrupt


def _swap_names(a: bytes, b: bytes):
    """Exchange two tensor names in the table, leaving shapes, offsets and data alone."""

    def corrupt(raw: bytes) -> bytes:
        head, sep, data = raw.partition(b"\nEND\n")
        head = head.replace(a + b" ", b"\0").replace(b + b" ", a + b" ").replace(b"\0", b + b" ")
        return head + sep + data

    return corrupt


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Fail the running test once the block has run ``seconds`` of wall time.

    The ``SIGALRM`` handler calls ``pytest.fail``, whose exception is no
    ``Exception``, so the CLI's error handling cannot turn it into an exit
    code: a load that would never end fails under the test's name.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# for rows sized in one step per stage: a load that walked every block or
# allocated the model would not end, so these fail after a few seconds
_FEW_SECONDS = pytest.mark.time_limit(5)


def _nan_data(raw: bytes) -> bytes:
    head, sep, data = raw.partition(b"\nEND\n")
    return head + sep + np.full(len(data) // 8, np.nan).astype("<f8").tobytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(_replace(b"\nstage2: ", b"\nstageX: "), id="stage2-renamed"),
        pytest.param(_replace(b"\nseed: 21\n", b"\nseed: zz\n"), id="bad-seed"),
        pytest.param(_replace(b"pattern: bifovea", b"pattern: bogus"), id="bad-pattern"),
        pytest.param(_replace(b"name: tiny", b"name: t\xffny"), id="non-ascii-name"),
        pytest.param(_nan_data, id="all-nan-data"),
        pytest.param(_shift_offset(b"stem.conv2.weight", 1), id="offset-plus-1"),
        pytest.param(_shift_offset(b"stem.conv2.weight", 8), id="offset-plus-8"),
        pytest.param(_swap_names(b"stage1.block0.bfsa.sfa.q_weight",
                                 b"stage1.block0.bfsa.sfa.k_weight"), id="swapped-names"),
        pytest.param(_replace(b"\nseed: 21\n", b"\nseed: 021\n"), id="seed-leading-zero"),
        # 14.1 GiB for the first stem weight alone, were it allocated
        pytest.param(
            _replace(b"\nstem_channels: 7\n", b"\nstem_channels: 70000000\n"), id="huge-stem",
            marks=_FEW_SECONDS,
        ),
        pytest.param(_replace(b"expansion=3.0", b"expansion=inf"), id="expansion-inf"),
        pytest.param(_replace(b"expansion=3.0", b"expansion=nan"), id="expansion-nan"),
        pytest.param(_replace(b"stage1: blocks=1", b"stage1: blocks=0"), id="blocks-0"),
        # sized in one step per stage: a walk over its blocks would not end
        pytest.param(
            _replace(b"stage3: blocks=1 ", b"stage3: blocks=1000000000000 "), id="huge-blocks",
            marks=_FEW_SECONDS,
        ),
        pytest.param(_replace(b"stage1: blocks=1 channels=14 heads=1",
                              b"stage1: blocks=1 channels=14 heads=0"), id="heads-0"),
    ],
)
def test_malformed_checkpoint_exits_2_with_one_line(
    corrupt, saved, toy_spec, tmp_path, capsys, monkeypatch, request
):
    _, path = saved
    raw = path.read_bytes()
    assemble = evit.checkpoint._assemble

    def assemble_saved_spec_only(spec, *args, **kwargs):
        # a header whose model the data bytes cannot hold fails before allocating it
        assert spec == toy_spec, f"load_checkpoint allocated for stem {spec.stem_channels}"
        return assemble(spec, *args, **kwargs)

    monkeypatch.setattr(evit.checkpoint, "_assemble", assemble_saved_spec_only)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(raw))
    assert bad.read_bytes() != raw
    image = tmp_path / "probe.ppm"
    write_image(image, np.random.default_rng(0).uniform(size=(3, 32, 32)))
    limit = request.node.get_closest_marker("time_limit")
    with _time_limit(limit.args[0]) if limit else contextlib.nullcontext():
        code = main(["attnmap", "--checkpoint", str(bad), "--image", str(image),
                     "--out", str(tmp_path / "maps")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(_replace(b"expansion=3.0", b"expansion=inf"), id="expansion-inf"),
        pytest.param(_replace(b"stage1: blocks=1 channels=14 heads=1",
                              b"stage1: blocks=1 channels=14 heads=0"), id="heads-0"),
    ],
)
def test_bad_stage_row_error_names_its_stage(corrupt, saved, tmp_path, capsys):
    _, path = saved
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(path.read_bytes()))
    image = tmp_path / "probe.ppm"
    write_image(image, np.zeros((3, 32, 32)))
    code = main(["attnmap", "--checkpoint", str(bad), "--image", str(image),
                 "--out", str(tmp_path / "maps")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: stage1: "), err


@pytest.fixture(scope="module")
def fuzz_files(toy_spec, tmp_path_factory):
    """One saved reduced-tiny checkpoint, its parameters and a probe image."""
    root = tmp_path_factory.mktemp("fuzz")
    graph = build(toy_spec, seed=21, zero_classifier=False)
    save_checkpoint(graph, root / "model.ckpt")
    write_image(root / "probe.ppm", np.random.default_rng(0).uniform(size=(3, 32, 32)))
    return root, (root / "model.ckpt").read_bytes(), dict(graph.named_parameters())


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_corrupted_header_or_truncation_loads_exactly_or_exits_2(fuzz_files, data):
    """Any one replaced header byte, or a cut at any length: exact load or exit 2.

    The data bytes carry no checksum, so changes inside them are not fuzzed.
    """
    root, raw, params = fuzz_files
    header = raw.index(b"\nEND\n") + len(b"\nEND\n")
    if data.draw(st.booleans(), label="truncate"):
        bad = raw[: data.draw(st.integers(0, len(raw)), label="length")]
    else:
        at = data.draw(st.integers(0, header - 1), label="position")
        byte = data.draw(st.integers(0, 255), label="byte")
        bad = raw[:at] + bytes([byte]) + raw[at + 1 :]
    path = root / "bad.ckpt"
    path.write_bytes(bad)
    try:
        restored = load_checkpoint(path)
    except (ConfigError, ShapeError):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["attnmap", "--checkpoint", str(path),
                         "--image", str(root / "probe.ppm"), "--out", str(root / "maps")])
        lines = err.getvalue().strip().splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        return
    loaded = dict(restored.named_parameters())
    assert list(loaded) == list(params)
    for name, p in params.items():
        assert loaded[name].data.tobytes() == p.data.tobytes(), name
