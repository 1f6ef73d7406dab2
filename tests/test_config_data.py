"""Config file round trips, environment overrides, and the toy dataset."""

import codecs
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evit.config import (
    RunConfig,
    apply_env_overrides,
    parse_config,
    read_config,
    render_config,
    spec_from_model_config,
)
from evit.data import load_image_dir, read_image, synthetic_shapes, write_image
from evit.cli import main
from evit.errors import ConfigError


# the config shown under "Config format" in the README
README_CONFIG = """\
model.variant = tiny
model.width_divisor = 4
model.input_size = 32
model.num_classes = 2
train.steps = 300
train.batch_size = 16
train.learning_rate = 0.001
data.source = synthetic
data.count = 256
"""


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        config = RunConfig()
        assert parse_config(render_config(config)) == config

    def test_modified_round_trip(self):
        config = RunConfig()
        config.model.variant = "small"
        config.model.width_divisor = 8
        config.train.learning_rate = 3e-4
        config.train.cosine = True
        config.data.source = "/some/dir"
        assert parse_config(render_config(config)) == config

    @given(
        steps=st.integers(1, 10_000),
        lr=st.floats(1e-6, 1.0, allow_nan=False),
        wd=st.floats(0.0, 1.0, allow_nan=False),
        cosine=st.booleans(),
        count=st.integers(1, 4096),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, steps, lr, wd, cosine, count):
        config = RunConfig()
        config.train.steps = steps
        config.train.learning_rate = lr
        config.train.weight_decay = wd
        config.train.cosine = cosine
        config.data.count = count
        assert parse_config(render_config(config)) == config

    def test_file_round_trip(self, tmp_path):
        config = RunConfig()
        config.train.seed = 99
        path = tmp_path / "run.cfg"
        path.write_text(render_config(config))
        assert read_config(path) == config

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# r\xc3\xa9glage\r\ntrain.seed = 1\rmodel.variant = t\xe9ny\n")
        with pytest.raises(ConfigError, match=r"^line 3: not UTF-8 text"):
            read_config(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = README_CONFIG.encode("utf-8")
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        assert read_config(marked) == read_config(plain)

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "marked.cfg"
        # a bad byte in the first three of a line: counting from after the mark
        # (as a utf-8-sig decode reports it) would put it on line 1
        path.write_bytes(codecs.BOM_UTF8 + b"train.seed = 1\n\xffmodel.variant = tiny\n")
        with pytest.raises(ConfigError, match=r"^line 2: not UTF-8 text"):
            read_config(path)

    def test_partial_file_keeps_defaults(self):
        config = parse_config("train.steps = 7\n\n# comment\nmodel.variant = small\n")
        assert config.train.steps == 7
        assert config.model.variant == "small"
        assert config.train.batch_size == RunConfig().train.batch_size

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("model.depth = 9\n")
        with pytest.raises(ConfigError):
            parse_config("optimizer.lr = 0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("train.steps = soon\n")
        with pytest.raises(ConfigError):
            parse_config("train.cosine = maybe\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("train.steps 7\n")


# one row per field with a range: (config line, a fragment of the error message)
OUT_OF_RANGE = [
    ("model.variant = giant", "unknown variant"),
    ("model.width_divisor = 0", "width_divisor"),
    ("model.blocks_per_stage = -1", "blocks_per_stage"),
    ("model.pattern = bogus", "connection pattern"),
    ("model.ffn = bogus", "feedforward kind"),
    ("model.input_size = 48", "multiple of 32"),
    ("model.num_classes = 0", "classes must be positive"),
    ("train.seed = -1", "train.seed must be >= 0"),
    ("train.steps = -1", "train.steps must be >= 0"),
    ("train.batch_size = 0", "train.batch_size must be >= 1"),
    ("train.learning_rate = -0.001", "train.learning_rate must be >= 0"),
    ("train.learning_rate = nan", "train.learning_rate must be finite"),
    ("train.weight_decay = inf", "train.weight_decay must be finite"),
    ("data.count = 0", "data.count must be >= 1"),
    ("data.noise = -1", "data.noise must be >= 0"),
    ("data.noise = nan", "data.noise must be finite"),
]


@pytest.mark.parametrize("line,message", OUT_OF_RANGE, ids=[row[0] for row in OUT_OF_RANGE])
def test_out_of_range_field_exits_2_with_one_line(line, message, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EVIT_SEED", raising=False)
    with pytest.raises(ConfigError, match=message):
        parse_config(line + "\n")
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(line + "\n")
    out_dir = tmp_path / "out"
    code = main(["train", "--config", str(config_path), "--out", str(out_dir)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out_dir.exists()


# characters that make a mutated line look like config syntax, plus any
# character in UTF-8, plus any single byte
_CONFIG_BYTES = (
    # ``codec``: a lone surrogate has no UTF-8 form, so encoding it would fail the draw
    (st.sampled_from(list("=.# \n\t-+_e0123456789truefalsmodelint"))
     | st.characters(codec="utf-8")).map(str.encode)
    | st.binary(min_size=1, max_size=1)
)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_config_text_round_trips_or_raises_config_error(config_dir, data):
    """Up to three inserted, replaced or deleted bytes in a rendered config file.

    A file that is not UTF-8 fails with a ConfigError that names a line.
    """
    raw = render_config(RunConfig()).encode("utf-8")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(raw)), label="position")
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]), label="edit")
        chunk = b"" if edit == "delete" else data.draw(_CONFIG_BYTES, label="bytes")
        raw = raw[:at] + chunk + raw[at + (edit != "insert") :]
    path = config_dir / "mutated.cfg"
    path.write_bytes(raw)
    try:
        config = read_config(path)
    except ConfigError as exc:
        assert "\n" not in str(exc)
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            assert re.match(r"line [1-9]\d*: not UTF-8 text", str(exc)), exc
        return
    assert parse_config(render_config(config)) == config


class TestEnvOverride:
    def test_evit_seed_wins(self, monkeypatch):
        monkeypatch.setenv("EVIT_SEED", "4711")
        config = apply_env_overrides(parse_config("train.seed = 1\n"))
        assert config.train.seed == 4711

    def test_absent_env_keeps_file_value(self, monkeypatch):
        monkeypatch.delenv("EVIT_SEED", raising=False)
        config = apply_env_overrides(parse_config("train.seed = 5\n"))
        assert config.train.seed == 5

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("EVIT_SEED", "tomorrow")
        with pytest.raises(ConfigError):
            apply_env_overrides(RunConfig())

    def test_negative_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("EVIT_SEED", "-3")
        with pytest.raises(ConfigError, match="train.seed must be >= 0"):
            apply_env_overrides(RunConfig())

    # os.environ holds neither NUL nor lone surrogates
    @given(raw=st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"))
           | st.integers().map(str))
    @settings(max_examples=200, deadline=None)
    def test_any_env_seed_is_taken_or_refused_in_one_line(self, raw):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("EVIT_SEED", raw)
            try:
                seed = apply_env_overrides(RunConfig()).train.seed
            except ConfigError as exc:
                assert "\n" not in str(exc)
                return
        assert seed == int(raw) and seed >= 0


class TestSpecResolution:
    def test_reduced_resolution(self):
        config = RunConfig()
        spec = spec_from_model_config(config.model)
        assert spec.stem_channels == 7 and spec.num_classes == 2
        assert all(s.blocks == 1 for s in spec.stages)

    def test_full_resolution(self):
        config = RunConfig()
        config.model.width_divisor = 1
        config.model.blocks_per_stage = 0
        config.model.num_classes = 1000
        spec = spec_from_model_config(config.model)
        assert spec.stem_channels == 28
        assert tuple(s.blocks for s in spec.stages) == (2, 2, 6, 2)

    def test_bad_variant_rejected(self):
        config = RunConfig()
        config.model.variant = "giant"
        with pytest.raises(ConfigError):
            spec_from_model_config(config.model)


class TestSyntheticData:
    def test_deterministic_bitwise(self):
        a = synthetic_shapes(12, 32, seed=5)
        b = synthetic_shapes(12, 32, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synthetic_shapes(4, 32, seed=0)
        b = synthetic_shapes(4, 32, seed=1)
        assert not np.array_equal(a.images, b.images)

    def test_shapes_and_range(self):
        data = synthetic_shapes(6, 32, seed=2)
        assert data.images.shape == (6, 3, 32, 32)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
        assert data.labels.tolist() == [0, 1, 0, 1, 0, 1]
        assert data.class_names == ("circle", "square")

    @pytest.mark.parametrize("count,size", [(0, 32), (4, 7)])
    def test_rejects_empty_or_tiny(self, count, size):
        with pytest.raises(ConfigError, match="count >= 1 and size >= 8"):
            synthetic_shapes(count, size, seed=0)

    def test_classes_visually_distinct(self):
        # circles fill ~78% of the bounding square; squares fill it fully,
        # so mean foreground mass separates the classes on average
        data = synthetic_shapes(40, 32, seed=3, noise=0.0)
        assert len({tuple(img.flatten()[:5]) for img in data.images}) > 1


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.uniform(size=(9, 7))
        path = tmp_path / "x.pgm"
        write_image(path, img)
        back = read_image(path)[0]
        np.testing.assert_allclose(back, np.rint(img * 255) / 255, atol=1e-12)

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.uniform(size=(3, 5, 8))
        path = tmp_path / "x.ppm"
        write_image(path, img)
        back = read_image(path)
        np.testing.assert_allclose(back, np.rint(img * 255) / 255, atol=1e-12)

    def test_read_image_replicates_gray(self, tmp_path, rng):
        img = rng.uniform(size=(4, 4))
        path = tmp_path / "g.pgm"
        write_image(path, img)
        out = read_image(path)
        assert out.shape == (3, 4, 4)
        assert np.array_equal(out[0], out[2])

    def test_header_comments_supported(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = read_image(path)
        assert img.shape == (3, 2, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P4\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(ConfigError):
            read_image(path)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(b"\x89PNG")
        with pytest.raises(ConfigError):
            read_image(path)

    def test_magic_number_decides_kind(self, tmp_path, rng):
        img = rng.uniform(size=(3, 4, 6))
        path = tmp_path / "color.pgm"
        write_image(path, img)
        assert path.read_bytes().startswith(b"P6\n6 4\n")
        np.testing.assert_allclose(read_image(path), np.rint(img * 255) / 255, atol=1e-12)

    def test_overlong_header_token_rejected(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n")
        with pytest.raises(ConfigError, match="malformed netpbm header token"):
            read_image(path)

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4), (3, 4, 4, 1)])
    def test_write_rejects_other_shapes(self, tmp_path, shape):
        with pytest.raises(ConfigError, match="write_image expects"):
            write_image(tmp_path / "x.pgm", np.zeros(shape))
        assert not (tmp_path / "x.pgm").exists()


# read_image's header grammar: magic, then width, height and maxval, each after
# any whitespace and '#' comments and ended by one whitespace byte
_SEP = rb"(?:\s|#[^\n]*+)*"
_NETPBM_HEADER = re.compile(rb"P[56]" + (_SEP + rb"(\d+)\s") * 3)
_HEADER_CHARS = st.lists(st.sampled_from(list(b"0123456789 \t\n#P56")), min_size=1, max_size=6)


@pytest.fixture(scope="module")
def netpbm_files(tmp_path_factory):
    """A written PGM and PPM, as bytes, and a directory for mutated copies."""
    root = tmp_path_factory.mktemp("netpbm")
    rng = np.random.default_rng(0)
    write_image(root / "gray.pgm", rng.uniform(size=(3, 5)))
    write_image(root / "color.ppm", rng.uniform(size=(3, 4, 2)))
    return root, [(root / name).read_bytes() for name in ("gray.pgm", "color.ppm")]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_netpbm_reads_as_declared_or_raises_config_error(netpbm_files, data):
    """One replaced header byte, inserted header-like bytes, a few deleted
    header bytes, or a cut at any length."""
    root, originals = netpbm_files
    raw = data.draw(st.sampled_from(originals), label="file")
    header = raw.index(b"255\n") + 4
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]), label="edit")
    if edit == "truncate":
        bad = raw[: data.draw(st.integers(0, len(raw)), label="length")]
    elif edit == "replace":
        at = data.draw(st.integers(0, header - 1), label="position")
        bad = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at + 1 :]
    elif edit == "delete":
        at = data.draw(st.integers(0, header - 1), label="position")
        bad = raw[:at] + raw[at + data.draw(st.integers(1, min(4, header - at)), label="count") :]
    else:
        at = data.draw(st.integers(0, header), label="position")
        bad = raw[:at] + bytes(data.draw(_HEADER_CHARS, label="bytes")) + raw[at:]
    path = root / "mutated"
    path.write_bytes(bad)
    try:
        image = read_image(path)
    except ConfigError:
        return
    match = _NETPBM_HEADER.match(bad)
    assert match is not None and int(match[3]) == 255, bad[:header]
    assert image.dtype == np.float64
    assert image.shape == (3, int(match[2]), int(match[1]))
    assert np.all((image >= 0.0) & (image <= 1.0))


class TestImageDirIngestion:
    def _write_tree(self, root, size=32):
        rng = np.random.default_rng(0)
        for cls in ("a_circles", "b_squares"):
            (root / cls).mkdir(parents=True)
            for i in range(3):
                write_image(root / cls / f"{i}.ppm", rng.uniform(size=(3, size, size)))

    def test_loads_sorted_classes(self, tmp_path):
        self._write_tree(tmp_path)
        data = load_image_dir(tmp_path)
        assert data.class_names == ("a_circles", "b_squares")
        assert data.images.shape == (6, 3, 32, 32)
        assert data.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_mixed_sizes_rejected(self, tmp_path):
        self._write_tree(tmp_path)
        write_image(
            tmp_path / "a_circles" / "odd.ppm",
            np.zeros((3, 16, 16)),
        )
        with pytest.raises(ConfigError):
            load_image_dir(tmp_path)

    def test_empty_class_dir_rejected(self, tmp_path):
        self._write_tree(tmp_path)
        (tmp_path / "c_empty").mkdir()
        with pytest.raises(ConfigError, match="holds no .pgm/.ppm files"):
            load_image_dir(tmp_path)

    def test_non_square_images_rejected(self, tmp_path):
        for cls in ("a", "b"):
            (tmp_path / cls).mkdir()
            write_image(tmp_path / cls / "0.ppm", np.zeros((3, 32, 16)))
        with pytest.raises(ConfigError, match="must be square, got 32x16"):
            load_image_dir(tmp_path)

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_image_dir(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_image_dir(tmp_path / "nope")
