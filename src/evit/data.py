"""Toy data: a procedural shapes dataset plus minimal PGM/PPM image IO.

The synthetic set is two-class (filled circles vs. filled squares) rendered
on noisy backgrounds, generated deterministically from a seed. Directory
ingestion mirrors the same contract: one subdirectory per class holding
binary PGM (grayscale) or PPM (color) files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

CLASS_NAMES = ("circle", "square")


@dataclass
class ToyDataset:
    images: np.ndarray  # (N, 3, S, S) float64 in [0, 1]
    labels: np.ndarray  # (N,) int64
    class_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_size(self) -> int:
        return self.images.shape[2]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------


def synthetic_shapes(
    count: int, size: int, seed: int, noise: float = 0.08
) -> ToyDataset:
    """Render ``count`` images of size ``size``; even indices are circles.

    Each image places one filled shape of a random bright color on a random
    dark background, then adds clipped Gaussian pixel noise. The same
    ``(count, size, seed, noise)`` always yields bitwise-identical arrays.
    """
    if count < 1 or size < 8:
        raise ConfigError(f"need count >= 1 and size >= 8, got {count}, {size}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    images = np.empty((count, 3, size, size))
    labels = np.empty(count, dtype=np.int64)

    for i in range(count):
        label = i % 2
        labels[i] = label
        bg = rng.uniform(0.05, 0.35, 3)
        fg = rng.uniform(0.55, 0.95, 3)
        cy, cx = rng.uniform(0.35 * size, 0.65 * size, 2)
        half = rng.uniform(0.18 * size, 0.32 * size)
        if label == 0:
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half**2
        else:
            mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
        img = bg[:, None, None] * np.ones((3, size, size))
        img[:, mask] = fg[:, None]
        img += rng.normal(0.0, noise, img.shape)
        images[i] = np.clip(img, 0.0, 1.0)

    return ToyDataset(images=images, labels=labels, class_names=CLASS_NAMES)


# ---------------------------------------------------------------------------
# netpbm IO
# ---------------------------------------------------------------------------


def _read_header(raw: bytes, path) -> tuple[bytes, list[int], int]:
    """Return (magic, [width, height, maxval], data offset)."""
    magic = raw[:2]
    pos = 2
    values: list[int] = []
    while len(values) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise ConfigError(f"{path}: malformed netpbm header token {token!r}")
        values.append(int(token))
    return magic, values, pos + 1  # single whitespace after maxval


def _pixels(raw: bytes, offset: int, count: int, path) -> np.ndarray:
    """The ``count`` pixel bytes after the header; a short file is a ConfigError."""
    if len(raw) - offset < count:
        raise ConfigError(
            f"{path}: header declares {count} pixel bytes, file has {max(len(raw) - offset, 0)}"
        )
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=offset)


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Binary PGM (P5) -> (H, W) float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    magic, (w, h, maxval), offset = _read_header(raw, path)
    if magic != b"P5":
        raise ConfigError(f"{path}: expected P5 magic, got {magic!r}")
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    pixels = _pixels(raw, offset, w * h, path)
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    """Binary PPM (P6) -> (3, H, W) float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    magic, (w, h, maxval), offset = _read_header(raw, path)
    if magic != b"P6":
        raise ConfigError(f"{path}: expected P6 magic, got {magic!r}")
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    pixels = _pixels(raw, offset, 3 * w * h, path)
    return pixels.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def read_image(path: str | os.PathLike) -> np.ndarray:
    """PGM or PPM -> (3, H, W); grayscale is replicated across channels."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        gray = read_pgm(path)
        return np.repeat(gray[None], 3, axis=0)
    if suffix == ".ppm":
        return read_ppm(path)
    raise ConfigError(f"{path}: unsupported image type {suffix!r} (want .pgm or .ppm)")


def write_pgm(path: str | os.PathLike, image: np.ndarray) -> None:
    """(H, W) floats in [0, 1] -> binary PGM with maxval 255."""
    if image.ndim != 2:
        raise ConfigError(f"write_pgm expects (H, W), got {image.shape}")
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def write_ppm(path: str | os.PathLike, image: np.ndarray) -> None:
    """(3, H, W) floats in [0, 1] -> binary PPM with maxval 255."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ConfigError(f"write_ppm expects (3, H, W), got {image.shape}")
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    _, h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.transpose(1, 2, 0).tobytes())


# ---------------------------------------------------------------------------
# directory ingestion
# ---------------------------------------------------------------------------


def load_image_dir(root: str | os.PathLike) -> ToyDataset:
    """Read a per-class directory tree of netpbm images.

    ``root`` must hold one subdirectory per class; sorted subdirectory names
    become class indices. Every image must share one square size.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"dataset root {root} is not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise ConfigError(f"dataset root {root} has no class subdirectories")

    images, labels = [], []
    for idx, class_dir in enumerate(class_dirs):
        files = sorted(
            f for f in class_dir.iterdir() if f.suffix.lower() in (".pgm", ".ppm")
        )
        if not files:
            raise ConfigError(f"class directory {class_dir} holds no .pgm/.ppm files")
        for f in files:
            images.append(read_image(f))
            labels.append(idx)

    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise ConfigError(f"images disagree on shape: {sorted(shapes)}")
    (shape,) = shapes
    if shape[1] != shape[2]:
        raise ConfigError(f"images must be square, got {shape[1]}x{shape[2]}")

    return ToyDataset(
        images=np.stack(images),
        labels=np.asarray(labels, dtype=np.int64),
        class_names=tuple(d.name for d in class_dirs),
    )
