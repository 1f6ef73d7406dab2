"""Toy data: a procedural shapes dataset plus minimal PGM/PPM image IO.

The synthetic set is two-class (filled circles vs. filled squares) rendered
on noisy backgrounds, generated deterministically from a seed. Directory
ingestion mirrors the same contract: one subdirectory per class holding
binary PGM (grayscale) or PPM (color) files. ``read_image`` and
``write_image`` are the one netpbm reader and writer.
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


# channels stored per pixel, by magic number
_CHANNELS = {b"P5": 1, b"P6": 3}


def _read_header(raw: bytes, path) -> tuple[list[int], int]:
    """Return ([width, height, maxval], data offset) of the header after the magic."""
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
        # any value past 20 digits fails the pixel count anyway; int() refuses
        # digit strings past 4300 with a ValueError
        if not token.isdigit() or len(token) > 20:
            raise ConfigError(f"{path}: malformed netpbm header token {token[:24]!r}")
        values.append(int(token))
    return values, pos + 1  # single whitespace after maxval


def read_image(path: str | os.PathLike) -> np.ndarray:
    """Binary PGM (P5) or PPM (P6) -> (3, H, W) float64 in [0, 1].

    The magic number, not the file name, decides the kind; grayscale is
    replicated across the three channels.
    """
    raw = Path(path).read_bytes()
    channels = _CHANNELS.get(raw[:2])
    if channels is None:
        raise ConfigError(f"{path}: expected P5 or P6 magic, got {raw[:2]!r}")
    (w, h, maxval), offset = _read_header(raw, path)
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    count = channels * w * h
    if len(raw) - offset < count:
        raise ConfigError(
            f"{path}: header declares {count} pixel bytes, file has {max(len(raw) - offset, 0)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=offset)
    image = pixels.reshape(h, w, channels).transpose(2, 0, 1).astype(np.float64) / 255.0
    return np.repeat(image, 3 // channels, axis=0)


def write_image(path: str | os.PathLike, image: np.ndarray) -> None:
    """(H, W) floats in [0, 1] -> binary PGM, (3, H, W) -> binary PPM; maxval 255."""
    if image.ndim == 2:
        magic, pixels = "P5", image
    elif image.ndim == 3 and image.shape[0] == 3:
        magic, pixels = "P6", image.transpose(1, 2, 0)
    else:
        raise ConfigError(f"write_image expects (H, W) or (3, H, W), got {image.shape}")
    quantized = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    h, w = quantized.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


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
