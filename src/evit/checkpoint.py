"""Single-file checkpoints: an ASCII manifest followed by raw tensor bytes.

The manifest names the build (stage table, seed, wiring) and lists every
tensor with its shape and byte offset, so a file is self-describing and can
be rebuilt without access to the variant registry. Tensor data is raw
little-endian float64 in manifest order, which makes round trips bitwise
exact. Layout:

    EVIT-CKPT-V1
    name: tiny
    seed: 42
    ...header key/value lines...
    tensors: 170
    <name> <d0,d1,...> <byte offset>   (one line per tensor)
    data: <total bytes>
    END
    <raw bytes>
"""

from __future__ import annotations

import math
import os

import numpy as np

from .analysis import parameter_count
from .attention import ConnectionPattern
from .backbone import ModuleGraph, StageConfig, VariantSpec, _assemble, validate_spec
from .errors import ConfigError, NonFiniteError
from .feedforward import FfnKind

MAGIC = "EVIT-CKPT-V1"
_END = b"\nEND\n"


def _stage_line(s: StageConfig) -> str:
    return (
        f"blocks={s.blocks} channels={s.channels} heads={s.heads} "
        f"sfa={s.sfa_reduction} dfa={s.dfa_reduction} expansion={s.expansion!r}"
    )


def _parse_stage_line(text: str) -> StageConfig:
    fields = dict(item.split("=", 1) for item in text.split())
    return StageConfig(
        blocks=int(fields["blocks"]),
        channels=int(fields["channels"]),
        heads=int(fields["heads"]),
        sfa_reduction=int(fields["sfa"]),
        dfa_reduction=int(fields["dfa"]),
        expansion=float(fields["expansion"]),
    )


def save_checkpoint(graph: ModuleGraph, path: str | os.PathLike) -> None:
    """Write the graph's spec, seed, wiring and all parameters to one file.

    A parameter holding NaN or infinity raises ``NonFiniteError`` before the
    file is opened, so no checkpoint that ``load_checkpoint`` would reject is
    ever written.
    """
    named = graph.named_parameters()
    lines = [MAGIC]
    spec = graph.spec
    lines.append(f"name: {spec.name}")
    lines.append(f"seed: {graph.seed}")
    lines.append(f"pattern: {graph.pattern.value}")
    lines.append(f"ffn: {graph.ffn_kind.value}")
    lines.append(f"stem_channels: {spec.stem_channels}")
    lines.append(f"head_channels: {spec.head_channels}")
    lines.append(f"num_classes: {spec.num_classes}")
    for i, stage in enumerate(spec.stages, start=1):
        lines.append(f"stage{i}: {_stage_line(stage)}")
    lines.append(f"tensors: {len(named)}")

    offset = 0
    blobs = []
    for name, p in named:
        if not np.isfinite(p.data).all():
            raise NonFiniteError(f"{name} holds non-finite values; not writing {path}")
        shape = ",".join(str(d) for d in p.shape)
        lines.append(f"{name} {shape} {offset}")
        blob = p.data.astype("<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    lines.append(f"data: {offset}")

    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        fh.write(_END)
        for blob in blobs:
            fh.write(blob)


def read_manifest(path: str | os.PathLike) -> dict:
    """Parse the header: build fields, the tensor table and a view of the data bytes.

    Each tensor's offset must be the byte total of the tensors listed before
    it, and the ``data:`` size the total of all of them; the data bytes then
    hold exactly the listed tensors, each where the table says.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(_END)
    if end < 0:
        raise ConfigError(f"{path}: missing END marker, not a checkpoint file")
    head = raw[:end]
    data = memoryview(raw)[end + len(_END) :]  # a view: the tensor bytes are not copied
    try:
        lines = head.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: manifest is not ASCII (byte {exc.start})") from None
    if lines[0] != MAGIC:
        raise ConfigError(f"{path}: bad magic {lines[0]!r}, expected {MAGIC}")

    fields: dict[str, str] = {}
    table: list[tuple[str, tuple[int, ...], int]] = []
    i = 1
    while i < len(lines):
        key, _, value = lines[i].partition(": ")
        fields[key] = value
        i += 1
        if key == "tensors":
            break
    try:
        count = int(fields.get("tensors", "0"))
        for line in lines[i : i + count]:
            name, shape_s, offset_s = line.rsplit(" ", 2)
            shape = tuple(int(d) for d in shape_s.split(","))
            table.append((name, shape, int(offset_s)))
        key, _, value = lines[i + count].partition(": ")
        nbytes = int(value) if key == "data" else None
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed tensor table ({exc})") from None
    if nbytes is None:
        raise ConfigError(f"{path}: malformed manifest, expected data size line")

    # tensors are packed back to back in table order: any other offset or
    # total would read some tensor from the wrong bytes
    total = 0
    for name, shape, offset in table:
        if any(d < 0 for d in shape):
            raise ConfigError(f"{path}: {name} has a negative dimension in {shape}")
        if offset != total:
            raise ConfigError(
                f"{path}: {name} starts at byte {offset}, but the tensors before it end at {total}"
            )
        total += 8 * math.prod(shape)
    if nbytes != total:
        raise ConfigError(f"{path}: data size {nbytes} does not match the {total} tensor bytes")
    if len(data) != nbytes:
        raise ConfigError(f"{path}: expected {nbytes} data bytes, found {len(data)}")
    return {"fields": fields, "table": table, "data": data}


def _field(fields: dict[str, str], key: str, convert=str):
    """One header value, converted; a missing or malformed line is a ConfigError."""
    if key not in fields:
        raise ConfigError(f"manifest has no {key!r} line")
    try:
        return convert(fields[key])
    except (KeyError, ValueError):
        raise ConfigError(f"manifest line {key!r} has a bad value {fields[key]!r}") from None


def _spec_from_fields(fields: dict[str, str]) -> VariantSpec:
    return VariantSpec(
        name=_field(fields, "name"),
        stem_channels=_field(fields, "stem_channels", int),
        stages=tuple(_field(fields, f"stage{i}", _parse_stage_line) for i in range(1, 5)),
        head_channels=_field(fields, "head_channels", int),
        num_classes=_field(fields, "num_classes", int),
    )


def load_checkpoint(path: str | os.PathLike) -> ModuleGraph:
    """Rebuild the graph described by a checkpoint and restore its weights.

    The graph comes back ready for inference: every parameter is a constant
    leaf (``requires_grad`` False), so a forward pass records no backward tape
    and frees each intermediate as soon as the next layer has used it. To
    fine-tune instead, set ``p.requires_grad = True`` for every
    ``p`` in ``graph.named_parameters()``; the graph then trains exactly like
    the one that was saved.

    No random numbers are drawn: the parameter containers come from the same
    construction code as ``build``, left uninitialised, and every tensor is
    filled from the file. The restored values are bitwise equal to what was
    saved, so the loaded graph reproduces the original logits exactly. Any
    malformed manifest line, a data section whose size is not the header
    model's parameter count times 8 (checked before anything is allocated)
    and any non-finite tensor value is a ConfigError.
    """
    manifest = read_manifest(path)
    fields = manifest["fields"]
    try:
        spec = _spec_from_fields(fields)
        validate_spec(spec)
        ffn_kind = _field(fields, "ffn", FfnKind)
        # size the model before allocating it, so a header that asks for more
        # parameters than the file holds fails here rather than in numpy
        needed = 8 * parameter_count(spec, ffn_kind)
        if needed != len(manifest["data"]):
            raise ConfigError(
                f"the header's model needs {needed} data bytes, the file holds "
                f"{len(manifest['data'])}"
            )
        graph = _assemble(
            spec,
            seed=_field(fields, "seed", int),
            pattern=_field(fields, "pattern", ConnectionPattern),
            ffn_kind=ffn_kind,
            zero_classifier=True,
            rng=None,
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    params = dict(graph.named_parameters())
    stored = {name for name, _, _ in manifest["table"]}
    if stored != set(params):
        missing = sorted(set(params) - stored)[:3]
        extra = sorted(stored - set(params))[:3]
        raise ConfigError(
            f"{path}: tensor names do not match the rebuilt graph "
            f"(missing {missing}, unexpected {extra})"
        )

    data = manifest["data"]
    for name, shape, offset in manifest["table"]:
        p = params[name]
        if p.shape != shape:
            raise ConfigError(f"{path}: {name} has shape {shape}, graph expects {p.shape}")
        arr = np.frombuffer(data, dtype="<f8", count=math.prod(shape), offset=offset)
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path}: {name} holds non-finite values")
        np.copyto(p.data, arr.reshape(shape))
        p.requires_grad = False
    return graph
