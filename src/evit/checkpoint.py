"""Single-file checkpoints: an ASCII manifest followed by raw tensor bytes.

The manifest names the build (stage table, seed, wiring) and lists every
tensor with its shape and byte offset, so a file is self-describing and can
be rebuilt without access to the variant registry. Tensor data is raw
little-endian float64, packed back to back in manifest order, which makes
round trips bitwise exact. Layout:

    EVIT-CKPT-V1
    name: tiny
    seed: 42
    ...header key/value lines...
    tensors: 170
    <name> <d0,d1,...> <byte offset>   (one line per tensor)
    data: <total bytes>
    END
    <raw bytes>

``_manifest`` is the only code that writes this header. A file loads only if
its header is byte for byte what ``save_checkpoint`` writes for the model the
header describes, so one comparison covers the tensor names, shapes, order,
offsets and data size. Loading then reads each tensor straight into its
parameter array, so its peak memory is about one model.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .analysis import parameter_count
from .attention import ConnectionPattern
from .backbone import ModuleGraph, StageConfig, VariantSpec, _assemble
from .errors import ConfigError, NonFiniteError
from .feedforward import FfnKind

MAGIC = "EVIT-CKPT-V1"


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


def _manifest(graph: ModuleGraph) -> bytes:
    """The header through the ``END`` line, exactly as ``save_checkpoint`` writes it."""
    spec = graph.spec
    named = graph.named_parameters()
    lines = [
        MAGIC,
        f"name: {spec.name}",
        f"seed: {graph.seed}",
        f"pattern: {graph.pattern.value}",
        f"ffn: {graph.ffn_kind.value}",
        f"stem_channels: {spec.stem_channels}",
        f"head_channels: {spec.head_channels}",
        f"num_classes: {spec.num_classes}",
    ]
    lines += [f"stage{i}: {_stage_line(s)}" for i, s in enumerate(spec.stages, start=1)]
    lines.append(f"tensors: {len(named)}")
    offset = 0
    for name, p in named:
        lines.append(f"{name} {','.join(str(d) for d in p.shape)} {offset}")
        offset += 8 * p.size
    lines += [f"data: {offset}", "END", ""]
    return "\n".join(lines).encode("ascii")


def save_checkpoint(graph: ModuleGraph, path: str | os.PathLike) -> None:
    """Write the graph's spec, seed, wiring and all parameters to one file.

    A parameter holding NaN or infinity raises ``NonFiniteError`` before the
    file is opened, so no checkpoint that ``load_checkpoint`` would reject is
    ever written.
    """
    named = graph.named_parameters()
    for name, p in named:
        if not np.isfinite(p.data).all():
            raise NonFiniteError(f"{name} holds non-finite values; not writing {path}")
    with open(path, "wb") as fh:
        fh.write(_manifest(graph))
        for _, p in named:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8"))


def read_manifest(fh, path: str | os.PathLike) -> tuple[bytes, dict[str, str]]:
    """Read the header through the ``END`` line from an open checkpoint file.

    Returns the header bytes and its ``key: value`` fields, and leaves the
    file positioned at the first data byte. The tensor table is not parsed:
    ``load_checkpoint`` compares the whole header with ``_manifest`` instead.
    """
    lines = [fh.readline(len(MAGIC) + 1)]
    if lines[0] != f"{MAGIC}\n".encode():
        raise ConfigError(f"{path}: bad magic {lines[0]!r}, expected {MAGIC}")
    while lines[-1] != b"END\n":
        line = fh.readline()
        if not line:
            raise ConfigError(f"{path}: missing END marker, not a checkpoint file")
        # checked per line, so a lost END stops at the first binary data line
        if not line.isascii():
            raise ConfigError(f"{path}: manifest line {len(lines) + 1} is not ASCII")
        lines.append(line)
    head = b"".join(lines)
    fields = dict(line.split(": ", 1) for line in head.decode("ascii").split("\n") if ": " in line)
    return head, fields


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
    read from the file straight into its array. The restored values are
    bitwise equal to what was saved, so the loaded graph reproduces the
    original logits exactly. A ConfigError is raised for a malformed manifest
    line, a data section whose size is not the header model's parameter count
    times 8 (checked before anything is allocated), a header that differs
    from the one ``save_checkpoint`` writes for that model, and any
    non-finite tensor value.
    """
    with open(path, "rb") as fh:
        head, fields = read_manifest(fh, path)
        try:
            spec = _spec_from_fields(fields)
            ffn_kind = _field(fields, "ffn", FfnKind)
            # size the model before allocating it, so a header that asks for
            # more parameters than the file holds fails here rather than in numpy
            needed = 8 * parameter_count(spec, ffn_kind)
            held = os.fstat(fh.fileno()).st_size - len(head)
            if needed != held:
                raise ConfigError(
                    f"the header's model needs {needed} data bytes, the file holds {held}"
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

        expected = _manifest(graph)
        if head != expected:
            have, need = head.decode("ascii").split("\n"), expected.decode("ascii").split("\n")
            # both end in "END", the only such line, so they differ before either ends
            i = next(i for i, (a, b) in enumerate(zip(have, need)) if a != b)
            raise ConfigError(
                f"{path}: header line {i + 1} is {have[i]!r}, but the model it "
                f"describes writes {need[i]!r}"
            )

        for name, p in graph.named_parameters():
            if fh.readinto(p.data) != p.data.nbytes:
                raise ConfigError(f"{path}: the data ends inside {name}")
            if sys.byteorder == "big":
                p.data.byteswap(inplace=True)  # the file is little-endian
            if not np.isfinite(p.data).all():
                raise ConfigError(f"{path}: {name} holds non-finite values")
            p.requires_grad = False
    return graph
