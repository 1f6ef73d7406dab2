"""Bi-fovea vision transformer backbones on a small numpy autodiff kernel.

The package builds the four published backbone variants (tiny through large),
verifies their parameter/FLOP budgets analytically and by instrumentation,
checks gradients against finite differences, and trains reduced models on a
procedural toy dataset. See the README for the CLI.
"""

from .analysis import CostReport, cost_report, export_attention_maps, measure_macs
from .attention import AttentionConfig, ConnectionPattern, bfsa_forward
from .backbone import (
    VARIANTS,
    AttentionCapture,
    ModuleGraph,
    StageConfig,
    VariantSpec,
    build,
    reduced_variant,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config, read_config, render_config, write_config
from .data import ToyDataset, load_image_dir, synthetic_shapes
from .errors import ConfigError, NonFiniteError, ShapeError
from .feedforward import FfnConfig, FfnKind
from .gradcheck import run_gradcheck
from .tensor import MacCounter, Tensor, no_grad
from .train import AdamW, evaluate, run_training

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AttentionCapture",
    "AttentionConfig",
    "ConfigError",
    "ConnectionPattern",
    "CostReport",
    "FfnConfig",
    "FfnKind",
    "MacCounter",
    "ModuleGraph",
    "NonFiniteError",
    "RunConfig",
    "ShapeError",
    "StageConfig",
    "Tensor",
    "ToyDataset",
    "VARIANTS",
    "VariantSpec",
    "bfsa_forward",
    "build",
    "cost_report",
    "evaluate",
    "export_attention_maps",
    "load_checkpoint",
    "load_image_dir",
    "measure_macs",
    "no_grad",
    "parse_config",
    "read_config",
    "reduced_variant",
    "render_config",
    "run_gradcheck",
    "run_training",
    "save_checkpoint",
    "synthetic_shapes",
    "write_config",
]
