"""End-to-end gradient verification against central finite differences.

Builds a reduced model with a live (non-zero) classifier, runs one backward
pass of a cross-entropy loss on synthetic images, then re-evaluates the loss
with individual parameter entries nudged by ±h. Samples are spread
round-robin over parameter categories (stem, embeddings, position encodings,
norms, both attention pathways, feedforward, head) so every kind of adjoint
gets exercised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import ConnectionPattern
from .backbone import VariantSpec, build, validate_spec
from .data import synthetic_shapes
from .feedforward import FfnKind
from .tensor import finite_difference, relative_error

_CATEGORIES = (
    ("head.", "head"),
    ("stem.", "stem"),
    (".embed.", "embed"),
    (".cpe.", "cpe"),
    (".ln", "norm"),
    (".bfsa.sfa", "sfa"),
    (".bfsa.dfa", "dfa"),
    (".ffn.", "ffn"),
)


def _category(name: str) -> str:
    for needle, label in _CATEGORIES:
        if needle in name:
            return label
    return "other"


@dataclass
class GradcheckSample:
    name: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradcheckResult:
    samples: list[GradcheckSample] = field(default_factory=list)
    tolerance: float = 1e-3

    @property
    def max_rel_error(self) -> float:
        """The largest sample error, or NaN if any sample's error is NaN."""
        return float(np.max([s.rel_error for s in self.samples], initial=0.0))

    @property
    def finite(self) -> bool:
        return all(
            np.isfinite(s.analytic) and np.isfinite(s.numeric) for s in self.samples
        )

    @property
    def passed(self) -> bool:
        return self.finite and self.max_rel_error <= self.tolerance


_BATCH = 4


def run_gradcheck(
    spec: VariantSpec,
    seed: int = 0,
    input_size: int = 32,
    samples: int = 12,
    h: float = 1e-3,
    tolerance: float = 1e-3,
    pattern: ConnectionPattern = ConnectionPattern.BIFOVEA,
    ffn_kind: FfnKind = FfnKind.BFFN,
) -> GradcheckResult:
    """Compare sampled analytic gradients of the loss with finite differences."""
    graph = build(spec, seed=seed, pattern=pattern, ffn_kind=ffn_kind, zero_classifier=False)
    validate_spec(spec, input_size)
    dataset = synthetic_shapes(_BATCH, input_size, seed, noise=0.08)
    labels = dataset.labels % spec.num_classes

    def loss_fn():
        return T.cross_entropy(graph.forward(dataset.images), labels)

    grads = graph.gradients(loss_fn())
    named = graph.named_parameters()

    # round-robin over categories so every adjoint kind appears
    by_category: dict[str, list[str]] = {}
    for name, _ in named:
        by_category.setdefault(_category(name), []).append(name)
    rng = np.random.default_rng(seed)
    pools = itertools.cycle([by_category[cat] for cat in sorted(by_category)])
    chosen = [pool[int(rng.integers(len(pool)))] for pool in itertools.islice(pools, samples)]

    params = dict(named)
    result = GradcheckResult(tolerance=tolerance)
    for name in chosen:
        p = params[name]
        flat = int(rng.integers(p.size))
        index = tuple(int(v) for v in np.unravel_index(flat, p.shape))
        numeric = finite_difference(loss_fn, p, [index], h=h)[index]
        analytic = float(grads[name][index])
        result.samples.append(
            GradcheckSample(
                name=name,
                index=index,
                analytic=analytic,
                numeric=numeric,
                rel_error=relative_error(analytic, numeric),
            )
        )
    return result
