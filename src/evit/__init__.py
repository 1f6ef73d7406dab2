"""Bi-fovea vision transformer backbones on a small numpy autodiff kernel.

The package builds the four published backbone variants (tiny through large),
verifies their parameter/FLOP budgets analytically and by instrumentation,
checks gradients against finite differences, and trains reduced models on a
procedural toy dataset. The ``evit`` command (``evit.cli``) is the entry
point; see the README. The Python API is the submodules, each imported by
name: ``evit.backbone`` (``build``, ``validate_spec``, the variant table),
``evit.attention``, ``evit.feedforward``, ``evit.analysis``
(``cost_report``), ``evit.checkpoint``, ``evit.config``, ``evit.data``,
``evit.train``, ``evit.gradcheck``, ``evit.tensor`` and ``evit.errors``.
"""
