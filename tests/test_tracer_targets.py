"""The benchmark's tracer wraps package functions by name; every name must exist,
and its MAC gate must see the products and convolutions the cost report counts."""

import functools
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import evit.tensor
from evit.analysis import cost_report, measure_macs
from evit.backbone import build

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    add = evit.tensor.add
    functions = [(module, name, getattr(module, name)) for module, name in tracer.FUNCTIONS]
    methods = [(cls, name, cls.__dict__[name]) for cls, name, _ in tracer.METHODS]
    t = tracer.Tracer(None, {})
    with t.installed():
        assert evit.tensor.add is not add
        for owner, name, original in functions:
            assert getattr(owner, name).__wrapped__ is original, name
        for owner, name, original in methods:
            assert owner.__dict__[name].__wrapped__ is original, name
        assert t._patches
    assert t._patches == []
    assert evit.tensor.add is add
    for owner, name, original in functions:
        assert getattr(owner, name) is original, name
    for owner, name, original in methods:
        assert owner.__dict__[name] is original, name


def test_gradients_walk_runs_through_tensor_backward(monkeypatch, toy_spec):
    """``ModuleGraph.gradients`` reaches the walk through ``loss.backward()``,
    so a wrapper set on the class, as the tracer sets its ``tensor.backward``
    span, runs once per ``gradients`` call (``run_training`` streams the walk
    into ``AdamW.step`` instead)."""
    original = evit.tensor.Tensor.__dict__["backward"]
    calls = []

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(evit.tensor.Tensor, "backward", functools.update_wrapper(counted, original))
    graph = build(toy_spec, seed=0, zero_classifier=False)
    images = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
    loss = evit.tensor.cross_entropy(graph.forward(images), np.array([0, 1]))
    grads = graph.gradients(loss)
    assert calls == [loss]
    assert grads.keys() == dict(graph.named_parameters()).keys()


def test_traced_attention_products_match_the_cost_report(monkeypatch, toy_spec):
    """The benchmark's MAC gate counts every 4-d ``matmul`` as an attention
    product. Over a taped forward and its backward, those products must be
    the cost report's, so an attention adjoint that ran its products
    through ``T.matmul``, or a forward that bypassed it, fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    graph = build(toy_spec, seed=0, zero_classifier=False)
    images = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
    t = tracer.Tracer(SimpleNamespace(current=0), {})
    with t.installed():
        graph.gradients(evit.tensor.cross_entropy(graph.forward(images), np.array([0, 1])))
    attn = t.table([0])["tensor.matmul[attn]"]["macs"]
    report = cost_report(toy_spec, 32, graph.pattern, graph.ffn_kind)
    assert attn == 2 * report.total_attn_macs > 0


def test_traced_dense_macs_match_the_cost_report(monkeypatch, toy_spec):
    """Over a taped forward and its backward, the tracer's MACs for each of
    ``matmul``, ``conv2d`` and ``dwconv2d`` are the forward's alone: those
    an observed forward counts (``measure_macs``, pinned row by row to the
    cost report in ``test_analysis``) times the batch, summing to the cost
    report's inclusive total. An adjoint or recipe that recomputed through
    a traced operator, such as the BFFN node's through ``T.dwconv2d``, fails
    here; the harness checks the same only under ``--trace 1``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    graph = build(toy_spec, seed=0, zero_classifier=False)
    images = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
    t = tracer.Tracer(SimpleNamespace(current=0), {})
    with t.installed():
        graph.gradients(evit.tensor.cross_entropy(graph.forward(images), np.array([0, 1])))
    rows = t.table([0])
    traced = {op: sum(r["macs"] for key, r in rows.items()
                      if key == f"tensor.{op}" or key.startswith(f"tensor.{op}["))
              for op in tracer.DENSE_OPS}
    forward = measure_macs(graph, 32).by_op
    assert traced == {op: 2 * forward[op] for op in tracer.DENSE_OPS}
    report = cost_report(toy_spec, 32, graph.pattern, graph.ffn_kind)
    assert sum(traced.values()) == 2 * report.total_macs_inclusive
