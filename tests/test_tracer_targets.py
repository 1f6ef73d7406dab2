"""The benchmark's tracer wraps package functions by name; every name must exist."""

from pathlib import Path

import evit.tensor

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
