"""Spans, self time, percentiles and the loud failures of the tracer."""

import importlib
import json
import subprocess
import sys
import types

import pytest

import child
import run
from tracer import TraceSetupError, Tracer, percentile


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(1.0)

    def outer():
        clock.advance(0.5)
        traced_middle()
        traced_leaf()
        clock.advance(0.5)

    traced_leaf = t.wrap("leaf", leaf)
    traced_middle = t.wrap("middle", middle)
    t.wrap("outer", outer)()

    layers = t.layers
    assert (layers["leaf"].calls, layers["leaf"].total_s, layers["leaf"].self_s) == (2, 4.0, 4.0)
    assert (layers["middle"].total_s, layers["middle"].self_s) == (4.0, 2.0)
    # outer covers 7 s; its direct children (middle 4 s, leaf 2 s) cover 6 s.
    assert (layers["outer"].total_s, layers["outer"].self_s) == (7.0, 1.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError

    traced = t.wrap("boom", boom)
    with pytest.raises(ValueError):
        t.wrap("outer", traced)()
    assert t.layers["boom"].calls == 1
    assert t.layers["outer"].self_s == 0.0


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1000), 99) == 989
    assert percentile(range(999), 99) is None
    assert percentile(range(20), 50) == 9
    assert percentile(range(19), 50) is None
    assert percentile([], 50) is None


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layers")

    class Thing:
        def __init__(self, x):
            self.x = x

        def __eq__(self, other):
            return isinstance(other, Thing) and other.x == self.x

        def method(self):
            return self.x

    def helper(x):
        return Thing(x)

    module.Thing, module.helper = Thing, helper
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_install_wraps_functions_and_methods_not_classes(fake_module):
    cls = fake_module.Thing
    t = Tracer()
    t.install("helper", ["fake_layers:helper"])
    t.install("Thing.init", ["fake_layers:Thing.__init__"])
    t.install("Thing.method", ["fake_layers:Thing.method"])
    made = fake_module.helper(3)
    assert fake_module.Thing is cls
    assert made == cls(3) and made.method() == 3
    assert t.layers["helper"].calls == 1
    assert t.layers["Thing.init"].calls == 2
    assert t.layers["Thing.method"].calls == 1


def test_missing_name_fails_loudly(fake_module):
    t = Tracer()
    with pytest.raises(TraceSetupError, match="no longer exists"):
        t.install("gone", ["fake_layers:renamed_helper"])
    with pytest.raises(TraceSetupError, match="no longer exists"):
        t.install("gone", ["fake_layers:Missing.method"])
    with pytest.raises(TraceSetupError, match="no longer exists"):
        t.install("gone", ["fake_layers_renamed:helper"])


def test_uncalled_required_name_fails_loudly(fake_module):
    t = Tracer()
    t.install("helper", ["fake_layers:helper"])
    with pytest.raises(TraceSetupError, match="helper"):
        t.require_called(["helper"])
    fake_module.helper(1)
    t.require_called(["helper"])
    with pytest.raises(TraceSetupError, match="never_wrapped"):
        t.require_called(["never_wrapped"])


def test_every_traced_name_exists_in_the_package():
    for target in (t for targets in child.TRACED.values() for t in targets):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target


def run_child(spec):
    return subprocess.run([sys.executable, child.__file__, json.dumps(spec)],
                          capture_output=True, text=True, timeout=60)


def test_traced_child_reports_layers_and_identical_stdout():
    argv = ["verify", "-d", "3,2,2,1,1,1"]
    required = ["cli", "tree_core.prufer_decode", "oracle.sombor_spectrum"]
    plain = run_child({"argv": argv, "trace": False, "required": required})
    traced = run_child({"argv": argv, "trace": True, "required": required})
    assert plain.returncode == traced.returncode == 0, traced.stderr
    plain, traced = json.loads(plain.stdout), json.loads(traced.stdout)
    assert plain["stdout"] == traced["stdout"] and plain["exit_code"] == 0
    layers = traced["layers"]
    derived = {name for name in run.PER_LAYER if name.startswith(
        ("switching.find_violation.p", "switching.steps.", "trace."))}
    assert set(run.PER_LAYER) - derived <= set(layers)
    assert layers["tree_core.prufer_decode.calls"] == 24  # 12 trees, two passes
    assert layers["oracle.decode_ratio"] == 2.0
    assert layers["oracle.verify_greedy_minimum.calls"] == 1
    assert layers["switching.find_violation.calls"] == 0


def test_traced_child_fails_loudly_when_a_required_layer_is_idle():
    spec = {"argv": ["verify", "-d", "3,2,2,1,1,1"], "trace": True,
            "required": ["switching.find_violation"]}
    result = run_child(spec)
    assert result.returncode == child.TRACE_SETUP_EXIT
    assert "switching.find_violation" in result.stderr
    assert result.stdout == ""
