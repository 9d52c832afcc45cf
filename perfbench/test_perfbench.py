"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run on a small dataset; the benchmark itself runs at full scale.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run as bench  # noqa: E402
from perfbench.layers import EXPECTED, PER_LAYER, TARGETS  # noqa: E402
from perfbench.tracer import Target, Tracer, installed  # noqa: E402
from perfbench.workloads import WORKLOADS, build  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class _Clock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Nested:
    """Synthetic layers: ``outer`` works 2 s, calls ``inner`` (3 s), works 1 s."""

    def __init__(self, clock: _Clock) -> None:
        self.clock = clock

    def outer(self):
        self.clock.now += 2.0
        self.inner()
        self.clock.now += 1.0
        return "done"

    def inner(self):
        self.clock.now += 3.0


def test_self_time_of_nested_spans():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def slow_hook(t, *args):
        clock.now += 10.0  # hook time is charged to no layer

    targets = [
        Target("perfbench.test_perfbench:_Nested.outer", "outer"),
        Target("perfbench.test_perfbench:_Nested.inner", "inner", after=slow_hook),
        Target("perfbench.test_perfbench:_Nested.gone", "gone"),
        Target("perfbench.no_such_module:f", "gone"),
    ]
    original = _Nested.__dict__["outer"]
    with installed(tracer, targets) as absent:
        assert _Nested(clock).outer() == "done"
    assert _Nested.__dict__["outer"] is original
    assert absent == [
        "perfbench.test_perfbench:_Nested.gone",
        "perfbench.no_such_module:f",
    ]
    assert tracer.self_s == {"outer": 3.0, "inner": 3.0}
    assert tracer.hook_s == 10.0
    inner, outer = tracer.spans
    assert (outer.parent, inner.parent) == (-1, outer.id)
    assert (inner.start, inner.end, outer.start, outer.end) == (2.0, 5.0, 0.0, 16.0)


def test_a_failing_counter_never_stops_the_call():
    tracer = Tracer()

    def broken(t, *args):
        raise KeyError("gone")

    with installed(tracer, [Target("perfbench.test_perfbench:_Nested.inner", "x", after=broken)]):
        _Nested(_Clock()).inner()
    assert "KeyError" in tracer.hook_errors["perfbench.test_perfbench:_Nested.inner"]


@pytest.fixture(scope="module")
def env():
    return bench.setup(repeats=1, scale=SCALE)[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_is_bit_identical_to_untraced(env, name):
    workload = build(name, env.dataset, seed=3)
    plain = workload.fingerprint(0, workload.run(env, workload.chunks[0]))
    tracer = Tracer()
    with installed(tracer, TARGETS) as absent:
        traced = workload.fingerprint(0, workload.run(env, workload.chunks[0]))
    assert traced == plain
    for site in EXPECTED[name]:
        assert site in absent or tracer.fired[site] > 0, site


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_match_the_benchmark_file(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    result = bench.run("sweep_point_nn", seed=3, seconds=0.0, trace=trace, scale=SCALE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    assert all(NAME.fullmatch(k) for k in emitted)
    assert set(PER_LAYER) == {m["name"] for m in spec["per_layer"]}
