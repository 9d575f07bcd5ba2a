"""Tests of the benchmark's own logic, on short request lists."""

import dataclasses
import json
import types
from pathlib import Path

import pytest

import adapter
import run
from spans import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# the real workloads with fewer candidates per request, to keep tests short
SMALL = {name: dataclasses.replace(wl, n=min(wl.n, 4)) for name, wl in run.WORKLOADS.items()}


@pytest.fixture(scope="module")
def stacks():
    return {wl.verifier_mode: adapter.setup(wl.verifier_mode) for wl in SMALL.values()}


def test_same_seed_gives_same_request_list():
    a = adapter.make_requests(5, 6, 4)
    assert a == adapter.make_requests(5, 6, 4)
    assert a != adapter.make_requests(6, 6, 4)
    seeds = [s for r in a for s in r.seeds]
    assert len(set(seeds)) == len(seeds)
    assert max(seeds) < adapter.CALIBRATION_SEED_BASE


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_quality_and_flops(name, stacks):
    wl = SMALL[name]
    stack = stacks[wl.verifier_mode]
    requests = adapter.make_requests(3, 4, wl.n)
    a = run.replay(stack, wl, requests)
    b = run.replay(stack, wl, requests)
    assert not a.failures and not b.failures
    assert (a.passed, a.best, a.flops) == (b.passed, b.best, b.flops)
    flops = run.flops_per_image(stack, wl, requests, a)
    assert flops > 0
    assert flops == run.flops_per_image(stack, wl, requests, b)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_selects_same_candidates_with_same_flops(name, stacks):
    wl = SMALL[name]
    stack = stacks[wl.verifier_mode]
    requests = adapter.make_requests(4, 3, wl.n)
    plain, traced, tracer = run.replay_traced(stack, wl, requests)
    assert not plain.failures and not traced.failures
    assert traced.best == plain.best
    assert traced.flops == plain.flops
    assert tracer.absent == []
    # wrappers are removed again
    assert adapter.toygen.attention_block is adapter.numcore.attention_block


def test_child_self_times_fit_in_parent_span(stacks):
    wl = SMALL["bon_hidden"]
    _, _, tracer = run.replay_traced(stacks[wl.verifier_mode], wl,
                                     adapter.make_requests(5, 2, wl.n))
    own = tracer.own()
    children: dict[int, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert s.request == parent.request
    assert children
    for p, kids in children.items():
        parent = tracer.spans[p]
        assert sum(own[k][0] for k in kids) <= parent.end - parent.start
        assert sum(own[k][1] for k in kids) <= parent.flops
    assert all(ns >= 0 and flops >= 0 for ns, flops in own)


def test_missing_wrap_target_is_reported_absent():
    fake = types.ModuleType("fake")
    fake.f = lambda x: x + 1
    tracer = Tracer()
    with tracer.installed([(fake, "f", "layer"), (fake, "gone", "layer")], []):
        assert fake.f(1) == 2
    assert tracer.absent == ["fake.gone"]
    assert tracer.self_totals()["fake.f"][0] == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_metrics_match_benchmark_json(name, stacks):
    wl = SMALL[name]
    stack = stacks[wl.verifier_mode]
    requests = adapter.make_requests(6, 2, wl.n)
    plain, traced, tracer = run.replay_traced(stack, wl, requests)
    spent = run.flops_per_image(stack, wl, requests, plain)
    e2e = run.end_to_end(wl, plain, plain.latencies_s, [0.1, 0.2], spent)
    layers = run.per_layer(wl, plain, traced, tracer, spent, spent)
    for declared, got in ((BENCHMARK["end_to_end"], e2e), (BENCHMARK["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in got.items()}
    assert all(v > 0 for v, _ in e2e.values())
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
