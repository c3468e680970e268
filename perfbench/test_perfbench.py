"""Self-checks of the benchmark itself (not part of the engine's suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs its counted prefix only (a near-zero window), with
one set-up, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import run as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DETERMINISTIC = ("messages_per_query", "net_kb_per_query")


def _run(name, seed, trace, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    return bench.run(WORKLOADS[name](), seed, 0.01, trace)


def _manifest():
    with open(os.path.join(HERE, "manifest.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_and_other_seed_differs(name, monkeypatch):
    first = _run(name, 7, True, monkeypatch)
    second = _run(name, 7, True, monkeypatch)
    other = _run(name, 8, False, monkeypatch)

    assert first.failed == second.failed == other.failed == 0
    for metric in DETERMINISTIC:
        assert first.end_to_end[metric] == second.end_to_end[metric]
    for metric in ("sim_response_s", "sim_total_s"):
        assert first.extra[metric] == second.extra[metric]
    calls = {k: v for k, v in first.per_layer.items()
             if not k.endswith(".self_ms")}
    assert calls == {k: second.per_layer[k] for k in calls}
    assert first.digests and first.digests == second.digests
    assert first.inputs == second.inputs
    assert other.inputs != first.inputs
    # The layer map's "works on" claims hold, and spans cover the time.
    cli._check_layers(first, _manifest()["layers"])


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("core.certify", "repro.core.strategies.localized", "certify_gone"),
    ))
    with pytest.raises(layers.LayerError, match="certify_gone"):
        with layers.installed(layers.Tracer()):
            pass


def test_silent_layer_fails_loudly(monkeypatch):
    outcome = _run("ca-hotset", 7, True, monkeypatch)
    layer_map = _manifest()["layers"]
    layer_map["core.certify"]["works_on"].append("ca-hotset")
    with pytest.raises(layers.LayerError, match="core.certify"):
        cli._check_layers(outcome, layer_map)


def test_wrappers_are_removed_after_a_run(monkeypatch):
    from repro.core.engine import GlobalQueryEngine

    before = GlobalQueryEngine.__dict__["execute"]
    _run("ca-hotset", 7, True, monkeypatch)
    assert GlobalQueryEngine.__dict__["execute"] is before


def test_weighted_percentile():
    pairs = [(1.0, 0.5), (2.0, 0.25), (3.0, 0.25)]
    assert bench.weighted_percentile(pairs, 0.5) == 1.0
    assert bench.weighted_percentile(pairs, 0.51) == 2.0
    assert bench.weighted_percentile(pairs, 0.95) == 3.0
