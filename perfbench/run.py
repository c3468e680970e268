"""End-to-end wall-clock benchmark of the federation engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload traffic-bl --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's entry point, prints per-layer calls and self time, writes the
spans to ``perfbench/out/`` and reports the tracing overhead against an
untraced run of the same seed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads, the layer map and the recorded baselines are described
in ``perfbench/manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Share of the traced wall time the top-level spans must cover.
MIN_COVERAGE = 0.95


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_engine() -> None:
    """Put this checkout's ``src`` first and make sure it is what loads."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no engine sources at {SRC}")
    sys.path[:0] = [HERE, SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def _untraced(args) -> dict:
    """The same seed's untraced result, from a child process."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=150,
    )
    if child.returncode != 0:
        raise SystemExit(
            f"perfbench: untraced run failed:\n{child.stderr}"
        )
    return json.loads(child.stdout.strip().splitlines()[-1])


def _check_layers(outcome, layer_map) -> None:
    from layers import LAYERS, LayerError

    if set(layer_map) != set(LAYERS):
        raise LayerError(
            "manifest layer map and wrapped layers differ: "
            f"{sorted(set(layer_map) ^ set(LAYERS))}"
        )
    silent = [
        layer for layer, spec in layer_map.items()
        if outcome.workload in spec["works_on"]
        and outcome.per_layer[f"layer.{layer}.calls"][0] == 0
    ]
    if silent:
        raise LayerError(
            f"{outcome.workload}: no calls recorded for {', '.join(silent)}"
        )
    if outcome.coverage < MIN_COVERAGE:
        raise LayerError(
            f"{outcome.workload}: spans cover only {outcome.coverage:.1%} "
            "of the traced wall time"
        )


def _print_table(title, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = _args(argv)
    _import_engine()
    from bench import run
    from layers import LayerError
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "manifest.json")) as handle:
        manifest = json.load(handle)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    untraced = _untraced(args) if args.trace else None
    spans = os.path.join(
        HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"
    )
    try:
        outcome = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                      bool(args.trace), spans if args.trace else None)
        if args.trace:
            _check_layers(outcome, manifest["layers"])
    except LayerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(f"{outcome.workload} seed={outcome.seed}: "
          f"{outcome.window_queries} queries in the window, "
          f"{outcome.prefix_queries} in the counted prefix")
    _print_table("end to end:", {**outcome.end_to_end, **outcome.extra})
    metrics = outcome.end_to_end
    if args.trace:
        _print_table("per layer (per query):", outcome.per_layer)
        print(f"spans cover {outcome.coverage:.2%} of the traced wall time; "
              f"written to {os.path.relpath(spans)}")
        base = untraced["metrics"]
        for name, slower in (("qps", lambda u, t: u / t),
                             ("query_ms.p50", lambda u, t: t / u)):
            plain, traced = base[name]["value"], outcome.end_to_end[name][0]
            print(f"tracing overhead on {name}: untraced {plain:.4g}, "
                  f"traced {traced:.4g} ({slower(plain, traced) - 1:+.1%})")
        metrics = outcome.per_layer
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
