"""Hot-path bench: batched check dispatch, cache warmth, columnar kernels.

Sweeps generated federations over an (N_db x extent scale) grid and, per
strategy, runs each query

* **batched** (the default wire protocol: one check request/reply pair
  per ``(src, dst)`` link),
* **batched again** (same engine — measures mapping-index/decomposition
  cache hits on a repeated query),
* **unbatched** (``batch_checks=False``: the historical
  one-message-pair-per-request protocol), and
* **row path** (``columnar=False``: per-object evaluation instead of the
  columnar extent kernels),

recording network messages, bytes, simulated total/response time, cache
traffic and wall-clock.  The bench enforces the batching and columnar
contracts:

* answers are byte-identical between the batched and unbatched runs
  *and* between the columnar and row paths (same ResultSet JSON, cell by
  cell);
* batching never sends more messages, and strictly fewer in aggregate
  for every localized strategy;
* a repeated query hits the caches (warm hit rate > 0);
* warm local evaluation over the columnar kernels is at least 5x faster
  than the row path at the sweep's largest grid cell (the
  ``local_eval`` section records the wall-clock for every cell).

Runs standalone; CI runs the quick grid and diffs against the committed
baseline::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --json BENCH_hotpath.json --check benchmarks/results/BENCH_hotpath.json

The JSON output is fully determined by the grid: no timestamps and no
dict-order dependence.  ``wall_s`` fields and the ``local_eval`` timing
section are informational only and are ignored by ``--check``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

if __package__ in (None, ""):  # runnable as a plain script from anywhere
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    _SRC = pathlib.Path(__file__).parent.parent / "src"
    if _SRC.is_dir():
        sys.path.insert(0, str(_SRC))

from bench_common import make_workload, write_result

from repro.bench.reporting import format_table
from repro.core.engine import GlobalQueryEngine

SCHEMA = "BENCH_hotpath/v2"
STRATEGIES = ("CA", "BL", "PL", "BL-S", "PL-S")
LOCALIZED = ("BL", "PL", "BL-S", "PL-S")

#: Workload seed per federation size.  Chosen so every drawn parameter
#: set actually produces missing data (phase-O check traffic) — a
#: federation without unsolved items exercises neither batching nor the
#: chase path.
WORKLOAD_SEEDS = {3: 103, 4: 304, 5: 105}

FULL_GRID = tuple(
    (n_db, scale) for n_db in (3, 4, 5) for scale in (0.03, 0.06)
)
QUICK_GRID = ((3, 0.03), (4, 0.03))

#: Fields compared by --check (everything deterministic; wall_s is not).
CHECKED_FIELDS = (
    "answer_digest",
    "row_path_digest",
    "messages_batched",
    "messages_unbatched",
    "bytes_batched",
    "bytes_unbatched",
    "total_s",
    "response_s",
    "warm_cache_hits",
    "warm_cache_misses",
)

#: Minimum warm local-eval speedup (columnar vs row path) the sweep's
#: largest grid cell must reach.
MIN_COLUMNAR_SPEEDUP = 5.0


def _digest(report) -> str:
    """Stable fingerprint of the answer (certain + maybe rows)."""
    payload = json.dumps(report.results.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_cell(n_db: int, scale: float, strategy: str) -> dict:
    """One (workload, strategy) cell on a fresh federation."""
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    engine = GlobalQueryEngine(workload.system)

    start = time.perf_counter()
    cold = engine.execute(workload.query, strategy)
    wall_s = time.perf_counter() - start
    warm = engine.execute(workload.query, strategy)
    unbatched = engine.execute(
        workload.query, strategy, engine.options.with_(batch_checks=False)
    )
    row_path = engine.execute(
        workload.query, strategy, engine.options.with_(columnar=False)
    )

    cold_digest = _digest(cold)
    if _digest(unbatched) != cold_digest:
        raise AssertionError(
            f"{strategy} ndb{n_db} scale{scale:g}: batched and unbatched "
            "answers differ"
        )
    if _digest(warm) != cold_digest:
        raise AssertionError(
            f"{strategy} ndb{n_db} scale{scale:g}: repeated query changed "
            "the answer"
        )
    row_path_digest = _digest(row_path)
    if row_path_digest != cold_digest:
        raise AssertionError(
            f"{strategy} ndb{n_db} scale{scale:g}: columnar and row-path "
            "answers differ"
        )
    batched_msgs = cold.metrics.work.messages
    unbatched_msgs = unbatched.metrics.work.messages
    if batched_msgs > unbatched_msgs:
        raise AssertionError(
            f"{strategy} ndb{n_db} scale{scale:g}: batching sent more "
            f"messages ({batched_msgs} > {unbatched_msgs})"
        )
    warm_work = warm.metrics.work
    return {
        "workload": f"ndb{n_db}-scale{scale:g}",
        "n_db": n_db,
        "scale": scale,
        "strategy": strategy,
        "answer_digest": cold_digest,
        "row_path_digest": row_path_digest,
        "certain": len(cold.results.certain),
        "maybe": len(cold.results.maybe),
        "messages_batched": batched_msgs,
        "messages_unbatched": unbatched_msgs,
        "bytes_batched": cold.metrics.work.bytes_network,
        "bytes_unbatched": unbatched.metrics.work.bytes_network,
        "total_s": round(cold.total_time, 6),
        "response_s": round(cold.response_time, 6),
        "cold_cache_hits": cold.metrics.work.cache_hits,
        "cold_cache_misses": cold.metrics.work.cache_misses,
        "warm_cache_hits": warm_work.cache_hits,
        "warm_cache_misses": warm_work.cache_misses,
        "warm_cache_hit_rate": round(warm_work.cache_hit_rate, 4),
        "wall_s": round(wall_s, 6),
    }


def measure_local_eval(n_db: int, scale: float, reps: int = 3) -> dict:
    """Warm local-evaluation wall-clock: columnar kernels vs row path.

    Times repeated :meth:`ComponentDatabase.execute_local` calls over
    the workload's decomposed local queries — the loop the columnar
    extent exists for — after one warm-up pass on each path.  Timing
    only; answer equality is enforced per cell by :func:`run_cell` and
    object-by-object by the test suite.
    """
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    system = workload.system
    decomp = system.decompose(workload.query)
    pairs = [
        (system.db(lq.db_name), lq)
        for lq in decomp.local_queries.values()
    ]
    for db, lq in pairs:
        db.execute_local(lq, columnar=True)
        db.execute_local(lq, columnar=False)
    start = time.perf_counter()
    for _ in range(reps):
        for db, lq in pairs:
            db.execute_local(lq, columnar=True)
    columnar_s = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        for db, lq in pairs:
            db.execute_local(lq, columnar=False)
    row_s = (time.perf_counter() - start) / reps
    return {
        "workload": f"ndb{n_db}-scale{scale:g}",
        "n_db": n_db,
        "scale": scale,
        "columnar_wall_s": round(columnar_s, 6),
        "row_wall_s": round(row_s, 6),
        "speedup": round(row_s / columnar_s, 2),
    }


def sweep(grid) -> dict:
    cells = []
    for n_db, scale in grid:
        for strategy in STRATEGIES:
            cells.append(run_cell(n_db, scale, strategy))
    local_eval = [measure_local_eval(n_db, scale) for n_db, scale in grid]
    _assert_contract(cells, local_eval)
    return {
        "schema": SCHEMA,
        "seeds": {str(k): v for k, v in sorted(WORKLOAD_SEEDS.items())},
        "grid": [{"n_db": n, "scale": s} for n, s in grid],
        "cells": cells,
        "local_eval": local_eval,
    }


def _assert_contract(cells, local_eval) -> None:
    """Aggregate guarantees the per-cell checks cannot express."""
    largest = max(local_eval, key=lambda e: (e["n_db"], e["scale"]))
    if largest["speedup"] < MIN_COLUMNAR_SPEEDUP:
        raise AssertionError(
            f"{largest['workload']}: columnar local eval only "
            f"{largest['speedup']}x faster than the row path "
            f"(contract: >= {MIN_COLUMNAR_SPEEDUP}x at the largest cell)"
        )
    for strategy in LOCALIZED:
        batched = sum(
            c["messages_batched"] for c in cells
            if c["strategy"] == strategy
        )
        unbatched = sum(
            c["messages_unbatched"] for c in cells
            if c["strategy"] == strategy
        )
        if not batched < unbatched:
            raise AssertionError(
                f"{strategy}: batching did not strictly reduce messages "
                f"across the sweep ({batched} vs {unbatched})"
            )
    warm_lookups = [
        c for c in cells
        if c["warm_cache_hits"] + c["warm_cache_misses"] > 0
    ]
    if not warm_lookups:
        raise AssertionError("no cell recorded any cache traffic")
    for cell in warm_lookups:
        if cell["warm_cache_hit_rate"] <= 0.0:
            raise AssertionError(
                f"{cell['strategy']} {cell['workload']}: repeated query "
                "missed every cache"
            )


def check_against(result: dict, baseline_path: str) -> list:
    """Deterministic-field diffs vs the committed baseline.

    Compares the cells present in both runs (the CI quick grid is a
    subset of the committed full grid); wall-clock is ignored.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    base_by_key = {
        (c["workload"], c["strategy"]): c for c in baseline["cells"]
    }
    diffs = []
    for cell in result["cells"]:
        key = (cell["workload"], cell["strategy"])
        base = base_by_key.get(key)
        if base is None:
            continue
        for fname in CHECKED_FIELDS:
            if cell[fname] != base[fname]:
                diffs.append(
                    f"{key[0]}/{key[1]}.{fname}: "
                    f"{base[fname]} -> {cell[fname]}"
                )
    return diffs


def render(result: dict) -> str:
    headers = ["workload", "strategy", "msgs (batched)", "msgs (unbatched)",
               "net bytes", "total (s)", "response (s)", "warm hit rate"]
    rows = [
        [c["workload"], c["strategy"], str(c["messages_batched"]),
         str(c["messages_unbatched"]), str(c["bytes_batched"]),
         f"{c['total_s']:.3f}", f"{c['response_s']:.3f}",
         f"{c['warm_cache_hit_rate']:.2f}"]
        for c in result["cells"]
    ]
    text = format_table(headers, rows)
    eval_headers = ["workload", "columnar (s)", "row path (s)", "speedup"]
    eval_rows = [
        [e["workload"], f"{e['columnar_wall_s']:.4f}",
         f"{e['row_wall_s']:.4f}", f"{e['speedup']:.1f}x"]
        for e in result["local_eval"]
    ]
    return (
        text
        + "\n\nwarm local evaluation (columnar kernels vs row path):\n"
        + format_table(eval_headers, eval_rows)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid (CI smoke)")
    parser.add_argument("--json", default="", dest="json_path",
                        help="write the machine-readable result here")
    parser.add_argument("--check", default="", dest="check_path",
                        help="fail when deterministic fields differ from "
                             "this committed baseline JSON")
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    result = sweep(grid)
    text = render(result)
    print(text)
    write_result("hotpath", text)

    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\njson written to {args.json_path}")

    if args.check_path:
        diffs = check_against(result, args.check_path)
        if diffs:
            print(f"\nBASELINE REGRESSION vs {args.check_path}:")
            for diff in diffs:
                print(f"  {diff}")
            return 1
        print(f"\nbaseline check OK vs {args.check_path}")
    return 0


def test_hotpath_sweep(benchmark):
    """pytest-benchmark entry point (quick grid)."""
    from bench_common import run_once

    result = run_once(benchmark, lambda: sweep(QUICK_GRID))
    write_result("hotpath", render(result))
    localized = [c for c in result["cells"] if c["strategy"] in LOCALIZED]
    assert sum(c["messages_batched"] for c in localized) < sum(
        c["messages_unbatched"] for c in localized
    )


if __name__ == "__main__":
    sys.exit(main())
