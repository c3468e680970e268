"""Hot-path bench: batched check dispatch, cache warmth, columnar kernels.

Sweeps generated federations over an (N_db x extent scale) grid and, per
strategy, runs each query

* **batched** (the default wire protocol: one check request/reply pair
  per ``(src, dst)`` link),
* **batched again** (same engine — measures mapping-index/decomposition
  cache hits on a repeated query),
* **unbatched** (``batch_checks=False``: the historical
  one-message-pair-per-request protocol), and
* **row path** (on the federation's row-path view,
  :func:`repro.difftest.rowpath.row_path_view`: per-object evaluation
  instead of the columnar extent kernels),

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
  ``local_eval`` section records the wall-clock for every cell);
* CA's step CA_G3 on the columnar kernel reproduces its per-object
  reference (:func:`repro.difftest.rowpath.evaluate_global_extent_rows`)
  answer and meter on the same materialized extent, and is at least 2x
  faster at the largest grid cell (the ``global_eval`` section);
* CA's step CA_G2 merging the sites' column slices reproduces its
  per-object reference (:func:`repro.difftest.rowpath.materialize_rows`)
  extent and ``IntegrationStats`` on the same exports, and is at least
  1.3x faster at the largest grid cell (the ``outerjoin`` section).

Runs standalone; CI runs the quick grid and diffs against the committed
baseline::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick \
        --json BENCH_hotpath.json --check benchmarks/results/BENCH_hotpath.json

The JSON output is fully determined by the grid: no timestamps and no
dict-order dependence.  ``wall_s`` fields and the ``local_eval``,
``global_eval`` and ``outerjoin`` timing sections are informational
only and are ignored by ``--check``.
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
from repro.core.predicates import EvalMeter
from repro.core.strategies.centralized import (
    evaluate_global_extent,
    export_site,
    materialize_query,
)
from repro.difftest.rowpath import (
    RowPathDatabase,
    evaluate_global_extent_rows,
    export_rows,
    materialize_rows,
    row_path_view,
)
from repro.integration.outerjoin import IntegrationStats, materialize

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

#: Minimum warm CA_G3 speedup (kernel vs per-object reference) the
#: sweep's largest grid cell must reach.
MIN_GLOBAL_SPEEDUP = 2.0

#: Minimum CA_G2 speedup (column merge vs per-object reference) the
#: sweep's largest grid cell must reach.
MIN_OUTERJOIN_SPEEDUP = 1.3


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
    row_path = GlobalQueryEngine(row_path_view(workload.system)).execute(
        workload.query, strategy
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
    row_pairs = [(RowPathDatabase.view(db), lq) for db, lq in pairs]
    for db, lq in pairs + row_pairs:
        db.execute_local(lq)
    start = time.perf_counter()
    for _ in range(reps):
        for db, lq in pairs:
            db.execute_local(lq)
    columnar_s = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        for db, lq in row_pairs:
            db.execute_local(lq)
    row_s = (time.perf_counter() - start) / reps
    return {
        "workload": f"ndb{n_db}-scale{scale:g}",
        "n_db": n_db,
        "scale": scale,
        "columnar_wall_s": round(columnar_s, 6),
        "row_wall_s": round(row_s, 6),
        "speedup": round(row_s / columnar_s, 2),
    }


def measure_global_eval(n_db: int, scale: float, reps: int = 5) -> dict:
    """Warm CA_G3 wall-clock: the columnar kernel vs its reference.

    Materializes the workload query's global extent once (CA's steps
    CA_C1 and CA_G2, fault-free), checks that the kernel and the
    per-object reference agree on it (answer and meter), then times
    each on that same extent, best of *reps* after one warm-up call.
    """
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    query = workload.query
    extent = materialize_query(workload.system, query)
    label = f"ndb{n_db}-scale{scale:g}"
    timings = {}
    outputs = {}
    for name, evaluate in (
        ("kernel", evaluate_global_extent),
        ("row", evaluate_global_extent_rows),
    ):
        meter = EvalMeter()
        outputs[name] = (evaluate(query, extent, meter).to_dicts(), meter)
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            evaluate(query, extent)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    if outputs["kernel"] != outputs["row"]:
        raise AssertionError(
            f"{label}: CA_G3 kernel and per-object reference differ"
        )
    return {
        "workload": label,
        "n_db": n_db,
        "scale": scale,
        "kernel_wall_s": round(timings["kernel"], 6),
        "row_wall_s": round(timings["row"], 6),
        "speedup": round(timings["row"] / timings["kernel"], 2),
    }


def measure_outerjoin(n_db: int, scale: float, reps: int = 5) -> dict:
    """Warm CA_G2 wall-clock: the column merge vs its reference.

    Ships the workload query's exports once per path (fault-free
    CA_C1: each site's column slices, and per-object projected copies
    of the same extents), checks that both merges build the same
    extent and ``IntegrationStats``, then times each on its own
    exports, best of *reps* after one warm-up call.
    """
    workload = make_workload(WORKLOAD_SEEDS[n_db], scale, n_dbs=n_db)
    system, query = workload.system, workload.query
    rows = export_rows(system, query)
    involved = tuple(rows)
    slices = {cls: {} for cls in involved}
    for db_name in system.databases:
        for global_class, _, piece in export_site(
            system, db_name, query, involved
        ):
            slices[global_class][db_name] = piece
    label = f"ndb{n_db}-scale{scale:g}"
    timings = {}
    outputs = {}
    for name, merge, exports in (
        ("kernel", materialize, slices),
        ("row", materialize_rows, rows),
    ):
        args = (involved, system.global_schema, system.catalog, exports)
        stats = IntegrationStats()
        extent = merge(*args, stats)
        outputs[name] = (
            [(cls, list(extent.extent(cls).items()))
             for cls in extent.classes()],
            stats,
        )
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            merge(*args)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    if outputs["kernel"] != outputs["row"]:
        raise AssertionError(
            f"{label}: CA_G2 column merge and per-object reference differ"
        )
    return {
        "workload": label,
        "n_db": n_db,
        "scale": scale,
        "kernel_wall_s": round(timings["kernel"], 6),
        "row_wall_s": round(timings["row"], 6),
        "speedup": round(timings["row"] / timings["kernel"], 2),
    }


def sweep(grid) -> dict:
    cells = []
    for n_db, scale in grid:
        for strategy in STRATEGIES:
            cells.append(run_cell(n_db, scale, strategy))
    local_eval = [measure_local_eval(n_db, scale) for n_db, scale in grid]
    global_eval = [measure_global_eval(n_db, scale) for n_db, scale in grid]
    outerjoin = [measure_outerjoin(n_db, scale) for n_db, scale in grid]
    _assert_contract(cells, local_eval, global_eval, outerjoin)
    return {
        "schema": SCHEMA,
        "seeds": {str(k): v for k, v in sorted(WORKLOAD_SEEDS.items())},
        "grid": [{"n_db": n, "scale": s} for n, s in grid],
        "cells": cells,
        "local_eval": local_eval,
        "global_eval": global_eval,
        "outerjoin": outerjoin,
    }


def _assert_contract(cells, local_eval, global_eval, outerjoin) -> None:
    """Aggregate guarantees the per-cell checks cannot express."""
    for timings, floor, what in (
        (local_eval, MIN_COLUMNAR_SPEEDUP, "columnar local eval"),
        (global_eval, MIN_GLOBAL_SPEEDUP, "CA_G3 kernel"),
        (outerjoin, MIN_OUTERJOIN_SPEEDUP, "CA_G2 column merge"),
    ):
        largest = max(timings, key=lambda e: (e["n_db"], e["scale"]))
        if largest["speedup"] < floor:
            raise AssertionError(
                f"{largest['workload']}: {what} only "
                f"{largest['speedup']}x faster than the row path "
                f"(contract: >= {floor}x at the largest cell)"
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
    kernel_headers = ["workload", "kernel (s)", "row path (s)", "speedup"]

    def kernel_rows(section):
        return [
            [e["workload"], f"{e['kernel_wall_s']:.4f}",
             f"{e['row_wall_s']:.4f}", f"{e['speedup']:.1f}x"]
            for e in result[section]
        ]

    return (
        text
        + "\n\nwarm local evaluation (columnar kernels vs row path):\n"
        + format_table(eval_headers, eval_rows)
        + "\n\nwarm CA_G3 evaluation (columnar kernel vs row path):\n"
        + format_table(kernel_headers, kernel_rows("global_eval"))
        + "\n\nwarm CA_G2 outerjoin (column merge vs row path):\n"
        + format_table(kernel_headers, kernel_rows("outerjoin"))
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
