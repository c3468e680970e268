"""Ablation: quality of adaptive (model-driven) strategy selection.

Over a batch of generated federations, compare the AUTO strategy's
prediction against ground truth (run all three strategies on the DES and
observe the actual best).  The regret — extra time paid when AUTO picks
a non-optimal strategy — must stay small: the model need not rank
near-ties correctly, only avoid expensive mistakes.
"""

from bench_common import make_workload, run_once, write_result

from repro.bench.reporting import format_table
from repro.core.engine import GlobalQueryEngine
from repro.core.strategies import AdaptiveStrategy

SEEDS = tuple(range(81, 91))


def run_batch():
    rows = []
    for seed in SEEDS:
        workload = make_workload(seed=seed, scale=0.04)
        engine = GlobalQueryEngine(workload.system)
        actual = {
            name: engine.execute(workload.query, name).response_time
            for name in ("CA", "BL", "PL")
        }
        chooser = AdaptiveStrategy(objective="response")
        engine.execute(workload.query, chooser)
        rows.append((seed, chooser.last_choice, actual))
    return rows


def test_adaptive_selection_quality(benchmark):
    runs = run_once(benchmark, run_batch)

    table_rows = []
    hits = 0
    total_regret = 0.0
    total_best = 0.0
    for seed, choice, actual in runs:
        best = min(actual, key=actual.get)
        regret = actual[choice] - actual[best]
        hits += choice == best
        total_regret += regret
        total_best += actual[best]
        table_rows.append(
            [str(seed), choice, best,
             f"{actual[choice]:.3f}", f"{actual[best]:.3f}",
             f"{regret:.3f}"]
        )
    text = format_table(
        ["seed", "AUTO chose", "actual best", "chosen resp(s)",
         "best resp(s)", "regret(s)"],
        table_rows,
    )
    write_result("ablation_adaptive", text)

    # The model must rank correctly on a majority...
    assert hits >= len(runs) // 2
    # ...and, more importantly, cheap mistakes only: average regret under
    # 15% of the average optimum.
    assert total_regret <= 0.15 * total_best
