#!/usr/bin/env python3
"""Print every experiment's paper-style series table.

Equivalent to ``python -m repro.bench.runner``.  Individual figures::

    python benchmarks/run_all.py fig7 fig8 fig9 cost space abl1 abl2 e2e batch rebuild coldstart concurrency maint

``--smoke`` runs every selected experiment (default: all) at a reduced
scale — a fast sanity pass for CI, not a measurement.
"""

import sys

from repro.bench.runner import (
    main,
    print_ablation_balancing,
    print_ablation_indexes,
    print_ablation_multiclause,
    print_ablation_selectivity,
    print_batch,
    print_coldstart,
    print_concurrency,
    print_cost_model,
    print_e2e,
    print_fig7,
    print_fig8,
    print_fig9,
    print_maintenance,
    print_rebuild,
    print_space,
    run_ablation_balancing,
    run_ablation_indexes,
    run_ablation_multiclause,
    run_ablation_selectivity,
    run_batch,
    run_coldstart,
    run_concurrency,
    run_e2e,
    run_fig7,
    run_fig8,
    run_fig9,
    run_maintenance,
    run_rebuild,
    run_space,
)

RUNNERS = {
    "fig7": print_fig7,
    "fig8": print_fig8,
    "fig9": print_fig9,
    "cost": print_cost_model,
    "space": print_space,
    "abl1": print_ablation_indexes,
    "abl2": print_ablation_balancing,
    "abl3": print_ablation_selectivity,
    "abl4": print_ablation_multiclause,
    "e2e": print_e2e,
    "batch": print_batch,
    "rebuild": print_rebuild,
    "coldstart": print_coldstart,
    "concurrency": print_concurrency,
    "maint": print_maintenance,
}

#: Reduced-scale arguments per experiment for ``--smoke``.  Each entry
#: is ``(run_fn, kwargs, print_fn)``; experiments without an entry run
#: their print function with defaults (already fast).
SMOKE = {
    "fig7": (run_fig7, {"ns": (50, 100)}, print_fig7),
    "fig8": (run_fig8, {"ns": (50, 100)}, print_fig8),
    "fig9": (run_fig9, {"ns": (10, 50)}, print_fig9),
    "space": (run_space, {"ns": (50, 100)}, print_space),
    "abl1": (run_ablation_indexes, {"n": 100, "queries": 100}, print_ablation_indexes),
    "abl2": (run_ablation_balancing, {"n": 200}, print_ablation_balancing),
    "abl3": (run_ablation_selectivity, {"predicates": 100, "tuples": 50},
             print_ablation_selectivity),
    "abl4": (run_ablation_multiclause, {"predicates": 100, "tuples": 50},
             print_ablation_multiclause),
    "e2e": (run_e2e, {"predicate_counts": (50, 100), "tuples": 50}, print_e2e),
    "batch": (run_batch, {"predicates": 500, "batch_size": 100, "repeats": 1},
              print_batch),
    "rebuild": (run_rebuild, {"intervals": 300, "repeats": 1}, print_rebuild),
    "coldstart": (run_coldstart, {"predicates": 300, "probes": 20, "repeats": 1},
                  print_coldstart),
    "concurrency": (run_concurrency,
                    {"predicates": 300, "distinct_values": 100,
                     "batch_size": 50, "rounds": 4, "repeats": 1},
                    print_concurrency),
    "maint": (run_maintenance,
              {"predicates": 300, "distinct_values": 100, "batch_size": 50,
               "rounds": 6, "repeats": 1, "checkpoint_every": 2},
              print_maintenance),
}


def run_smoke(names):
    for name in names:
        entry = SMOKE.get(name)
        if entry is None:
            RUNNERS[name]()
            continue
        run_fn, kwargs, print_fn = entry
        print_fn(run_fn(**kwargs))


if __name__ == "__main__":
    arguments = sys.argv[1:]
    smoke = "--smoke" in arguments
    selected = [argument for argument in arguments if argument != "--smoke"]
    unknown = [name for name in selected if name not in RUNNERS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(RUNNERS)}"
        )
    if smoke:
        run_smoke(selected or list(RUNNERS))
    elif not selected:
        main()
    else:
        for name in selected:
            RUNNERS[name]()
