"""Seeded inputs for the benchmark's three workloads.

A run is a sequence of rounds; round ``i`` of workload ``w`` under seed
``s`` draws its inputs from ``random.Random(f"{w}/{s}/{i}")``, so the same
seed always gives the same task lists.  This module imports nothing from
the program: it only decides what the program will be asked.

``tiny=True`` shrinks every size so that a smoke pass of a workload takes
about a second; the measured runs never use it.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-operators", "fock-levels", "cli-mix")

# Generic parameters (P_k((1/lam - 1)**-2) != 0 far beyond the widths used).
EXACT_LAMS = ("1/3", "1/4", "1/5", "2/9", "3/13")
# Family iii with n = 4, r = 1 has one free orbit and needs lam <= 1/4.
N4_LAMS = ("1/4", "1/5", "1/6", "2/9", "3/13")
# With n = 5 the families ii (r = 1) and iii (r = 2) are feasible only at 1/5.
N5_LAM = "1/5"

EXACT_TASKS = ("report", "qk", "uniqueness", "presentation", "phi", "product")

# Expressions that vanish exactly at width 2 for every lam.
ZERO_EXPRESSIONS = ("t1*t1 - t1", "l1*l1 - l1*l1*l1", "t1*l1 - t1*l1'")
# Expressions that vanish through the operators of the default pair
# (family iii, n = 4, r = 1, lam = 1/4).
ZERO_REP_EXPRESSIONS = ("t1*l1*t1 - 1/4*t1", "r1*l1 - p1")

PAIR_FILE = "{tmp}/pair.json"


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def cycle_choice(values, key: str, seed: int, round_index: int):
    """Round ``i`` takes item ``i`` of a seeded shuffle of ``values``, so the
    rounds of one run use distinct values before any repeats."""
    order = list(values)
    random.Random(f"{key}/{seed}").shuffle(order)
    return order[round_index % len(order)]


def plan_round(workload: str, seed: int, round_index: int, tiny: bool = False) -> dict:
    """The inputs of one round, as plain JSON-serialisable data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = rng_for(workload, seed, round_index)
    return _PLANNERS[workload](rng, seed, round_index, tiny)


def _exact_tower(rng, seed, round_index, tiny):
    order = list(EXACT_TASKS)
    rng.shuffle(order)
    plan = {
        "lam": cycle_choice(EXACT_LAMS, "exact-lam", seed, round_index),
        "kmax": 5,
        "report_ks": [2, 3, 4],
        "qk_ks": [1, 2, 3],
        "uniqueness_ks": [1, 2, 3],
        "presentation_ks": [2, 3, 4, 5, 6],
        "phi_mmax": 60,
        "product_k": 5,
        "order": order,
    }
    if tiny:
        plan.update(kmax=3, report_ks=[2], qk_ks=[1], uniqueness_ks=[1],
                    presentation_ks=[2], phi_mmax=5, product_k=2)
    return plan


def _pair(family, n, r, lam):
    return {"family": family, "n": n, "r": r, "lam": lam}


def _fock_levels(rng, seed, round_index, tiny):
    pairs = [
        dict(_pair("iii", 4, 1, cycle_choice(N4_LAMS, "n4-lam", seed, round_index)),
             levels=6),
        dict(_pair("ii", 5, 1, N5_LAM), levels=4),
        dict(_pair("iii", 5, 2, N5_LAM), levels=4),
    ]
    if tiny:
        for p in pairs:
            p["levels"] = 2
    rng.shuffle(pairs)
    return {"pairs": pairs}


def _exact_operators(rng, seed, round_index, tiny):
    n3 = rng.choice([_pair("i", 3, 0, "1/3"), _pair("i", 3, 0, "1/4"),
                     _pair("iii", 3, 1, "1/3")])
    n4 = _pair("iii", 4, 1, cycle_choice(N4_LAMS, "n4-lam", seed, round_index))
    # Any two consecutive rounds cover both operator families at n = 5.
    r5 = cycle_choice((1, 2), "n5-r", seed, round_index)
    n5 = _pair("ii" if r5 == 1 else "iii", 5, r5, N5_LAM)
    relations = [dict(n3, k=5), dict(n4, k=4), dict(n5, k=4)]
    span = {"pair": n4, "k": 3, "expected": 51}
    cross = {"pair": n4, "kmax": 4}
    if tiny:
        relations = [dict(p, k=2) for p in relations]
        span = {"pair": n4, "k": 2, "expected": 9}
        cross = {"pair": n4, "kmax": 2}
    rng.shuffle(relations)
    order = ["exact", "relations", "span", "cross"]
    rng.shuffle(order)
    return {"exact": _exact_tower(rng, seed, round_index, tiny), "relations": relations,
            "span": span, "cross": cross, "order": order}


def _cli_mix(rng, seed, round_index, tiny):
    lam = rng.choice(EXACT_LAMS)
    lam4 = rng.choice(N4_LAMS)
    units = [
        [["dims", "--n", str(rng.randint(3, 6)), "--kmax", str(rng.randint(4, 6))]],
        [["basis", "--k", str(rng.randint(1, 3)), "--format", "json"]],
        [["presentation", "--k", str(rng.randint(2, 4)), "--lambda", lam]],
        [["jw", "--k", str(rng.randint(2, 4)), "--lambda", lam]],
        [
            ["pair", "make", "--family", "iii", "--n", "4", "--r", "1",
             "--lambda", lam4, "--out", PAIR_FILE],
            ["pair", "validate", "--in", PAIR_FILE],
            ["rep", "check", "--in", PAIR_FILE, "--k", str(rng.randint(2, 3))],
        ],
        [["rep", "faithful", "--family", "i", "--n", "3",
          "--lambda", rng.choice(["1/3", "1/4"]), "--k", "2"]],
        [["fock", "build", "--levels", str(rng.randint(4, 5))]],
        [["fock", "toeplitz", "--levels", str(rng.randint(4, 5))]],
        [["fock", "matrix-units", "--kmax", "3"]],
        [["fock", "reverse", "--k", str(rng.randint(2, 3)), "--family", "i",
          "--n", "3", "--lambda", "1/3"]],
        [["fock", "ideal"]],
        [["fock", "cp-asymptotics", "--levels", "5", "--mmax", "4"]],
        [["eval", rng.choice(ZERO_EXPRESSIONS), "--k", "2", "--lambda", lam]],
        [["eval", rng.choice(ZERO_REP_EXPRESSIONS), "--k", "2", "--rep"]],
        [["check-all"]],
    ]
    if tiny:
        units = [u for u in units if u[0][0] in ("dims", "basis", "pair", "eval")]
    rng.shuffle(units)
    return {"commands": [argv for unit in units for argv in unit]}


_PLANNERS = {
    "exact-operators": _exact_operators,
    "fock-levels": _fock_levels,
    "cli-mix": _cli_mix,
}
