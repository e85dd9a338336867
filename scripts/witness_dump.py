#!/usr/bin/env python3
"""Dump every witness of a fixed set of exact solves, for comparing checkouts.

    python3 scripts/witness_dump.py OUT [BASE]

Run from the root of a checkout: the library comes from ``src/`` and the
benchmark instances from ``perfbench/instances.py``, which are only read.
Every solve gets the same budget of BUDGET search nodes and is written as
its ``as_dict()``, or as ``"refused"`` when it runs over the budget.  The
groups are:

- ``pool`` and ``tail``: every ``exact_hard`` instance, split as the
  benchmark splits it by recorded solve time; pairs and tuples in both
  variants, and the values of the audits;
- ``float``: copies of the pool's pairs and tuples with their distances
  scaled into floats, two scalings, both variants;
- ``tuples``: seeded tuples of 2 to 4 links on 3 to 5 points, with integer
  and with float distances, both variants;
- ``relations``: ``min_distortion`` on at most 16 cells, where it runs
  the witness search, both objectives: its relation, breakdown, least
  value and optimal flag on the even ``bounds`` instances and on seeded
  pairs with integer and with float distances;
- ``keys``: ``canonical_pair_key`` of every pair operand of the
  ``exact_hard`` instances, the sides of the audits' correspondences
  included, and ``family_iso_classes`` of the census family;
- ``totals``: the float totals, on seeded tuples of 3 to 5 levels with
  float distances and on seeded 4-level filtrations in the plane: the
  ``distortion`` of a tuple correspondence, the certificate's
  ``combined`` value and the ``tuple_hausdorff`` of its cross metric,
  and the ``filtration_distance`` interval.  A sum of three or more
  floats that is not taken left to right shows here first;
- ``skewed``: matrices that validate only within the float tolerance, or
  that float rounding leaves asymmetric: float copies of the pool's
  pairs and tuples with every entry, the diagonal included, moved up by
  less than the tolerance, both variants; and seeded pairs on the
  shortest-path metrics of graphs with float weights, both variants,
  with the ``approximation_pipeline`` rows of the left pair (or the
  message of its DisconnectedComplexError).

Writes one JSON object per group to OUT and prints one sha256 per group.
Two checkouts whose search visits other nodes but finds the same first
optimum print the same hashes, except where one of them refuses a solve.
Given BASE, an OUT of an earlier run, it also prints per group how many
solves both answer identically, how many both answer differently, how
many only one side answers and how many both refuse; it exits 1 when
both answer a solve differently.  A ``relations`` record whose least
value and flag agree but whose relation (and so its breakdown) differs
is counted apart and does not fail the comparison: a tie that resolves
elsewhere.  Takes a few minutes.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import metricpairs as mp  # noqa: E402
from metricpairs.scalars import format_scalar  # noqa: E402

import instances as inst  # noqa: E402
from workloads import POOL_MS, load_expected  # noqa: E402

BUDGET = 2 * 10**4
SCALINGS = (0.1, 1 / 3)
TUPLE_SEEDS = 600
FLOAT_VALUES = (0.7, 0.9, 1.3, 2.1)
RELATION_SEEDS = 300
RELATION_GRIDS = ((1, 16), (2, 8), (8, 2), (4, 4), (3, 5), (5, 3), (2, 2), (3, 3), (3, 4))
TOTAL_SEEDS = 300
SKEWS = (0.0, 1e-10, 2e-10)
GRAPH_SEEDS = 200


def solved(solve):
    try:
        return solve()
    except mp.BudgetExceededError:
        return "refused"


def both_variants(out, label, left, right):
    for variant in ("sum", "max"):
        if isinstance(left, mp.MetricTuple):
            result = solved(lambda: mp.exact_tuple_gh(left, right, BUDGET, variant))
        else:
            pick = mp.exact_pair_gh if variant == "sum" else mp.exact_pair_gh_max
            result = solved(lambda: pick(left, right, BUDGET))
        out[f"{label}:{variant}"] = result if result == "refused" else result.as_dict()


def audit_values(corr):
    audit = solved(lambda: mp.geodesicity_audit(corr, budget=BUDGET))
    if audit == "refused":
        return audit
    return [format_scalar(audit.endpoint_value)] + [format_scalar(row.value) for row in audit.rows]


def relations(out, label, left, right):
    for objective in ("distortion", "sup_full"):
        res = mp.min_distortion(left, right, objective)
        br = res.breakdown
        out[f"{label}:{objective}"] = {
            "value": format_scalar(br.sup_full if objective == "sup_full" else br.value),
            "optimal": res.optimal,
            "relation": [list(cell) for cell in res.correspondence.pairs],
            "breakdown": br.as_dict(),
        }


def keys(out, label, pairs):
    for side, pair in zip("lr", pairs):
        (n, flags, rows), perm = mp.canonical_pair_key(pair)
        # lists, not tuples, so a key compares equal to its JSON copy in BASE
        rows = [[format_scalar(v) for v in row] for row in rows]
        out[f"{label}:{side}"] = [n, list(flags), rows, list(perm)]


def tuple_correspondence(rng, left, right):
    """Coverage maps both ways on every level of two tuples."""
    cells = set()
    for ll, lr in zip((range(left.space.n), *left.chain), (range(right.space.n), *right.chain)):
        cells.update((x, rng.choice(lr)) for x in ll)
        cells.update((rng.choice(ll), y) for y in lr)
    return mp.TupleCorrespondence(left, right, cells)


def filtration(rng):
    """Five points in the plane, a triangle of depth 3 and three segments
    of random depth: four levels, none of them empty."""
    points = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(5)]
    simplices = [(0, 1, 2)] + [tuple(rng.sample(range(5), 2)) for _ in range(3)]
    return mp.EmbeddedComplex(points, simplices, [3] + [rng.randrange(4) for _ in range(3)])


def totals(out, seed):
    rng = random.Random(f"witness_dump:totals:{seed}")
    left, right = (mp.random_tuple(rng, 2 + seed % 3, (3, 5), FLOAT_VALUES) for _ in range(2))
    out[f"distortion:{seed}"] = mp.distortion(tuple_correspondence(rng, left, right)).as_dict()
    res = solved(lambda: mp.exact_tuple_gh(left, right, BUDGET))
    if res == "refused":
        out[f"combined:{seed}"] = out[f"tuple_hausdorff:{seed}"] = res
    else:
        out[f"combined:{seed}"] = format_scalar(res.certificate_report()["combined"])
        out[f"tuple_hausdorff:{seed}"] = format_scalar(mp.tuple_hausdorff(res.cross(), left, right))
    _, total = mp.filtration_distance(filtration(rng), filtration(rng), 0.25)
    out[f"filtration:{seed}"] = [total.lower, total.upper]


def tie_only(here, there) -> bool:
    """Whether two ``relations`` records differ only in the relation and
    the breakdown it decides."""
    if not (isinstance(here, dict) and isinstance(there, dict) and "relation" in here):
        return False
    return all(here[key] == there.get(key) for key in ("value", "optimal"))


def with_rows(side, rows):
    """``side`` on the distance matrix ``rows``, subsets kept."""
    space = mp.FiniteMetricSpace.from_matrix(rows)
    if isinstance(side, mp.MetricTuple):
        return mp.MetricTuple(space, side.chain)
    return mp.MetricPair(space, side.subset)


def scaled(side, factor):
    return with_rows(side, [[float(v) * factor for v in row] for row in side.space.dist])


def skewed(rng, side):
    return with_rows(side, [[float(v) + rng.choice(SKEWS) for v in row] for row in side.space.dist])


def float_graph_pair(rng):
    """A pair on the shortest-path metric of a connected graph on 4 to 6
    vertices with float weights."""
    n = rng.randint(4, 6)
    edges = [(rng.randrange(v), v, rng.uniform(0.1, 3.0)) for v in range(1, n)]
    edges += [
        (u, v, rng.uniform(0.1, 3.0))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.4
    ]
    return mp.MetricPair(mp.graph_space(n, edges), mp.random_subset(rng, n))


def graphs(out, seed):
    rng = random.Random(f"witness_dump:graphs:{seed}")
    left, right = float_graph_pair(rng), float_graph_pair(rng)
    both_variants(out, f"graph:{seed}", left, right)
    try:
        out[f"pipeline:{seed}"] = [repr(row) for row in mp.approximation_pipeline(left).rows]
    except mp.DisconnectedComplexError as exc:
        out[f"pipeline:{seed}"] = str(exc)


def compare(groups, base) -> bool:
    """Print how the solves of each group compare with BASE's; True when
    no solve that both answer differs."""
    same = True
    for name, group in groups.items():
        other = base.get(name, {})
        kinds = ("identical", "differ", "differ in a tie only", "answered only here",
                 "answered only in BASE", "refused by both")
        counts = dict.fromkeys(kinds, 0)
        for label in group.keys() | other.keys():
            here, there = group.get(label, "refused"), other.get(label, "refused")
            if here == "refused" and there == "refused":
                counts["refused by both"] += 1
            elif there == "refused":
                counts["answered only here"] += 1
            elif here == "refused":
                counts["answered only in BASE"] += 1
            elif here == there:
                counts["identical"] += 1
            else:
                counts["differ in a tie only" if tie_only(here, there) else "differ"] += 1
        same = same and counts["differ"] == 0
        print(f"{name}: " + ", ".join(f"{n} {what}" for what, n in counts.items()))
    return same


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    base = None
    if len(sys.argv) == 3:
        base = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    groups = {"pool": {}, "tail": {}, "float": {}, "tuples": {}, "relations": {}, "keys": {},
              "totals": {}, "skewed": {}}
    skew_rng = random.Random("witness_dump:skewed")
    recorded = load_expected("exact_hard")["instances"]
    for index, (ms, _) in enumerate(recorded):
        group = groups["pool" if ms is not None and ms <= POOL_MS else "tail"]
        kind, operands = inst.exact_hard_case(index)
        label = f"{kind}:{index}"
        if kind == "audit":
            keys(groups["keys"], label, (operands[0].left, operands[0].right))
            group[label] = audit_values(operands[0])
            continue
        if kind != "tuple":
            keys(groups["keys"], label, operands)
        both_variants(group, label, *operands)
        if group is groups["pool"]:
            for factor in SCALINGS:
                left, right = (scaled(side, factor) for side in operands)
                both_variants(groups["float"], f"{label}:x{factor:.4g}", left, right)
            left, right = (skewed(skew_rng, side) for side in operands)
            both_variants(groups["skewed"], label, left, right)
    for seed in range(TUPLE_SEEDS):
        rng = random.Random(f"witness_dump:{seed}")
        k = 2 + seed % 3
        for name, values in (("int", (1, 2, 3)), ("float", FLOAT_VALUES)):
            left, right = (mp.random_tuple(rng, k, (3, 5), values) for _ in range(2))
            both_variants(groups["tuples"], f"{name}:{seed}", left, right)
    for index in range(0, len(load_expected("bounds")["instances"]), 2):
        relations(groups["relations"], f"bounds:{index}", *inst.bounds_case(index))
    for seed in range(RELATION_SEEDS):
        rng = random.Random(f"witness_dump:relations:{seed}")
        nx, ny = RELATION_GRIDS[seed % len(RELATION_GRIDS)]
        for name, values in (("int", (1, 2, 3)), ("float", FLOAT_VALUES)):
            left, right = (mp.random_pair(rng, (n, n), values) for n in (nx, ny))
            relations(groups["relations"], f"{name}:{seed}", left, right)
    groups["keys"]["family"] = mp.family_iso_classes(mp.enumerate_family())
    for seed in range(TOTAL_SEEDS):
        totals(groups["totals"], seed)
    for seed in range(GRAPH_SEEDS):
        graphs(groups["skewed"], seed)
    Path(sys.argv[1]).write_text(json.dumps(groups, indent=1) + "\n", encoding="utf-8")
    for name, group in groups.items():
        refused = sum(1 for result in group.values() if result == "refused")
        digest = hashlib.sha256(json.dumps(group).encode()).hexdigest()
        print(f"{name}: {len(group)} entries, {refused} refused, sha256 {digest}")
    if base is not None and not compare(groups, base):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
