"""The benchmark's workloads: seeded CLI jobs, their input files and output checks.

Each workload is a fixed list of ``diagcx`` invocations.  The seed changes
the inputs (orders, primes, group choices, permuted complex files) but not
their size class.  Every job carries a checker that recomputes the answer by
a route independent of the code path the job exercises; a checker raises
``CheckError`` when the output is wrong.
"""

import itertools
import json
import os
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable

WORKLOADS = ("forest-words", "complex-closure", "algebra")

# Seconds a job may run before it is killed and counted as failed.
DEFAULT_TIMEOUT_S = 60.0


class CheckError(Exception):
    """The output of a job disagrees with the independently computed answer."""


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    check: Callable[[str], None]
    timeout_s: float = DEFAULT_TIMEOUT_S


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    files: dict  # file name -> bytes, written to the job directory


# -- an independent forest enumeration -----------------------------------------


@lru_cache(maxsize=None)
def planted_forests(n):
    """Parent tuples of all planted forests on [n] (0 marks a root), by brute force.

    Every map [n] -> {0..n} without fixed points is tried and kept when
    following parents from each vertex reaches 0.  This shares no code with
    the Prüfer-word route of the program.
    """
    out = []
    for parent in itertools.product(range(n + 1), repeat=n):
        ok = True
        for v in range(1, n + 1):
            w, steps = v, 0
            while w != 0 and steps <= n:
                w = parent[w - 1]
                steps += 1
            if w != 0:
                ok = False
                break
        if ok:
            out.append(parent)
    return tuple(out)


def forest_count(n):
    """Nonempty planted forests on [n]: (n+1)^(n-1) words minus the empty one."""
    return (n + 1) ** (n - 1) - 1


def nonempty_forests_json(n):
    """The nonempty forests on [n] in the CLI's JSON form (-1 marks a root)."""
    return {
        tuple(p if p else -1 for p in parent)
        for parent in planted_forests(n)
        if any(parent)
    }


def _color_group(multiplicities):
    """Vertex permutations preserving consecutive colour classes, as tuples over 0..n."""
    classes, v = [], 1
    for m in multiplicities:
        classes.append(range(v, v + m))
        v += m
    perms = []
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        sigma = list(range(v))
        for cls, image in zip(classes, images):
            for src, dst in zip(cls, image):
                sigma[src] = dst
        perms.append(tuple(sigma))
    return perms


@lru_cache(maxsize=None)
def orbit_count(n, multiplicities):
    """Orbits of the colour-preserving action on nonempty forests, by Burnside's lemma."""
    perms = _color_group(multiplicities)
    fixed = 0
    for sigma in perms:
        for parent in planted_forests(n):
            if any(parent) and all(
                parent[sigma[v] - 1] == sigma[parent[v - 1]] for v in range(1, n + 1)
            ):
                fixed += 1
    return fixed // len(perms)


def forest_complex_json(n, rng):
    """The forest complex on [n] as complex JSON, with ground set, labels and simplex order permuted.

    The ground set is the ordered pairs (i, j), i != j; a forest contributes
    the pairs (v, w) with w below v, split into one block per edge out of v.
    The label of (i, j) is i.  The permutation keeps the complex isomorphic,
    so every answer about it stays the same.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    ground = len(pairs)
    move = rng.sample(range(ground), ground)
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    index = {pair: move[k] for k, pair in enumerate(pairs)}
    simplices, gamma = [], {}
    for parent in planted_forests(n):
        if not any(parent):
            continue
        children = {v: [c for c in range(1, n + 1) if parent[c - 1] == v] for v in range(n + 1)}

        def below(c):
            out = [c]
            for d in children[c]:
                out.extend(below(d))
            return out

        blocks = sorted(
            sorted(index[(v, w)] for w in below(c))
            for v in range(1, n + 1)
            for c in children[v]
        )
        simplex = sorted(x for block in blocks for x in block)
        simplices.append(simplex)
        gamma[",".join(map(str, simplex))] = blocks
    rng.shuffle(simplices)
    labels = [0] * ground
    for (i, _), x in index.items():
        labels[x] = relabel[i]
    data = {"ground": ground, "simplices": simplices, "gamma": gamma, "labels": labels}
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


# -- checkers ---------------------------------------------------------------


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _lines(out):
    return out.rstrip("\n").split("\n")


def check_count(expected):
    def check(out):
        _require(out == f"{expected}\n", f"count {out.strip()!r}, expected {expected}")

    return check


def check_forest_listing(n):
    def check(out):
        rows = [tuple(int(x) for x in line.split(",")) for line in _lines(out)]
        _require(len(rows) == forest_count(n), f"{len(rows)} forests, expected {forest_count(n)}")
        _require(set(rows) == nonempty_forests_json(n), "listed forests differ from brute force")

    return check


def check_forest_json(n):
    def check(out):
        data = json.loads(out)
        rows = [tuple(row) for row in data["forests"]]
        _require(data["n"] == n, "wrong n")
        _require(len(rows) == forest_count(n), f"{len(rows)} forests, expected {forest_count(n)}")
        _require(set(rows) == nonempty_forests_json(n), "listed forests differ from brute force")

    return check


def check_orbits(n, multiplicities):
    group_order = prod(factorial(m) for m in multiplicities)

    def check(out):
        lines = _lines(out)
        expected = orbit_count(n, multiplicities)
        _require(lines[0] == f"orbits: {expected}", f"{lines[0]!r}, expected {expected} orbits")
        _require(len(lines) == expected + 1, "row count differs from the header")
        valid = nonempty_forests_json(n)
        total, reps = 0, set()
        for line in lines[1:]:
            forest, orbit, aut = line.split(" ")
            size, stab = int(orbit.removeprefix("orbit=")), int(aut.removeprefix("aut="))
            _require(size * stab == group_order, f"orbit-stabilizer fails in {line!r}")
            reps.add(tuple(int(x) for x in forest.split(",")))
            total += size
        _require(reps <= valid and len(reps) == expected, "representatives are not distinct forests")
        _require(total == forest_count(n), f"orbit sizes sum to {total}")

    return check


def check_decomposition(n, multiplicities):
    group_order = prod(factorial(m) for m in multiplicities)
    colors = ",".join(str(c) for c, m in enumerate(multiplicities) for _ in range(m))

    def check(out):
        lines = _lines(out)
        expected = orbit_count(n, multiplicities)
        _require(len(lines) == expected + 2, f"{len(lines) - 2} rows, expected {expected}")
        total = 0
        for line in lines[2:]:
            forest, row_colors, aut, edges, sign, module = line.split(None, 5)
            parents = [int(x) for x in forest.split(",")]
            _require(row_colors == colors, f"colours {row_colors}, expected {colors}")
            _require(int(edges) == sum(1 for p in parents if p != -1), f"edge count in {line!r}")
            _require(sign in ("yes", "no") and module, f"malformed row {line!r}")
            _require(group_order % int(aut) == 0, f"|Aut| does not divide {group_order}")
            total += group_order // int(aut)
        _require(total == forest_count(n), f"orbit sizes sum to {total}")

    return check


def check_complex_verify(n):
    def check(out):
        lines = _lines(out)
        expected = [f"simplices: {forest_count(n)}"] + [f"axiom {a}: pass" for a in (1, 2, 3)]
        _require(lines == expected + ["proper: yes"], f"verify report {lines!r}")

    return check


@lru_cache(maxsize=None)
def bipartite_object_count(n):
    """Objects of the partition category, through bipartite forests (a second route)."""
    from diagcx.bipartite import enumerate_bipartite

    return len(enumerate_bipartite(n))


def check_complex_objects(n):
    def check(out):
        lines = _lines(out)
        expected = bipartite_object_count(n)
        _require(lines[0] == f"objects: {expected}", f"{lines[0]!r}, expected {expected} objects")
        _require(len(set(lines[1:])) == expected, "listed objects are not distinct")

    return check


@lru_cache(maxsize=None)
def forest_series_text(factors, truncation):
    """The series of the forest complex, from the word-count closed form after substitution.

    The closed form carries the constant term of the empty word, which adds
    one Z in degree zero; ``reduced`` removes it.
    """
    from diagcx import series

    def factor_series(text):
        if text == "circle":
            return series.circle_series(truncation)
        return series.cyclic_classifying_series(int(text.removeprefix("Z/")), truncation)

    closed = series.forest_hilbert_closed_form(len(factors))
    assignment = {v: factor_series(factors[v - 1]) for v in closed.variables}
    return series.substitute(closed, assignment).reduced().render()


def check_series_fr(factors, truncation):
    def check(out):
        _require(out == forest_series_text(factors, truncation) + "\n", "series differs from the closed form")

    return check


def wh_zp_counts(n, truncation):
    """Z/p summands per degree of 1 + y/(1+t) ((1 + nt/(1-t))^(n-1) - 1), in closed form.

    t^k/(1-t)^k contributes C(d-1, k-1) to degree d; dividing by (1+t)
    alternates the partial sums.
    """
    powered = [sum(comb(n - 1, k) * n**k * comb(d - 1, k - 1) for k in range(1, d + 1)) for d in range(truncation + 1)]
    return [sum((-1) ** (d - j) * powered[j] for j in range(d + 1)) for d in range(truncation + 1)]


_TERM = re.compile(r"^(?:\(Z/(\d+)\)\^(\d+)|Z/(\d+)) t(?:\^(\d+))?$")


def check_wh_zp(n, p, truncation):
    def check(out):
        terms = out.rstrip("\n").split(" + ")
        _require(terms[0] == "1", f"constant term {terms[0]!r}")
        found = {}
        for term in terms[1:]:
            match = _TERM.match(term)
            _require(match is not None, f"malformed term {term!r}")
            prime = int(match.group(1) or match.group(3))
            _require(prime == p, f"torsion Z/{prime}, expected Z/{p}")
            found[int(match.group(4) or 1)] = int(match.group(2) or 1)
        expected = {d: c for d, c in enumerate(wh_zp_counts(n, truncation)) if d and c}
        _require(found == expected, "summand counts differ from the closed form")

    return check


def check_present_verify(out):
    lines = _lines(out)
    _require(lines[-1] == "all passed: yes", f"last line {lines[-1]!r}")
    _require(len(lines) > 1 and all(line.endswith(": PASS") for line in lines[:-1]), "a relation failed")


def check_nerve_cone(out):
    # The family "all" contains the whole group, so the coset poset has a top
    # element and its order complex is a cone: H_0 = Z and nothing above.
    # (Z/2)^3 has 1, 7, 7, 1 subgroups of order 1, 2, 4, 8, so 8 + 28 + 14 + 1 cosets.
    expected = ["cosets: 51", "H_0: free=1 torsion=-"] + [f"H_{k}: free=0 torsion=-" for k in (1, 2, 3)]
    _require(_lines(out) == expected, f"nerve homology {_lines(out)!r}")


def check_torus(n):
    def check(out):
        expected = " ".join(str(comb(n - 1, k) * n**k) for k in range(n))
        _require(out == expected + "\n", f"betti {out.strip()!r}, expected {expected}")

    return check


def check_cactus(out):
    # Vertex 1 is the root and 2, 3 hang from it with label 1: only row 1
    # reaches other vertices, so every other off-diagonal slot is the basepoint.
    _require(out == "- 1 1\n· - ·\n· · -\n", f"cactus matrix {out!r}")


# A trivial invocation, used as the untimed warm-up and to time start-up.
WARMUP = Job(
    "warmup",
    ("cactus", "coords", "--tree", "0,1,1", "--sizes", "2,2,2", "--labels", "0,1,1"),
    check_cactus,
    30.0,
)


# -- the workloads ------------------------------------------------------------


def forest_words(rng):
    # Prüfer decoding, PlantedForest validation and listing output do the
    # work; complexes, partitions, series and homology do none.
    colors = tuple(rng.sample((3, 2, 1), 3))
    factors = ",".join(rng.sample(("circle", "Z/2", "Z/3"), 3))
    color_arg = ",".join(map(str, colors))
    jobs = (
        Job("enumerate-n7", ("forests", "enumerate", "--n", "7", "--count-only"), check_count(forest_count(7))),
        Job(
            "enumerate-n7-workers2",
            ("forests", "enumerate", "--n", "7", "--count-only", "--workers", "2"),
            check_count(forest_count(7)),
        ),
        Job("list-n6", ("forests", "enumerate", "--n", "6"), check_forest_listing(6)),
        Job("list-n6-json", ("--format", "json", "forests", "enumerate", "--n", "6"), check_forest_json(6)),
        Job("orbits-n6", ("orbits", "--n", "6", "--colors", color_arg), check_orbits(6, colors)),
        Job(
            "decomposition-n6",
            ("decomposition", "--n", "6", "--colors", color_arg, "--factors", factors),
            check_decomposition(6, colors),
        ),
    )
    return jobs, {}


def complex_closure(rng):
    # validate, is_proper and the meet closure do the work; forests builds
    # only n <= 5 complexes.  The permuted copies change the bytes and the
    # iteration orders but not the answers.
    files = {f"complex-n{n}.json": forest_complex_json(n, rng) for n in (4, 5)}
    jobs = (
        Job("verify-n5", ("complex", "verify", "--n", "5"), check_complex_verify(5)),
        Job("objects-n4", ("complex", "objects", "--n", "4"), check_complex_objects(4)),
        Job("verify-file-n4", ("complex", "verify", "--file", "complex-n4.json"), check_complex_verify(4)),
        Job("verify-file-n5", ("complex", "verify", "--file", "complex-n5.json"), check_complex_verify(5)),
        Job("objects-file-n4", ("complex", "objects", "--file", "complex-n4.json"), check_complex_objects(4)),
    )
    return jobs, files


# Groups of order 6; the seed picks three of them and their order.
ORDER_SIX = ("S3", "Z/6", "Z/2xZ/3", "Z/3xZ/2")


def algebra(rng):
    # The only workload that runs the exact-arithmetic layers: Hilbert
    # polynomial and substitution, the relation oracle, rank and Smith form.
    series_factors = tuple(rng.sample(("circle", "circle", "Z/2", "Z/3", "Z/4", "Z/5"), 6))
    prime = rng.choice((2, 3, 5, 7))
    groups = rng.sample(ORDER_SIX, 3)
    dc_groups = rng.sample(groups, 3)
    jobs = (
        Job(
            "series-fr-n6",
            ("series", "fr", "--n", "6", "--factors", ",".join(series_factors)),
            check_series_fr(series_factors, 8),
        ),
        Job(
            "series-wh-zp-n6",
            ("series", "wh-zp", "--n", "6", "--p", str(prime), "--truncate", "12"),
            check_wh_zp(6, prime, 12),
        ),
        Job("present-verify-n3", ("present", "verify", "--n", "3", "--factors", ",".join(groups)), check_present_verify),
        Job(
            "present-verify-dc-n3",
            ("present", "verify", "--n", "3", "--factors", ",".join(dc_groups), "--dc"),
            check_present_verify,
        ),
        Job("nerve-z2-cubed", ("homology", "nerve", "--group", "Z/2xZ/2xZ/2", "--family", "all"), check_nerve_cone),
        Job("torus-n4", ("homology", "torus", "--n", "4"), check_torus(4)),
    )
    return jobs, {}


_BUILDERS = {"forest-words": forest_words, "complex-closure": complex_closure, "algebra": algebra}


def build(name, seed):
    """The workload's jobs and input files for a seed; the same seed gives the same bytes."""
    rng = random.Random(f"{name}:{seed}")
    jobs, files = _BUILDERS[name](rng)
    return Workload(name, jobs, files)


def write_inputs(workload, directory):
    os.makedirs(directory, exist_ok=True)
    for name, data in workload.files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)
