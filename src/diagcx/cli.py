"""Command-line interface.

Subcommands cover enumeration, complex verification, series, group
presentations, orbit and decomposition reports, homology checks and
cactus coordinates.  Output is byte-for-byte deterministic for a given
invocation; JSON mode emits a single sorted-keys document.

Exit codes: 0 success, 2 usage error, 3 resource guard exceeded.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

# Each command imports the modules it uses, so a command loads and compiles only those.
from . import BUILD_CAP

GUARD_EXIT = 3
USAGE_EXIT = 2

# Limits on n; a refusal states the Prüfer words or simplices n predicts.
ENUM_GUARD = 8
CLOSURE_GUARD = 4
TORUS_GUARD = 5  # sparse Smith forms: n=5 takes 0.4 s, n=6 8.7 s and 100 MiB
ORBIT_GUARD = 6
# Limits on predicted sizes rather than on n.
GROUP_ORDER_GUARD = 24  # subgroup enumeration takes 0.01 s at order 24 (S4), 0.2 s at 48 ((Z/2)^3xZ/6)
VERIFY_GUARD = 1_000_000  # letters x partial conjugations composed; 0.2-0.3 s near the limit
NERVE_FACE_GUARD = 20_000  # sparse Smith forms: 14671 faces take 0.5 s, 32093 take 1.0 s and 34 MiB
DIGITS_GUARD = 4300  # Python's default limit on int-to-str conversion
DEGREE_GUARD = 1000  # degrees computed for --truncate and --max-degree
PRODUCT_GUARD = 3_000_000  # coefficient pairs in series products; near it circles or Z/2 take 0.3-1.4 s, Z/30030 1.7-2.8 s
SUMMAND_GUARD = 10_000_000  # strings in a JSON torsion list; 6M took 500 MiB
CACTUS_CELL_GUARD = 4_000_000  # coordinate matrix cells; a 2000-vertex path takes 0.8 s as text, 1.0 s and 110 MiB as JSON

SEPARATORS = (",", ":")


class GuardError(Exception):
    pass


def _check_guard(value, limit, unsafe, what, show=str):
    if value > limit and not unsafe:
        raise GuardError(
            f"{what} is {show(value)}, above the limit {show(limit)}; "
            "pass --unsafe-large to override"
        )


def _check_n_guard(args, limit, what, simplices=False):
    """A guard on n that states the work it predicts.

    That is (n+1)^(n-1) Prüfer words, or with ``simplices`` the
    (n+1)^(n-1) - 1 nonempty forest posets of the forest complex.
    """
    unit = "simplices" if simplices else "Prufer words"

    def show(n):
        if n > 30:  # (n+1)^(n-1) - 1 > 10^(n-1); do not write out a huge power
            return f"{n} (more than 10^{n - 1} {unit})"
        words = (n + 1) ** (n - 1)
        return f"{n} ({words - 1 if simplices else words} {unit})"

    _check_guard(args.n, limit, args.unsafe_large, f"{what} n", show)


def _check_digits(args, base, power):
    """Refuse to print base^(n-1) past DIGITS_GUARD digits, counted in integers so that any n works."""
    digits = (args.n - 1) * math.floor(math.log10(base) * 10**6) // 10**6 + 1
    _check_guard(digits, DIGITS_GUARD, args.unsafe_large, f"digits of {power} at n={args.n}")


def _series_factor(text, truncation):
    from . import series

    text = text.strip()
    if text in ("circle", "Z"):
        return series.circle_series(truncation)
    if text.startswith("Z/"):
        return series.cyclic_classifying_series(int(text[2:].removesuffix("Z")), truncation)
    raise ValueError(f"unknown series factor {text!r}; use circle or Z/m")


def _parse_int_list(text):
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parent_letters(n):
    """The text of each parent in a forest's JSON list, indexed by parent: "-1" for a root, then 1..n."""
    return ["-1"] + [str(v) for v in range(1, n + 1)]


def _json_list(head, items, tail):
    """The pieces of ``head``, the JSON list of the encoded ``items`` and ``tail``, one item to a piece."""
    items = iter(items)
    yield head + "[" + next(items, "")
    for item in items:
        yield "," + item
    yield "]" + tail


def _open_output(path):
    """Open a file the CLI writes; a relative ``path`` is taken in DIAGCX_OUTPUT_DIR when that is set."""
    return open(os.path.join(os.environ.get("DIAGCX_OUTPUT_DIR", ""), path), "w", encoding="utf-8")


def _emit(args, text, payload):
    """Write the lines text() returns, or under --format json what payload() returns.

    text() returns a string or an iterable of lines; payload() returns a dict,
    written as a sorted-keys JSON document, or an iterable of the document's
    pieces.  Each line or piece goes to the output's own buffer as it is built,
    so a listing's memory does not follow its length.  text() or payload() and
    the first line or piece run before the output is opened, so a check in them
    refuses with nothing written.  A newline ends the output.
    """
    out = payload() if args.format == "json" else text()
    if isinstance(out, dict):
        out = json.dumps(out, sort_keys=True, separators=SEPARATORS)
    pieces = iter((out,) if isinstance(out, str) else out)
    first = next(pieces, "")
    sep = "" if args.format == "json" else "\n"
    with _open_output(args.output) if args.output else contextlib.nullcontext(sys.stdout) as handle:
        # under PYTHONUNBUFFERED stdout writes through, a system call per line, until its buffer is turned on
        write_through = getattr(handle, "write_through", False)
        if write_through:
            handle.reconfigure(write_through=False)
        try:
            handle.write(first)
            for piece in pieces:
                handle.write(sep + piece)
            handle.write("\n")
        finally:
            if write_through:
                handle.reconfigure(write_through=True)  # which flushes the buffer


# -- command implementations -------------------------------------------------


def cmd_forests_enumerate(args):
    if args.count_only:  # one forest per Prüfer word; the first word is the empty forest
        _check_digits(args, args.n + 1, "(n+1)^(n-1)")
        count = (args.n + 1) ** (args.n - 1) - (not args.include_empty)
        _emit(args, lambda: str(count), lambda: {"n": args.n, "count": count})
        return
    _check_n_guard(args, ENUM_GUARD, "forest enumeration")
    from .forests import enumerate_forests

    items = enumerate_forests(args.n, include_empty=args.include_empty)
    letters = _parent_letters(args.n)
    lines = (",".join([letters[p] for p in f.parent]) for f in items)
    _emit(args, lambda: lines, lambda: _json_list('{"forests":', (f"[{line}]" for line in lines), f',"n":{args.n}}}'))


def _load_complex(args, limit, what):
    """The complex of --file, with as many simplices as Γ(F_limit) at most, or of --n."""
    if args.file is not None:
        from .complexes import DiagonalComplex

        with open(args.file, encoding="utf-8") as handle:
            complex_ = DiagonalComplex.from_json(handle.read())
        simplices = (limit + 1) ** (limit - 1) - 1
        _check_guard(len(complex_.gamma), simplices, args.unsafe_large, f"simplex count of {args.file}")
        return complex_
    from .forests import build_gamma_Fn

    _check_n_guard(args, limit, what, simplices=True)
    return build_gamma_Fn(args.n)


def cmd_complex_verify(args):
    complex_ = _load_complex(args, BUILD_CAP, "complex construction")
    report = complex_.validate()
    proper = complex_.is_proper() if report.ok else False
    lines = [f"simplices: {len(complex_.gamma)}"]
    for check in report.checks:
        status = "pass" if check.passed else f"FAIL ({check.witness})"
        lines.append(f"axiom {check.axiom}: {status}")
    lines.append(f"proper: {'yes' if proper else 'no'}")
    _emit(args, lambda: lines, lambda: {
        "simplices": len(complex_.gamma),
        "axioms": [
            {"axiom": c.axiom, "passed": c.passed, "witness": c.witness}
            for c in report.checks
        ],
        "proper": proper,
    })


def cmd_complex_objects(args):
    complex_ = _load_complex(args, CLOSURE_GUARD, "meet closure")
    if complex_.labels is None:
        raise ValueError("complex file carries no labels")
    objects = complex_.category_objects()

    def show(part):
        if args.file is not None:
            return str(part)
        from .forests import blocks_as_pairs

        blocks = blocks_as_pairs(part.blocks, args.n)
        return " | ".join("{" + ",".join(f"({i},{j})" for i, j in block) + "}" for block in blocks)

    _emit(
        args,
        lambda: itertools.chain([f"objects: {len(objects)}"], map(show, objects)),
        lambda: {"count": len(objects), "objects": [part.to_json() for part in objects]},
    )


def _check_products(args, products):
    # each product of two series pairs up to (truncate+1)^2 coefficients
    pairs = products * (args.truncate + 1) ** 2
    _check_guard(pairs, PRODUCT_GUARD, args.unsafe_large, "coefficient pairs in series products")


def _check_summands(args, *parts):
    from .series import FREE

    # to_json lists one string per torsion summand
    summands = sum(sum(counts) for part in parts for kind, counts in part.terms if kind != FREE)
    _check_guard(summands, SUMMAND_GUARD, args.unsafe_large, "torsion summands listed in JSON")


def _series_document(args, result):
    _check_summands(args, result)
    return {"series": result.to_json()}


def cmd_series_fr(args):
    from . import series

    factors = [f.strip() for f in args.factors.split(",")]
    if len(factors) != args.n:
        raise ValueError("need one factor per vertex")
    # the wedge series to the power n-1, in n-2 products
    _check_products(args, max(args.n - 2, 0))
    if args.n > BUILD_CAP:  # the n at which Γ(F_n) can be built to check the answer
        raise ValueError(f"n must be between 1 and {BUILD_CAP}")
    result = series.free_product_series([_series_factor(f, args.truncate) for f in factors]).pow(args.n - 1)
    _emit(args, result.render, lambda: _series_document(args, result))


def cmd_series_wh_free(args):
    from . import series

    _check_digits(args, args.n, "n^(n-1)")  # the largest coefficient
    coeffs, chi = series.series_Wh_free(args.n)
    free = series.GradedModuleSeries.of(args.n - 1, map(series.AbelianGroup.free, coeffs))
    _emit(args, lambda: f"{free.render()}, chi = {chi}", lambda: {"coefficients": coeffs, "chi": chi})


def cmd_series_wh_zp(args):
    from . import series

    # every count is below n^(2 min(d, n-1)) 2^(d-1) in degree d
    n, d = args.n, args.truncate
    digits = int(2 * min(d, n - 1) * math.log10(n) + d * math.log10(2)) + 1
    _check_guard(digits, DIGITS_GUARD, args.unsafe_large, "digits of the summand counts")
    result = series.series_Wh_Zp(args.n, args.p, args.truncate)
    _emit(args, result.render, lambda: _series_document(args, result))


def _group(args, text):
    from .groups import parse_descriptor

    order, build = parse_descriptor(text)
    _check_guard(order, GROUP_ORDER_GUARD, args.unsafe_large, f"order of group {text.strip()}")
    return build()


def _parse_factor_groups(args, count):
    parts = [p.strip() for p in args.factors.split(",")]
    if len(parts) != count:
        raise ValueError(f"need exactly {count} factor groups")
    return [_group(args, p) for p in parts]


def cmd_present_fr(args):
    from . import present

    groups = _parse_factor_groups(args, args.n)
    pres = present.fr_presentation(args.n, groups)
    header = [f"generators: {len(pres.generators)}", f"relations: {len(pres.relations)}"]
    _emit(args, lambda: header + pres.generator_names(), pres.to_json)


def cmd_present_export(args):
    from . import present

    groups = _parse_factor_groups(args, args.n)
    pres = present.fr_presentation(args.n, groups)
    text = present.export_gap(pres)
    _emit(args, text.splitlines, lambda: {"gap": text})


def cmd_present_verify(args):
    from . import present

    groups = _parse_factor_groups(args, args.n)
    if args.dc:
        pres = present.forest_dc_presentation(args.n, groups)
    else:
        pres = present.fr_presentation(args.n, groups)
    letters = sum(group.order - 1 for group in groups)
    conjugations = sum(1 for rel in pres.relations for _ in present.partial_conjugations(groups, rel))
    if args.literal_rel3:
        conjugations += present.literal_partial_conjugation_count(groups)
    _check_guard(
        letters * conjugations,
        VERIFY_GUARD,
        args.unsafe_large,
        f"relation check work ({letters} letters x {conjugations} partial conjugations)",
    )
    report = present.verify_relations(pres, groups)
    literal = present.literal_pairwise_commutator_checks(groups) if args.literal_rel3 else []

    def text():
        for check in report.checks:
            status = "PASS" if check.passed else f"FAIL witness={check.witness}"
            yield f"{check.relation.kind} [{check.relation.source}]: {status}"
        yield f"all passed: {'yes' if report.all_passed else 'no'}"
        if args.literal_rel3:
            yield "literal pairwise commutators (no side conditions):"
        for check in literal:
            status = "PASS" if check.passed else f"FAIL witness={check.witness}"
            yield f"  {check.relation.source}: {status}"

    _emit(args, text, lambda: {
        "all_passed": report.all_passed,
        "checks": [
            {
                "kind": c.relation.kind,
                "source": c.relation.source,
                "passed": c.passed,
                "witness": list(map(list, c.witness)) if c.witness else None,
            }
            for c in report.checks
        ],
        **({"literal_rel3": [{"source": c.relation.source, "passed": c.passed} for c in literal]}
           if args.literal_rel3 else {}),
    })


def _colored_forest(letters, representative):
    """The parents, spelt as in the forest's JSON list, and the colours of a representative, comma-separated."""
    forest = ",".join([letters[p] for p in representative.forest.parent])
    return forest, ",".join(map(str, representative.colors))


def cmd_orbits(args):
    from .forests import orbit_decomposition

    _check_n_guard(args, ORBIT_GUARD, "orbit enumeration")
    multiplicities = _parse_int_list(args.colors)
    rows = orbit_decomposition(args.n, multiplicities)
    letters = _parent_letters(args.n)
    spelt = ((row, *_colored_forest(letters, row.representative)) for row in rows)
    lines = (f"{forest} orbit={row.orbit_size} aut={row.stabilizer_order}" for row, forest, _ in spelt)
    items = (
        f'{{"colors":[{colors}],"forest":[{forest}],'
        f'"orbit_size":{row.orbit_size},"stabilizer_order":{row.stabilizer_order}}}'
        for row, forest, colors in spelt
    )
    _emit(
        args,
        lambda: itertools.chain([f"orbits: {len(rows)}"], lines),
        lambda: _json_list('{"orbits":', items, "}"),
    )


def cmd_decomposition(args):
    from .forests import decomposition_report

    _check_n_guard(args, ORBIT_GUARD, "orbit enumeration")
    multiplicities = _parse_int_list(args.colors)
    factors = [f.strip() for f in args.factors.split(",")]
    if len(factors) != len(multiplicities):
        raise ValueError("need one factor series per colour")
    # one product per distinct nonzero exponent vector; a forest has at most n-1 edges,
    # so over k variables there are at most C(n-1+k, k) - 1 of them
    _check_products(args, math.comb(args.n - 1 + len(factors), len(factors)) - 1)
    base = [_series_factor(f, args.truncate) for f in factors]
    rows = decomposition_report(args.n, multiplicities, base)
    letters = _parent_letters(args.n)

    def spelt(spell_module):
        """Each row with its forest, colours and module spelt; rows with one exponent vector share one module."""
        modules = {row.exponents: row.module for row in rows}
        modules = {vector: spell_module(module) for vector, module in modules.items()}
        return ((row, *_colored_forest(letters, row.representative), modules[row.exponents]) for row in rows)

    def text():
        header = f"{'forest':<20} {'colors':<12} {'|Aut|':>5} {'edges':>5} {'sign':>5}  module"
        lines = (
            f"{forest:<20} {colors:<12} {row.aut_order:>5} {row.edge_count:>5} "
            f"{'yes' if row.sign_twist else 'no':>5}  {module}"
            for row, forest, colors, module in spelt(lambda module: module.render())
        )
        return itertools.chain([header, "-" * len(header)], lines)

    def payload():
        _check_summands(args, *(row.module for row in rows))
        # keys in sort_keys order, the rows last
        head = '{"multiplicities":' + json.dumps(multiplicities, separators=SEPARATORS) + f',"n":{args.n},"rows":'
        items = (
            f'{{"aut_order":{row.aut_order},"colors":[{colors}],"edges":{row.edge_count},'
            f'"exponents":[{",".join(map(str, row.exponents))}],"forest":[{forest}],"module":{module},'
            f'"sign_twist":{"true" if row.sign_twist else "false"}}}'
            for row, forest, colors, module in spelt(
                lambda module: json.dumps(module.to_json(), sort_keys=True, separators=SEPARATORS)
            )
        )
        return _json_list(head, items, "}")

    _emit(args, text, payload)


def cmd_homology_torus(args):
    from . import homology
    from .forests import build_gamma_Fn

    _check_n_guard(args, TORUS_GUARD, "torus-model rank", simplices=True)
    betti = [1]
    for degree, rows in enumerate(homology.torus_model_matrices(build_gamma_Fn(args.n)), start=1):
        betti.append(homology.integer_rank(rows))  # smith_normal_form copies the rows
        if args.dump:
            with _open_output(f"{args.dump}.deg{degree}.txt") as handle:
                handle.write(homology.triplet_dump(rows))
    _emit(args, lambda: " ".join(map(str, betti)), lambda: {"betti": betti})


def _nerve_family(group, name):
    if name == "all":
        return list(group.subgroups())
    if name == "klein":
        subs = [s for s in group.subgroups() if len(s) == 2]
        if group.order != 4 or len(subs) < 2:
            raise ValueError("the klein family needs the group Z/2xZ/2")
        return [frozenset([0]), subs[0], subs[1]]
    raise ValueError(f"unknown family {name!r}; use all or klein")


def cmd_homology_nerve(args):
    from . import homology

    group = _group(args, args.group)
    family = _nerve_family(group, args.family)
    # H_k for k <= max-degree needs the faces of at most max-degree + 2 vertices: counted, then built
    faces = homology.coset_nerve_face_count(group, family, args.max_degree + 2)
    _check_guard(faces, NERVE_FACE_GUARD, args.unsafe_large, "coset nerve face count")
    nerve, cosets = homology.coset_nerve(group, family, args.max_degree + 2)
    result = homology.simplicial_homology(nerve, args.max_degree)
    lines = [f"cosets: {len(cosets)}"]
    for degree, (free, torsion) in enumerate(result):
        torsion_text = ",".join(map(str, torsion)) if torsion else "-"
        lines.append(f"H_{degree}: free={free} torsion={torsion_text}")
    _emit(args, lambda: lines, lambda: {
        "cosets": len(cosets),
        "homology": [{"free": free, "torsion": list(torsion)} for free, torsion in result],
    })


def cmd_cactus_coords(args):
    from . import cactus

    parent = _parse_int_list(args.tree)
    n = len(parent)
    _check_guard(n * n, CACTUS_CELL_GUARD, args.unsafe_large, f"coordinate matrix cells ({n} x {n})")
    sizes = _parse_int_list(args.sizes)
    labels = _parse_int_list(args.labels)
    diagram = cactus.CactusDiagram(n, tuple(parent), tuple(labels), tuple(sizes))
    matrix = cactus.coordinates(diagram)
    _emit(args, lambda: cactus.render_matrix(matrix), lambda: {"coordinates": [list(r) for r in matrix]})


# -- parser -------------------------------------------------------------------

# Each command maps to its function and flags, or to its actions, each with its function and flags.
# A flag maps its name to its add_argument keywords.
N = {"--n": {"type": int, "required": True}}
FACTORS = {"--factors": {"required": True}}
SWITCH = {"action": "store_true"}
SOURCE = {"--n": {"type": int}, "--file": {}}  # main asks for one of the two

COMMANDS = {
    "forests": {
        "enumerate": (cmd_forests_enumerate, {
            **N,
            "--count-only": SWITCH,
            "--include-empty": SWITCH,
            "--workers": {"type": int, "default": 1, "help": "accepted for compatibility; runs in one process"},
        }),
    },
    "complex": {"verify": (cmd_complex_verify, SOURCE), "objects": (cmd_complex_objects, SOURCE)},
    "series": {
        "fr": (cmd_series_fr, {**N, **FACTORS, "--truncate": {"type": int, "default": 8}}),
        "wh-free": (cmd_series_wh_free, N),
        "wh-zp": (cmd_series_wh_zp, {
            **N,
            "--p": {"type": int, "required": True},
            "--truncate": {"type": int, "default": 12},
        }),
    },
    "present": {
        "fr": (cmd_present_fr, {**N, **FACTORS}),
        "export": (cmd_present_export, {**N, **FACTORS}),
        "verify": (cmd_present_verify, {
            **N,
            **FACTORS,
            "--dc": {**SWITCH, "help": "verify the simplex-generator presentation"},
            "--literal-rel3": SWITCH,
        }),
    },
    "orbits": (cmd_orbits, {**N, "--colors": {"required": True}}),
    "decomposition": (cmd_decomposition, {
        **N,
        "--colors": {"required": True},
        **FACTORS,
        "--truncate": {"type": int, "default": 8},
    }),
    "homology": {
        "torus": (cmd_homology_torus, {**N, "--dump": {"help": "write generator matrices as triplet files"}}),
        "nerve": (cmd_homology_nerve, {
            "--group": {"required": True},
            "--family": {"default": "all"},
            "--max-degree": {"type": int, "default": 3},
        }),
    },
    "cactus": {
        "coords": (cmd_cactus_coords, {
            "--tree": {"required": True, "help": "parent list, 0 for the root"},
            "--sizes": {"required": True, "help": "pointed-set sizes per factor"},
            "--labels": {"required": True, "help": "edge labels per vertex, 0 at the root"},
        }),
    },
}


def build_parser():
    parser = argparse.ArgumentParser(prog="diagcx")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--output", default=None, help="write output to a file")
    parser.add_argument("--unsafe-large", action="store_true", help="bypass size guards")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = commands.add_parser(command)
        leaves = [(p, spec)]
        if isinstance(spec, dict):  # a command with actions
            actions = p.add_subparsers(dest="action", required=True)
            leaves = [(actions.add_parser(action), leaf) for action, leaf in spec.items()]
        for q, (func, flags) in leaves:
            for flag, keywords in flags.items():
                q.add_argument(flag, **keywords)
            q.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be positive")
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be positive")
    if getattr(args, "file", "missing") is None and getattr(args, "n", None) is None:
        parser.error("need --n or --file")
    digits = sys.get_int_max_str_digits()
    try:
        if args.unsafe_large:
            sys.set_int_max_str_digits(0)  # answers past the guards may print more than 4300 digits
        for flag in ("--truncate", "--max-degree"):
            degree = getattr(args, flag[2:].replace("-", "_"), 0)
            if degree < 0:
                parser.error(f"{flag} must be nonnegative")
            _check_guard(degree, DEGREE_GUARD, args.unsafe_large, flag)
        args.func(args)
    except GuardError as err:
        sys.stderr.write(f"resource guard: {err}\n")
        return GUARD_EXIT
    except (ValueError, OverflowError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return USAGE_EXIT
    finally:
        sys.set_int_max_str_digits(digits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
