"""Command-line interface.

Subcommands cover enumeration, complex verification, series, group
presentations, orbit and decomposition reports, homology checks and
cactus coordinates.  Output is byte-for-byte deterministic for a given
invocation; JSON mode emits a single sorted-keys document.

Exit codes: 0 success, 2 usage error, 3 resource guard exceeded.
"""

import argparse
import json
import os
import sys

from . import cactus, forests, homology, present, series
from .complexes import DiagonalComplex
from .groups import group_from_descriptor

GUARD_EXIT = 3
USAGE_EXIT = 2

ENUM_GUARD = 8
CLOSURE_GUARD = 4
ORBIT_GUARD = 6


class GuardError(Exception):
    pass


def _check_guard(value, limit, unsafe, what):
    if value > limit and not unsafe:
        raise GuardError(
            f"{what} limited to n <= {limit}; pass --unsafe-large to override"
        )


def _series_factor(text, truncation):
    text = text.strip()
    if text in ("circle", "Z"):
        return series.circle_series(truncation)
    if text.startswith("Z/"):
        tail = text[2:]
        if tail.endswith("Z"):
            tail = tail[:-1]
        return series.cyclic_classifying_series(int(tail), truncation)
    raise ValueError(f"unknown series factor {text!r}; use circle or Z/m")


def _parse_int_list(text):
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _emit(args, text, payload):
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = text if text.endswith("\n") else text + "\n"
    path = getattr(args, "output", None)
    if path:
        directory = os.environ.get("DIAGCX_OUTPUT_DIR")
        if directory and not os.path.isabs(path):
            path = os.path.join(directory, path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)


# -- command implementations -------------------------------------------------


def cmd_forests_enumerate(args):
    _check_guard(args.n, ENUM_GUARD, args.unsafe_large, "forest enumeration")
    items = forests.enumerate_forests(args.n, include_empty=args.include_empty, workers=args.workers)
    if args.count_only:
        _emit(args, str(len(items)), {"n": args.n, "count": len(items)})
        return
    text = "\n".join(",".join(map(str, f.to_json())) for f in items)
    _emit(args, text, {"n": args.n, "forests": [f.to_json() for f in items]})


def _load_complex(args):
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            complex_, labelling = DiagonalComplex.from_json(handle.read())
        if labelling is None:
            raise ValueError("complex file carries no labels")
        return complex_, labelling, None
    fc = forests.build_gamma_Fn(args.n)
    return fc.complex, fc.labelling, fc


def cmd_complex_verify(args):
    if args.file is None:
        _check_guard(args.n, forests.BUILD_CAP, args.unsafe_large, "complex construction")
    complex_, labelling, _ = _load_complex(args)
    report = complex_.validate()
    proper = complex_.is_proper() if report.ok else False
    lines = [f"simplices: {len(complex_.gamma)}"]
    for check in report.checks:
        status = "pass" if check.passed else f"FAIL ({check.witness})"
        lines.append(f"axiom {check.axiom}: {status}")
    lines.append(f"proper: {'yes' if proper else 'no'}")
    payload = {
        "simplices": len(complex_.gamma),
        "axioms": [
            {"axiom": c.axiom, "passed": c.passed, "witness": c.witness}
            for c in report.checks
        ],
        "proper": proper,
    }
    _emit(args, "\n".join(lines), payload)


def cmd_complex_objects(args):
    if args.file is None:
        _check_guard(args.n, CLOSURE_GUARD, args.unsafe_large, "meet closure")
    complex_, labelling, fc = _load_complex(args)
    objects = complex_.category_objects(labelling)
    if fc is not None:
        lines = [
            " | ".join(
                "{" + ",".join(f"({i},{j})" for i, j in block) + "}"
                for block in forests.blocks_as_pairs(part, fc.n)
            )
            for part in objects
        ]
    else:
        lines = [str(part) for part in objects]
    header = f"objects: {len(objects)}"
    payload = {"count": len(objects), "objects": [part.to_json() for part in objects]}
    _emit(args, "\n".join([header] + lines), payload)


def cmd_series_fr(args):
    factors = [f.strip() for f in args.factors.split(",")]
    if len(factors) != args.n:
        raise ValueError("need one factor per vertex")
    fc = forests.build_gamma_Fn(args.n)
    h = series.hilbert_polynomial(fc.complex, fc.labelling)
    assignment = {v: _series_factor(factors[v - 1], args.truncate) for v in h.variables}
    result = series.substitute(h, assignment, truncation=args.truncate)
    _emit(args, result.render(), {"series": result.to_json()})


def cmd_series_wh_free(args):
    coeffs, chi = series.series_Wh_free(args.n)
    text = f"{series.render_poly_in_t(coeffs)}, chi = {chi}"
    _emit(args, text, {"coefficients": coeffs, "chi": chi})


def cmd_series_wh_zp(args):
    result = series.series_Wh_Zp(args.n, args.p, args.truncate)
    _emit(args, result.render(), {"series": result.to_json()})


def _parse_factor_groups(text, count):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"need exactly {count} factor groups")
    return [group_from_descriptor(p) for p in parts]


def cmd_present_fr(args):
    groups = _parse_factor_groups(args.factors, args.n)
    pres = present.fr_presentation(args.n, groups)
    lines = [f"generators: {len(pres.generators)}", f"relations: {len(pres.relations)}"]
    lines.extend(name for name in pres.generator_names())
    _emit(args, "\n".join(lines), pres.to_json())


def cmd_present_export(args):
    groups = _parse_factor_groups(args.factors, args.n)
    pres = present.fr_presentation(args.n, groups)
    text = present.export_gap(pres)
    _emit(args, text, {"gap": text})


def cmd_present_verify(args):
    groups = _parse_factor_groups(args.factors, args.n)
    if args.dc:
        pres = present.forest_dc_presentation(args.n, groups)
    else:
        pres = present.fr_presentation(args.n, groups)
    report = present.verify_relations(pres, groups)
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else f"FAIL witness={check.witness}"
        lines.append(f"{check.relation.kind} [{check.relation.source}]: {status}")
    lines.append(f"all passed: {'yes' if report.all_passed else 'no'}")
    payload = {
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
    }
    if args.literal_rel3:
        literal = present.literal_pairwise_commutator_checks(groups)
        payload["literal_rel3"] = [
            {"source": c.relation.source, "passed": c.passed} for c in literal
        ]
        lines.append("literal pairwise commutators (no side conditions):")
        for check in literal:
            status = "PASS" if check.passed else f"FAIL witness={check.witness}"
            lines.append(f"  {check.relation.source}: {status}")
    _emit(args, "\n".join(lines), payload)


def cmd_orbits(args):
    _check_guard(args.n, ORBIT_GUARD, args.unsafe_large, "orbit enumeration")
    multiplicities = _parse_int_list(args.colors)
    rows = forests.orbit_decomposition(args.n, multiplicities)
    lines = [
        f"{','.join(map(str, row.representative.forest.to_json()))} "
        f"orbit={row.orbit_size} aut={row.stabilizer_order}"
        for row in rows
    ]
    payload = {
        "orbits": [
            {
                "forest": row.representative.forest.to_json(),
                "colors": list(row.representative.colors),
                "orbit_size": row.orbit_size,
                "stabilizer_order": row.stabilizer_order,
            }
            for row in rows
        ]
    }
    _emit(args, "\n".join([f"orbits: {len(rows)}"] + lines), payload)


def cmd_decomposition(args):
    _check_guard(args.n, ORBIT_GUARD, args.unsafe_large, "orbit enumeration")
    multiplicities = _parse_int_list(args.colors)
    factors = [f.strip() for f in args.factors.split(",")]
    if len(factors) != len(multiplicities):
        raise ValueError("need one factor series per colour")
    base = [_series_factor(f, args.truncate) for f in factors]
    report = forests.decomposition_report(args.n, multiplicities, base)
    _emit(args, report.render_text(), report.to_json())


def cmd_homology_torus(args):
    _check_guard(args.n, CLOSURE_GUARD, args.unsafe_large, "torus-model rank")
    fc = forests.build_gamma_Fn(args.n)
    betti = homology.torus_model_betti(fc.complex, fc.labelling)
    if args.dump:
        for degree in range(1, len(betti)):
            rows = homology.torus_model_generators(fc.complex, degree)
            with open(f"{args.dump}.deg{degree}.txt", "w", encoding="utf-8") as handle:
                handle.write(homology.triplet_dump(rows))
    _emit(args, " ".join(map(str, betti)), {"betti": betti})


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
    group = group_from_descriptor(args.group)
    family = _nerve_family(group, args.family)
    nerve, cosets = homology.coset_nerve(group, family)
    result = homology.simplicial_homology(nerve, args.max_degree)
    lines = [f"cosets: {len(cosets)}"]
    for degree, (free, torsion) in enumerate(result):
        torsion_text = ",".join(map(str, torsion)) if torsion else "-"
        lines.append(f"H_{degree}: free={free} torsion={torsion_text}")
    payload = [{"free": free, "torsion": list(torsion)} for free, torsion in result]
    _emit(args, "\n".join(lines), {"cosets": len(cosets), "homology": payload})


def cmd_cactus_coords(args):
    parent = _parse_int_list(args.tree)
    sizes = _parse_int_list(args.sizes)
    labels = _parse_int_list(args.labels)
    diagram = cactus.CactusDiagram(len(parent), tuple(parent), tuple(labels), tuple(sizes))
    matrix = cactus.coordinates(diagram)
    _emit(args, cactus.render_matrix(matrix), {"coordinates": [list(r) for r in matrix]})


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="diagcx")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--output", default=None, help="write output to a file")
    parser.add_argument("--unsafe-large", action="store_true", help="bypass size guards")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forests")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("enumerate")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--count-only", action="store_true")
    q.add_argument("--include-empty", action="store_true")
    q.add_argument("--workers", type=int, default=1)
    q.set_defaults(func=cmd_forests_enumerate)

    p = sub.add_parser("complex")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("verify")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--file", default=None)
    q.set_defaults(func=cmd_complex_verify)
    q = psub.add_parser("objects")
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--file", default=None)
    q.set_defaults(func=cmd_complex_objects)

    p = sub.add_parser("series")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("fr")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--factors", required=True)
    q.add_argument("--truncate", type=int, default=8)
    q.set_defaults(func=cmd_series_fr)
    q = psub.add_parser("wh-free")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_series_wh_free)
    q = psub.add_parser("wh-zp")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--truncate", type=int, default=12)
    q.set_defaults(func=cmd_series_wh_zp)

    p = sub.add_parser("present")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("fr")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--factors", required=True)
    q.set_defaults(func=cmd_present_fr)
    q = psub.add_parser("export")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--factors", required=True)
    q.set_defaults(func=cmd_present_export)
    q = psub.add_parser("verify")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--factors", required=True)
    q.add_argument("--dc", action="store_true", help="verify the simplex-generator presentation")
    q.add_argument("--literal-rel3", action="store_true")
    q.set_defaults(func=cmd_present_verify)

    p = sub.add_parser("orbits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--truncate", type=int, default=8)
    p.set_defaults(func=cmd_decomposition)

    p = sub.add_parser("homology")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("torus")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--dump", default=None, help="write generator matrices as triplet files")
    q.set_defaults(func=cmd_homology_torus)
    q = psub.add_parser("nerve")
    q.add_argument("--group", required=True)
    q.add_argument("--family", default="all")
    q.add_argument("--max-degree", type=int, default=3)
    q.set_defaults(func=cmd_homology_nerve)

    p = sub.add_parser("cactus")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("coords")
    q.add_argument("--tree", required=True, help="parent list, 0 for the root")
    q.add_argument("--sizes", required=True, help="pointed-set sizes per factor")
    q.add_argument("--labels", required=True, help="edge labels per vertex, 0 at the root")
    q.set_defaults(func=cmd_cactus_coords)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be positive")
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be positive")
    if getattr(args, "truncate", 0) < 0:
        parser.error("--truncate must be nonnegative")
    if getattr(args, "file", "missing") is None and getattr(args, "n", None) is None:
        parser.error("need --n or --file")
    try:
        args.func(args)
    except GuardError as err:
        sys.stderr.write(f"resource guard: {err}\n")
        return GUARD_EXIT
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
