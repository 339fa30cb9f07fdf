"""Command-line front end.

Reads facet files, runs analyses, theorem checks, and walk construction,
and emits one machine-readable JSON report per invocation.  Reports are
byte-identical across runs on identical input; timing goes to stderr.

Exit codes: 0 pass, 1 theorem violation or failed self-verification,
2 usage/parse/precondition error, 3 resource cap exceeded,
4 theorem not applicable (a hypothesis failed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .core import DEFAULT_CANDIDATE_CAP, SimplicialComplex, Verdict
from .errors import (
    ClassificationError,
    InputError,
    InternalInvariantError,
    ResourceLimitError,
)
from .formats import facet_file_text, parse_label, quote_input, read_complex_bytes, read_complex_file
from .generators import (
    barycentric_subdivision,
    cross_polytope_boundary,
    cycle,
    icosahedron,
    simplex_boundary,
    suspension,
    torus_7,
)
from .graphs import strong_walk_avoiding, verify_strong_walk
from .homology import (
    FieldSpec,
    is_cohen_macaulay,
    is_homology_manifold,
    is_homology_sphere,
    is_m_cohen_macaulay,
    reduced_betti_numbers,
)
from .theorems import (
    check_cross_polytope_subdivision,
    check_face_graph_connectivity_bound,
    check_face_lower_bounds_report,
    check_graph_connectivity_bound,
    check_h_vector_bound,
    strong_walk_avoiding_set,
)


def _verdict_json(v) -> dict:
    """A Verdict as the dict a report writes; TypeError for any other value
    that is not a report value."""
    if not isinstance(v, Verdict):
        raise TypeError(f"{type(v).__name__} is not a report value")
    return {"ok": v.ok, "witness": v.witness, "reason": v.reason}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=_verdict_json)``
    for a report value, without json's pure-Python indent encoder; indent is
    the line break and spaces before value's closing bracket.  Report values
    are str-keyed dicts, lists, tuples, strs, ints, bools, None and Verdicts;
    anything else raises TypeError, floats too."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # json's own escaper, in C
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)  # as json writes an IntEnum
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [_json_text(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("a report key is not a str")
        items = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                 for k in sorted(value)]
        brackets = "{}"
    else:
        return _json_text(_verdict_json(value), indent)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _parse_labels(text: str) -> list[int]:
    try:
        return [parse_label(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"expected integer labels, got {quote_input(text)}")


def _cmd_analyze(cx: SimplicialComplex, args) -> tuple[dict, int]:
    field = FieldSpec.parse(args.homology) if args.homology else None
    results: dict = {
        "complex": {
            "void": cx.is_void,
            "empty": cx.is_empty_complex,
            "vertices": cx.num_vertices,
            "dimension": cx.dimension,
            "facets": len(cx.facets),
            "pure": cx.is_pure,
        },
        "flag": cx.is_flag(args.cap),
        "pseudomanifold": cx.is_pseudomanifold(),
        "strong_components": {"count": cx.strong_components().count, "pure": cx.is_pure},
    }
    if cx.is_void:
        results["f_vector"] = None
        results["h_vector"] = None
        results["reduced_euler_characteristic"] = None
    else:
        results["f_vector"] = list(cx.f_vector())
        results["h_vector"] = list(cx.h_vector())
        results["reduced_euler_characteristic"] = cx.reduced_euler_characteristic()
    if field is not None:
        if cx.is_void:
            results["homology"] = {
                "field": field.name,
                "note": "the void complex has no chain complex",
            }
        else:
            cm = is_cohen_macaulay(cx, field)  # memoizes a shelling or the sweep's sigma = {}
            betti = reduced_betti_numbers(cx, field)
            results["homology"] = {
                "field": field.name,
                "betti": {"start_dim": -1, "values": list(betti.values)},
                "cohen_macaulay": cm,
                "doubly_cohen_macaulay": is_m_cohen_macaulay(cx, 2, field, args.cap),
                "homology_sphere": is_homology_sphere(cx, field),
                "homology_manifold": is_homology_manifold(cx, field),
            }
    return results, 0


def _cmd_verify(cx: SimplicialComplex, args) -> tuple[dict, int]:
    field = FieldSpec.parse(args.field)
    if args.theorem == "t1":
        report = check_graph_connectivity_bound(cx, args.cap)
    elif args.theorem == "t2":
        facet = tuple(_parse_labels(args.facet)) if args.facet else None
        report = check_cross_polytope_subdivision(
            cx, facet=facet, all_facets=args.all_facets, cap=args.cap
        )
    elif args.theorem == "t3":
        report = check_h_vector_bound(cx, field, args.cap)
    elif args.theorem == "gk":
        report = check_face_graph_connectivity_bound(cx, args.k, field, args.cap)
    else:
        report = check_face_lower_bounds_report(cx, args.cap)
    return report.to_dict(), report.exit_code


def _cmd_walk(cx: SimplicialComplex, args) -> tuple[dict, int]:
    avoid = _parse_labels(args.avoid)
    if args.mode == "face":
        cert = strong_walk_avoiding(cx, args.src, args.dst, avoid)
    else:
        cert = strong_walk_avoiding_set(cx, args.src, args.dst, avoid, args.cap)
    verdict = verify_strong_walk(cx, cert)
    avoided = not (set(avoid) & set(cert.nodes))
    results = {
        "mode": args.mode,
        "from": args.src,
        "to": args.dst,
        "avoid": sorted(set(avoid)),
        "certificate": {"nodes": cert.nodes, "witness_facets": cert.witness_facets},
        "verified": bool(verdict),
        "avoidance_ok": avoided,
    }
    if verdict and avoided:
        return results, 0
    results["flag"] = "self-verification failed; suspect an implementation defect"
    if not verdict:
        results["failure"] = verdict.witness
    return results, 1


# each generator and what it reads: nothing, a size, or the complex --of FILE
_GENERATORS = {
    "icosahedron": (icosahedron, None),
    "torus7": (torus_7, None),
    "cross-polytope": (cross_polytope_boundary, "size"),
    "simplex-boundary": (simplex_boundary, "size"),
    "cycle": (cycle, "size"),
    "barycentric": (barycentric_subdivision, "of"),
    "suspension": (suspension, "of"),
}


def _cmd_gen(args) -> str:
    name = args.name
    make, reads = _GENERATORS[name]
    if reads is None:
        if args.size is not None or args.of is not None:
            raise InputError(f"generator {name} takes no parameters")
        cx = make()
    elif reads == "size":
        if args.size is None:
            raise InputError(f"generator {name} needs a size argument")
        if args.of is not None:
            raise InputError(f"generator {name} does not read an input complex")
        cx = make(args.size)
    else:
        if args.of is None:
            raise InputError(f"generator {name} needs --of FILE")
        if args.size is not None:
            raise InputError(f"generator {name} takes no size argument")
        cx = make(read_complex_file(args.of))
    return facet_file_text(cx)


def _whole(text: str) -> int:
    """--cap, --from, --to, --k and gen's size: ASCII digits, so never negative."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected 0 or more in ASCII digits, got {text!r}")
    return int(text)


@functools.cache  # built on the first call, not at import, and shared by later calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplicial",
        description="Structural analysis and certified checks for simplicial complexes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_field=False):
        p.add_argument("--cap", type=_whole, default=DEFAULT_CANDIDATE_CAP,
                       help="enumeration cap before failing with exit 3")
        p.add_argument("--out", default=None, help="write the report to a file")
        if with_field:
            p.add_argument("--field", default="gf2",
                           help="coefficient field: gf2, gf<p>, rational")

    p = sub.add_parser("analyze", help="classify a complex and report its vectors")
    p.add_argument("path")
    p.add_argument("--homology", default=None, metavar="FIELD",
                   help="add homology-based classifications over FIELD")
    common(p)

    p = sub.add_parser("verify", help="run a theorem check and report pass/fail")
    p.add_argument("theorem", choices=("t1", "t2", "t3", "gk", "lb"))
    p.add_argument("path")
    p.add_argument("--k", type=_whole, default=1, help="face dimension for gk")
    p.add_argument("--facet", default=None,
                   help="root facet for t2, as space-separated labels")
    p.add_argument("--all-facets", action="store_true",
                   help="run t2 from every facet")
    common(p, with_field=True)

    p = sub.add_parser("walk", help="construct and verify an avoiding walk")
    p.add_argument("path")
    p.add_argument("--from", dest="src", type=_whole, required=True)
    p.add_argument("--to", dest="dst", type=_whole, required=True)
    p.add_argument("--avoid", default="",
                   help="labels to avoid, space or comma separated")
    p.add_argument("--mode", choices=("face", "flag"), default="flag",
                   help="face: avoid a face or < d labels; flag: any < 2d-2 labels")
    common(p)

    p = sub.add_parser("gen", help="emit a generated complex as a facet file")
    p.add_argument("name", choices=sorted(_GENERATORS))
    p.add_argument("size", nargs="?", type=_whole, default=None)
    p.add_argument("--of", default=None, help="input complex for derived generators")
    p.add_argument("--out", default=None, help="write the facet file to a file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    started = time.monotonic()
    try:
        if args.command == "gen":
            text, code = _cmd_gen(args), 0
        else:
            handler = {
                "analyze": _cmd_analyze,
                "verify": _cmd_verify,
                "walk": _cmd_walk,
            }[args.command]
            with open(args.path, "rb") as fh:
                data = fh.read()  # one read: the bytes parsed are the bytes hashed
            results, code = handler(read_complex_bytes(data, args.path), args)
            report = {
                "tool": "simplicial",
                "version": __version__,
                "command": _command_echo(args),
                "input": {"path": args.path, "sha256": hashlib.sha256(data).hexdigest()},
                "results": results,
            }
            text = _json_text(report) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ClassificationError as e:
        detail = f" (witness: {e.witness})" if e.witness is not None else ""
        print(f"error: precondition failed: {e}{detail}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"error: resource cap exceeded: {e}", file=sys.stderr)
        return 3
    except InternalInvariantError as e:
        print(
            f"error: internal invariant violated: {e} "
            "(suspect an implementation defect)",
            file=sys.stderr,
        )
        return 1
    finally:
        elapsed = time.monotonic() - started
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


def _command_echo(args) -> dict:
    echo = {"name": args.command}
    if args.command == "analyze":
        echo["homology"] = args.homology
    elif args.command == "verify":
        echo["theorem"] = args.theorem
        echo["field"] = args.field
        if args.theorem == "gk":
            echo["k"] = args.k
        if args.theorem == "t2":
            echo["facet"] = args.facet
            echo["all_facets"] = args.all_facets
    elif args.command == "walk":
        echo["from"] = args.src
        echo["to"] = args.dst
        echo["avoid"] = args.avoid
        echo["mode"] = args.mode
    return echo


if __name__ == "__main__":
    sys.exit(main())
