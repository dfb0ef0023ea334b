"""Command-line front end: construction, enumeration and verification with
deterministic file I/O.

Same inputs produce byte-identical outputs: all collections are emitted in
canonical order.  Exit status is nonzero whenever a validation or
verification reports a failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cells import enumerate_cells
from .chains import Chain, check_morphism, validate_complex
from .nerves import (
    bisimplicial_comparison,
    identity_simplicial_map,
    nerve,
    nerve_map,
    over_slice,
    under_slice,
)
from .retract import verify_suite
from .serialize import (
    cell_to_json,
    complex_from_json,
    complex_to_json,
    dumps,
    load_path,
    morphism_from_json,
)
from .simplex import c_delta
from .slices import enumerate_slice_cells
from .tensor import pushout_complex, tensor_complex


_INCOMPLETE = "possibly incomplete: the enumeration was cut at --coeff-bound"


def _load_complex(path):
    return complex_from_json(load_path(path))


def _load_morphism(path):
    """A morphism file, refused with its first problem unless it is a
    positive chain map that keeps the augmentation."""
    f = morphism_from_json(load_path(path))
    problems = check_morphism(f).problems
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    return f


def cmd_adc(args):
    K = _load_complex(args.file)
    report = validate_complex(K)
    if args.json:
        print(dumps({"ok": report.ok, "problems": list(report.problems)}), end="")
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_oriental(args):
    K = c_delta(args.n)
    if args.counts:
        parts, complete = [], True
        for i in range(args.n + 1):
            enum = enumerate_cells(K, i, args.coeff_bound)
            complete &= enum.complete
            if i == 0:
                parts.append(f"dim0:{len(enum.cells)}")
            else:
                parts.append(f"dim{i}(nondeg):{len(enum.nonidentity())}")
        line = " ".join(parts)
        if args.json:
            print(dumps({"oriental": args.n, "complete": complete, "counts": line}), end="")
        else:
            print(line)
            if not complete:
                print(_INCOMPLETE)
        return 0
    dim = args.dim if args.dim is not None else args.n
    enum = enumerate_cells(K, dim, args.coeff_bound)
    print(dumps({
        "oriental": args.n,
        "dim": dim,
        "complete": enum.complete,
        "cells": [cell_to_json(c) for c in enum.cells],
    }), end="")
    return 0


def cmd_tensor(args):
    K = _load_complex(args.left)
    L = _load_complex(args.right)
    print(dumps(complex_to_json(tensor_complex(K, L))), end="")
    return 0


def cmd_pushout(args):
    M = _load_complex(args.base)
    K = _load_complex(args.left)
    L = _load_complex(args.right)
    f = _load_morphism(args.left_leg)
    g = _load_morphism(args.right_leg)
    if f.source != M or g.source != M or f.target != K or g.target != L:
        raise ValueError("legs do not match the given complexes")
    P = pushout_complex(f, g)
    print(dumps(complex_to_json(P.complex)), end="")
    return 0


def cmd_cells(args):
    K = _load_complex(args.file)
    enum = enumerate_cells(K, args.dim, args.coeff_bound)
    payload = {
        "dim": args.dim,
        "complete": enum.complete,
        "count": len(enum.cells),
        "nonidentity": len(enum.nonidentity()),
    }
    if not args.counts_only:
        payload["cells"] = [cell_to_json(c) for c in enum.cells]
    print(dumps(payload), end="")
    return 0


def cmd_nerve(args):
    K = _load_complex(args.file)
    N = nerve(K, args.cap, args.coeff_bound)
    counts = N.counts()
    if args.json:
        print(dumps({
            "cap": args.cap,
            "complete": N.complete,
            "counts": [
                {"dim": n, "total": total, "nondegenerate": nd}
                for n, total, nd in counts
            ],
        }), end="")
    else:
        print(" ".join(f"dim{n}:{total}(nondeg {nd})" for n, total, nd in counts))
        if not N.complete:
            print(_INCOMPLETE)
    return 0


def cmd_slice(args):
    K = _load_complex(args.file)
    u = _load_morphism(args.morphism)
    if u.source != K:
        raise ValueError("morphism source does not match the complex")
    if args.object not in u.target.tokens(0):
        raise ValueError(f"{args.object!r} is not a vertex of the morphism's target")
    c = Chain.unit(0, args.object)
    cells, complete = enumerate_slice_cells(u, c, args.cells, args.coeff_bound)
    print(dumps({
        "dim": args.cells,
        "complete": complete,
        "count": len(cells),
        "cells": [
            {
                "a0": [cell_to_json(z) for z in cell.a0],
                "a1": [cell_to_json(z) for z in cell.a1],
                "coherence0": [cell_to_json(z) for z in cell.t0],
                "coherence1": [cell_to_json(z) for z in cell.t1],
            }
            for cell in cells
        ],
    }), end="")
    return 0


def cmd_slice_simplicial(args):
    K = _load_complex(args.file)
    N = nerve(K, args.cap, args.coeff_bound)
    base = [x for x in N.simplices(0) if x.image_of("0") == Chain.unit(0, args.vertex)]
    if not base:
        raise ValueError(f"no 0-simplex at object {args.vertex!r}")
    space = (over_slice if args.over else under_slice)(N, base[0], 0)
    counts = space.counts()
    print(dumps({
        "kind": "over" if args.over else "under",
        "vertex": args.vertex,
        "complete": space.complete,
        "counts": [
            {"dim": n, "total": total, "nondegenerate": nd} for n, total, nd in counts
        ],
    }), end="")
    return 0


def cmd_bisimplicial(args):
    K = _load_complex(args.file)
    cap = args.cap_m + 1 + args.cap_n
    N = nerve(K, cap, args.coeff_bound)
    if args.morphism:
        f = _load_morphism(args.morphism)
        if f.source != K:
            raise ValueError("morphism source does not match the complex")
        M = nerve(f.target, cap, args.coeff_bound)
        u = nerve_map(f, N, M)
    else:
        u = identity_simplicial_map(N)
    S, _ = bisimplicial_comparison(u, args.cap_m, args.cap_n)
    sizes = [
        {"m": m, "n": n, "count": len(S.simplices(m, n))}
        for m in range(args.cap_m + 1)
        for n in range(args.cap_n + 1)
    ]
    print(dumps({
        "caps": [args.cap_m, args.cap_n],
        "complete": S.complete,
        "sizes": sizes,
    }), end="")
    return 0


def cmd_verify(args):
    report = verify_suite(args.m_max, args.n_max)
    if args.json_report:
        payload = {
            "all_passed": report.all_passed,
            "results": [
                {
                    "identity": r.name,
                    "passed": r.passed,
                    "instances": r.instances,
                    "counterexample": r.counterexample,
                }
                for r in report.results
            ],
        }
        with open(args.json_report, "w") as handle:
            handle.write(dumps(payload))
    print(report)
    print(f"{'ALL PASS' if report.all_passed else 'FAILURES PRESENT'}")
    return 0 if report.all_passed else 1


def _dot_id(token):
    """A token as a quoted DOT ID: backslashes, quotes and newlines escaped."""
    escaped = token.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def cmd_export_dot(args):
    K = _load_complex(args.file)
    lines = ["digraph complex {", "  rankdir=BT;"]
    for p in K.degrees():
        names = " ".join(map(_dot_id, K.tokens(p)))
        lines.append(f"  {{ rank=same; {names} }}")
    for p in K.degrees():
        if p == 0:
            continue
        for t in K.tokens(p):
            for s, coeff in K.diff_of(t).coeffs:
                style = "solid" if coeff > 0 else "dashed"
                lines.append(f'  {_dot_id(t)} -> {_dot_id(s)} [style={style}, label="{coeff}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steiner-lab",
        description="exact computations with directed complexes and their "
        "omega-categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adc", help="directed-complex utilities")
    p.add_argument("action", choices=["validate"])
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_adc)

    p = sub.add_parser("oriental", help="cells of the n-th oriental")
    p.add_argument("n", type=int)
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--dim", type=int, default=None)
    shape.add_argument("--counts", "--count", dest="counts", action="store_true")
    p.add_argument("--coeff-bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_oriental)

    p = sub.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("pushout", help="amalgamated sum along rigid inclusions")
    p.add_argument("base")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("left_leg")
    p.add_argument("right_leg")
    p.set_defaults(fn=cmd_pushout)

    p = sub.add_parser("cells", help="enumerate cells of a complex")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.add_argument("--counts-only", action="store_true")
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("nerve", help="nerve simplex tables")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nerve)

    p = sub.add_parser("slice", help="slice cells under an object")
    p.add_argument("file")
    p.add_argument("morphism")
    p.add_argument("object")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("slice-simplicial", help="slices of a nerve at a vertex")
    p.add_argument("file")
    p.add_argument("vertex")
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--over", action="store_true")
    p.add_argument("--coeff-bound", type=int, default=None)
    p.set_defaults(fn=cmd_slice_simplicial)

    p = sub.add_parser("bisimplicial", help="the comparison bisimplicial set")
    p.add_argument("file")
    p.add_argument("--morphism", default=None)
    p.add_argument("--cap-m", type=int, default=1)
    p.add_argument("--cap-n", type=int, default=1)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.set_defaults(fn=cmd_bisimplicial)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("what", choices=["theorem-a"])
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--json-report", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export-dot", help="differential incidence as DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_export_dot)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
