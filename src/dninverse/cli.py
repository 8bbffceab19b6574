"""Command-line front end.

Verbs: check (pattern feasibility), witness (synthesize a realizing matrix),
predict (tree sign pattern), verify (doubly-nonnegative membership plus
inverse pattern), fuzz (randomized campaigns), and search-nonunique (find two
complete-graph matrices with different inverse patterns). Exit code 0 means
pass/feasible/found, 1 means the domain answer was negative, 2 means the
input could not be parsed or read, an output file could not be written, the
work ran out of memory, or the invocation was malformed.

Importing this module loads what check, verify and witness run; the campaign
modules ``oracle`` and ``treesign`` are imported by the verbs that use them
(fuzz and search-nonunique, predict). No verb loads scipy: the LAPACK kernels
run on the OpenBLAS numpy has loaded, whose one thread pool each verb pins.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .densemat import (
    REL_TOL_RESIDUAL,
    REL_TOL_ZERO,
    check_rel_tolerance,
    cholesky_invert,
    single_blas_thread,
    verify_doubly_nonnegative,
)
from .errors import DnInverseError, InfeasiblePattern
from .fileio import (
    ParseError,
    read_graph,
    read_matrix,
    read_sign_matrix,
    write_matrix,
    write_sign_matrix,
)
from .graphs import bfs_distances
from .signpattern import ambiguous_signs, check_feasible, construct_witness, sign_of


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _rel_tolerance(text: str) -> float:
    try:
        return check_rel_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1), got {text!r}") from exc


def _density(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value <= 1.0:  # also false for nan
        raise argparse.ArgumentTypeError(f"expected a density in (0, 1], got {text!r}")
    return value


def _emit(args, document: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for line in human_lines:
            print(line)


def _tolerance_header(args) -> list[str]:
    """The tolerance line: ``:g`` text where it reads back as the tolerance, else ``repr``."""
    text = f"{args.tol_zero:g}"
    return [f"# tol_zero_rel = {text if float(text) == args.tol_zero else repr(args.tol_zero)}"]


def _cmd_check(args) -> int:
    pattern = read_sign_matrix(args.pattern)
    report = check_feasible(pattern)
    lines = [
        f"pattern {pattern.n}x{pattern.n}: "
        + ("FEASIBLE" if report.feasible else "INFEASIBLE"),
        f"  symmetric: {'yes' if report.symmetric_ok else 'no'}",
        f"  diagonal all plus: {'yes' if report.diagonal_ok else 'no'}",
        f"  negative-sign graph connected: {'yes' if report.delta_connected else 'no'}",
    ]
    if not report.delta_connected:
        parts = " ".join(
            "{" + ",".join(map(str, comp)) + "}" for comp in report.delta_components
        )
        lines.append(f"  components: {parts}")
    _emit(args, {"n": pattern.n, **report.to_dict()}, lines)
    return 0 if report.feasible else 1


def _cmd_witness(args) -> int:
    pattern = read_sign_matrix(args.pattern)
    try:
        q = construct_witness(pattern)
    except InfeasiblePattern:
        _emit(
            args,
            {"n": pattern.n, **check_feasible(pattern).to_dict()},
            [f"pattern {pattern.n}x{pattern.n}: INFEASIBLE, no witness exists"],
        )
        return 1
    realizing = cholesky_invert(q)
    roundtrip = cholesky_invert(realizing)  # a witness that fails to factor stops here
    verdict = verify_doubly_nonnegative(realizing, args.tol_zero)
    exact = sign_of(roundtrip, args.tol_zero) == pattern
    identity = np.eye(pattern.n)
    residual = max(
        float(np.abs(q.entries @ realizing.entries - identity).max()),
        float(np.abs(realizing.entries @ roundtrip.entries - identity).max()),
    )
    allowance = REL_TOL_RESIDUAL * pattern.n
    write_matrix(
        args.out,
        realizing,
        comment=f"doubly nonnegative matrix whose inverse has the requested "
        f"{pattern.n}x{pattern.n} sign pattern",
    )
    ok = verdict.passed and exact and residual <= allowance
    _emit(
        args,
        {
            "n": pattern.n,
            "out": str(args.out),
            "feasible": True,
            "verdict": verdict.to_dict(),
            "roundtrip_exact": exact,
            "max_residual": residual,
            "residual_allowance": allowance,
        },
        _tolerance_header(args)
        + [
            f"witness {pattern.n}x{pattern.n} written to {args.out}",
            f"  doubly nonnegative: {'yes' if verdict.passed else 'NO'} "
            f"(min eigenvalue {verdict.min_eigenvalue:.3e})",
            f"  inverse sign pattern round trip: "
            f"{'exact match' if exact else 'MISMATCH'}",
            f"  max inversion residual: {residual:.3e} (allowance {allowance:.3e})",
        ],
    )
    return 0 if ok else 1


def _tree_distances(g):
    """Each vertex i < n with its distances to the vertices i + 1..n, in that order."""
    for i in range(1, g.n):
        dist = bfs_distances(g, i)
        yield i, [dist[j] for j in range(i + 1, g.n + 1)]


def _cmd_predict(args) -> int:
    from .treesign import predict_tree_sign_rows

    g = read_graph(args.graph)
    rows = predict_tree_sign_rows(g)  # n references to two strings
    if args.out:
        write_sign_matrix(args.out, rows, comment=f"predicted from {args.graph}")
    if args.json:
        document = {"n": g.n, "rows": rows}
        if args.distances:
            document["distances"] = [
                {"i": i, "j": j, "distance": d, "sign": "-" if d % 2 else "+"}
                for i, dists in _tree_distances(g)
                for j, d in enumerate(dists, start=i + 1)
            ]
        print(json.dumps(document, indent=2))
        return 0
    print(g.n)
    for row in rows:  # one at a time: the n rows are n^2 characters
        print(row)
    if args.distances:  # n(n - 1)/2 lines, printed a vertex at a time as they are made
        for i, dists in _tree_distances(g):
            print("\n".join(
                f"# d({i},{j}) = {d} ({'odd' if d % 2 else 'even'}) -> {'-' if d % 2 else '+'}"
                for j, d in enumerate(dists, start=i + 1)
            ))
    return 0


def _cmd_verify(args) -> int:
    a = read_matrix(args.matrix)
    verdict = verify_doubly_nonnegative(a, args.tol_zero)
    lines = _tolerance_header(args) + [
        f"matrix {a.n}x{a.n}: "
        + ("doubly nonnegative" if verdict.passed else "NOT doubly nonnegative"),
        f"  entrywise nonnegative: {'yes' if verdict.is_entrywise_nonneg else 'no'} "
        f"(worst negative entry {verdict.worst_negative_entry:.3e})",
        f"  positive definite: {'yes' if verdict.is_positive_definite else 'no'} "
        f"(min eigenvalue {verdict.min_eigenvalue:.3e})",
        f"  irreducible: {'yes' if verdict.is_irreducible else 'no'}",
    ]
    document = {"n": a.n, "verdict": verdict.to_dict()}
    if verdict.is_positive_definite:
        inverse = cholesky_invert(a)  # the inverse the verdict formed
        pattern = sign_of(inverse, args.tol_zero)
        feasibility = check_feasible(pattern)
        ambiguous = ambiguous_signs(inverse, args.tol_zero)
        rows = pattern.to_rows()
        document["inverse_pattern_rows"] = rows
        document["inverse_pattern_feasible"] = feasibility.to_dict()
        document["ambiguous_entries"] = [list(pair) for pair in ambiguous]
        lines.append("  inverse sign pattern:")
        lines.extend(f"    {row}" for row in rows)
        lines.append(
            f"  pattern passes the feasibility test: "
            f"{'yes' if feasibility.feasible else 'no'}"
        )
        if ambiguous:
            lines.append(
                "  entries inside the zero band: "
                + " ".join(f"({i},{j})" for i, j in ambiguous)
            )
    _emit(args, document, lines)
    return 0 if verdict.passed else 1


def _campaign_lines(name: str, report) -> list[str]:
    lines = [f"campaign {name}: trials={report.trials} failures={report.failures}"]
    for key, value in sorted(report.min_margins.items()):
        lines.append(f"  {key} = {value:.6g}")
    if report.failure_seeds:
        shown = ", ".join(str(s) for s in report.failure_seeds[:5])
        more = "" if report.failures <= 5 else f" (+{report.failures - 5} more)"
        lines.append(f"  failure trial seeds: {shown}{more}")
    return lines


def _cmd_fuzz(args) -> int:
    from .oracle import necessity_campaign, tree_sign_campaign

    if args.density is not None and args.theorem == "2":
        raise ValueError("--density applies to --theorem 1 and all: theorem 2's trials draw trees")
    n_range = (args.n_min, args.n_max)
    reports = {}
    if args.theorem in ("1", "all"):
        reports["1"] = necessity_campaign(
            n_range, args.trials, args.seed, density=args.density, rel_tol=args.tol_zero
        )
    if args.theorem in ("2", "all"):
        reports["2"] = tree_sign_campaign(
            n_range, args.trials, args.seed, rel_tol=args.tol_zero
        )
    names = {
        "1": "1 (feasibility conditions on random inverses)",
        "2": "2 (tree two-coloring prediction)",
    }
    lines = _tolerance_header(args)
    for key, report in reports.items():
        lines.extend(_campaign_lines(names[key], report))
    passed = all(report.passed for report in reports.values())
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    document = (
        reports[args.theorem].to_dict()
        if args.theorem in reports
        else {key: report.to_dict() for key, report in reports.items()}
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    _emit(args, document, lines)
    return 0 if passed else 1


def _cmd_search_nonunique(args) -> int:
    from .oracle import search_nonunique_complete

    found = search_nonunique_complete(
        args.n, args.max_trials, args.seed, rel_tol=args.tol_zero
    )
    if found is None:
        _emit(
            args,
            {"found": False, "n": args.n, "max_trials": args.max_trials},
            [f"no second inverse sign pattern in {args.max_trials} trials at n = {args.n}"],
        )
        return 1
    first_rows = found.first_pattern.to_rows()
    second_rows = found.second_pattern.to_rows()
    differ = found.first_pattern.signs != found.second_pattern.signs
    diff = (np.argwhere(np.triu(differ)) + 1).tolist()  # (i, j), i <= j, row by row
    lines = _tolerance_header(args) + [
        f"distinct inverse sign patterns after {found.trials_used} trials at n = {args.n}",
        "pattern of first inverse:",
        *(f"  {row}" for row in first_rows),
        "pattern of second inverse:",
        *(f"  {row}" for row in second_rows),
        "differing positions: " + " ".join(f"({i},{j})" for i, j in diff),
    ]
    document = {
        "found": True,
        "n": args.n,
        "trials_used": found.trials_used,
        "first_pattern_rows": first_rows,
        "second_pattern_rows": second_rows,
        "differing_positions": diff,
    }
    if args.out:
        first_path = f"{args.out}-a.txt"
        second_path = f"{args.out}-b.txt"
        diff_path = f"{args.out}-diff.txt"
        write_matrix(first_path, found.first, comment="complete-graph DN matrix, first of a non-uniqueness pair")
        write_matrix(second_path, found.second, comment="complete-graph DN matrix, second of a non-uniqueness pair")
        with open(diff_path, "w", encoding="utf-8") as handle:
            handle.write("# inverse sign patterns of the paired matrices\n")
            handle.write(f"{args.n}\n")
            for row in first_rows + second_rows:
                handle.write(row + "\n")
            for i, j in diff:
                handle.write(f"# differ at ({i}, {j})\n")
        document["files"] = [first_path, second_path, diff_path]
        lines.append(f"wrote {first_path} {second_path} {diff_path}")
    _emit(args, document, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the life of the process.

    Each subcommand names its handler instead of holding it, so ``main``
    looks the handler up in this module on every call.
    """
    parser = argparse.ArgumentParser(
        prog="dninverse",
        description="Sign patterns of inverses of doubly nonnegative matrices: "
        "feasibility decisions, witness synthesis, tree predictions, and "
        "randomized verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True):
        p.add_argument("--json", action="store_true", help="emit a JSON document on stdout")
        if tol:
            p.add_argument(
                "--tol-zero",
                type=_rel_tolerance,
                default=REL_TOL_ZERO,
                metavar="REL",
                help="relative zero threshold for entry classification "
                "(default %(default)g times the largest magnitude)",
            )

    p = sub.add_parser("check", help="decide feasibility of a sign pattern file")
    p.add_argument("pattern", help="sign matrix file")
    add_common(p, tol=False)
    p.set_defaults(func="_cmd_check")

    p = sub.add_parser("witness", help="synthesize a matrix realizing a feasible pattern")
    p.add_argument("pattern", help="sign matrix file")
    p.add_argument("--out", required=True, help="matrix file to write")
    add_common(p)
    p.set_defaults(func="_cmd_witness")

    p = sub.add_parser("predict", help="predict the inverse sign pattern of a tree")
    p.add_argument("graph", help="edge-list graph file (must be a tree)")
    p.add_argument("--distances", action="store_true", help="show the distance parity behind each off-diagonal sign")
    p.add_argument("--out", help="optional sign matrix file to write")
    add_common(p, tol=False)
    p.set_defaults(func="_cmd_predict")

    p = sub.add_parser("verify", help="check a matrix file for doubly nonnegative membership")
    p.add_argument("matrix", help="matrix file")
    add_common(p)
    p.set_defaults(func="_cmd_verify")

    p = sub.add_parser("fuzz", help="run randomized verification campaigns")
    p.add_argument(
        "--theorem",
        choices=("1", "2", "all"),
        default="all",
        help="1 fuzzes the feasibility conditions on inverses of random DN "
        "matrices, 2 fuzzes the tree two-coloring prediction (default all)",
    )
    p.add_argument("--trials", type=_nonneg_int, required=True, help="number of trials")
    p.add_argument("--seed", type=_seed_value, required=True, help="campaign seed")
    p.add_argument("--n-min", type=int, default=2, help="smallest size (default 2)")
    p.add_argument("--n-max", type=int, default=12, help="largest size (default 12)")
    p.add_argument("--density", type=_density, default=None, help="fix the density instead of drawing it per trial")
    p.add_argument("--out", help="optional JSON report file")
    add_common(p)
    p.set_defaults(func="_cmd_fuzz")

    p = sub.add_parser(
        "search-nonunique",
        aliases=["search"],
        help="find two complete-graph matrices with different inverse sign patterns",
    )
    p.add_argument("--n", type=int, default=3, help="matrix size (default 3)")
    p.add_argument("--max-trials", type=_nonneg_int, default=100_000, help="trial budget (default %(default)s)")
    p.add_argument("--seed", type=_seed_value, required=True, help="search seed")
    p.add_argument("--out", help="prefix for the pair files PREFIX-a.txt, PREFIX-b.txt, PREFIX-diff.txt")
    add_common(p)
    p.set_defaults(func="_cmd_search_nonunique")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[args.func]
    try:
        with single_blas_thread():
            return handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DnInverseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # too large a size for this machine, not a negative answer
        message = str(exc) or "out of memory"
    # printed once the traceback, and with it the failed verb's frames and memory, is gone
    print(f"error: {message}", file=sys.stderr)
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
