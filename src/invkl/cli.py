"""Command line interface: tables, verification, characters, cells.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 when a
mathematical invariant fails (the message names the violated identity and
the first counterexample is serialized to stderr).  Output is assembled
after all computation finishes.  Every build runs in one thread; --jobs is
validated (at least 1) and kept for scripts, and has no effect on output.
Each command accepts only the options it reads: --max-length (at least 0)
belongs to table and kl, and verify writes json or text but not csv.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .canonical import CanonicalBasis
from .cells import DEFAULT_CELL_CAP, compute_cells, involutions_per_cell
from .coxeter import build_system
from .errors import InvariantError
from .invmodule import InvolutionModule
from .klclassic import KLTable
from .specialize import SpecializedModule
from .verify import run_suites

__all__ = ["main", "build_parser"]

_FORMATS = ("json", "csv", "text")


def _length_cap(text):
    """Parse --max-length: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="invkl",
        description=(
            "Kazhdan-Lusztig tables and canonical bases for the Hecke module "
            "spanned by (twisted) involutions of a finite Coxeter group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--type", required=True, metavar="LABEL",
        help='system descriptor, e.g. "A3", "B2", "I2(5)", "A2xA1"',
    )
    common.add_argument(
        "--twisted", default=None, metavar="delta=I,J,...",
        help="diagram involution as a permutation of generator indices",
    )
    common.add_argument(
        "--jobs", type=int, default=1,
        help="must be at least 1; builds run serially and output does not depend on it",
    )
    common.add_argument(
        "--experimental", action="store_true",
        help="allow non-crystallographic types such as I2(5) or H3",
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")

    def command(name, summary, formats=_FORMATS, max_length=False):
        """A subcommand with the common options plus the ones it reads."""
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--format", choices=formats, default="json")
        if max_length:
            p.add_argument(
                "--max-length", type=_length_cap, default=None,
                help="build and print only columns of at most this length",
            )
        return p

    p_table = command(
        "table",
        "involution Kazhdan-Lusztig table (P-sigma, optionally classical P)",
        max_length=True,
    )
    p_table.add_argument(
        "--classic", action="store_true",
        help="include the classical polynomial of each involution pair",
    )
    command("kl", "classical Kazhdan-Lusztig table", max_length=True)
    command("verify", "run all verification suites", formats=("json", "text"))
    command("character", "u=1 characters per class")
    p_cells = command("cells", "two-sided cells")
    p_cells.add_argument(
        "--max-elements", type=int, default=DEFAULT_CELL_CAP,
        help="element-count gate for the cell computation",
    )
    return parser


def _make_system(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    system = build_system(args.type, delta=args.twisted)
    if not system.crystallographic and not args.experimental:
        raise ValueError(
            f"type {args.type!r} is experimental; pass --experimental to allow it"
        )
    return system


def _system_header(system):
    return {
        "type": system.type_label,
        "rank": system.rank,
        "delta": list(system.delta) if system.is_twisted else None,
    }


def _word_str(word):
    return ".".join(str(s) for s in word) if word else "e"


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload):
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _csv_lines(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _involution_pairs(system, module, max_length):
    """Comparable involution pairs (y, w), both in (length, word) order."""
    return [
        (yid, wid)
        for wid in module.involution_ids
        if max_length is None or system.length_of(wid) <= max_length
        for yid in module.interval(wid)
    ]


def cmd_table(args):
    system = _make_system(args)
    module = InvolutionModule(system)
    basis = CanonicalBasis(module).build(
        jobs=args.jobs, max_length=args.max_length
    )
    kl = KLTable(system) if args.classic else None
    # one pass over the pairs; each format below consumes it once, so no
    # second copy of the table is held while the output is assembled
    rows = (
        (
            system.word_of(yid),
            system.word_of(wid),
            basis.sigma_kl(yid, wid),
            kl.kl_poly_ids(yid, wid) if kl is not None else None,
        )
        for yid, wid in _involution_pairs(system, module, args.max_length)
    )
    if args.format == "json":
        entries = []
        for y, w, sigma, classic in rows:
            entry = {
                "y_word": list(y),
                "w_word": list(w),
                "sigma_poly": sigma.to_json_obj(),
            }
            if classic is not None:
                entry["classic_poly"] = classic.to_json_obj()
            entries.append(entry)
        _emit(args, _dump_json(
            {"command": "table", "system": _system_header(system), "entries": entries}
        ))
    elif args.format == "csv":
        header = ["y_word", "w_word", "poly"] + (
            ["classic_poly"] if kl is not None else []
        )
        table = [
            [_word_str(y), _word_str(w), sigma.pair_string()]
            + ([classic.pair_string()] if classic is not None else [])
            for y, w, sigma, classic in rows
        ]
        _emit(args, _csv_lines(header, table))
    else:
        lines = [f"involution table for {system!r}"]
        for y, w, sigma, classic in rows:
            line = f"P[{_word_str(y)}, {_word_str(w)}] = {sigma}"
            if classic is not None:
                line += f"  (classical {classic})"
            lines.append(line)
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_kl(args):
    system = _make_system(args)
    kl = KLTable(system)
    elements = kl.build_full(jobs=args.jobs, max_length=args.max_length)
    # elements are in (length, word) order, so the pairs come out sorted
    pairs = []
    for w in elements:
        column = kl.column(w.id)
        pairs.extend((y, w) for y in elements if y.id in column)
    if args.format == "json":
        entries = [
            {
                "y_word": list(y.word),
                "w_word": list(w.word),
                "poly": kl.kl_poly_ids(y.id, w.id).to_json_obj(),
            }
            for y, w in pairs
        ]
        _emit(args, _dump_json(
            {"command": "kl", "system": _system_header(system), "entries": entries}
        ))
    elif args.format == "csv":
        rows = [
            [
                _word_str(y.word),
                _word_str(w.word),
                kl.kl_poly_ids(y.id, w.id).pair_string(),
            ]
            for y, w in pairs
        ]
        _emit(args, _csv_lines(["y_word", "w_word", "poly"], rows))
    else:
        lines = [f"classical table for {system!r}"]
        lines += [
            f"P[{_word_str(y.word)}, {_word_str(w.word)}] = "
            f"{kl.kl_poly_ids(y.id, w.id)}"
            for y, w in pairs
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    system = _make_system(args)
    results = run_suites(system, jobs=args.jobs)
    payload = {
        "command": "verify",
        "system": _system_header(system),
        "suites": [
            {
                "name": r.name,
                "checks": r.checks,
                "failures": len(r.failures),
                "advisory": r.advisory,
                "skipped": r.skipped or None,
            }
            for r in results
        ],
    }
    hard_failures = [r for r in results if not r.ok() and not r.advisory]
    payload["ok"] = not hard_failures
    if args.format == "json":
        _emit(args, _dump_json(payload))
    else:
        lines = [f"verification of {system!r}"]
        for r in results:
            if r.skipped:
                status = f"skipped ({r.skipped})"
            elif r.ok():
                status = f"{r.checks} checks passed"
            else:
                kind = "advisory " if r.advisory else ""
                status = f"{r.checks} checks, {len(r.failures)} {kind}FAILURES"
            lines.append(f"  {r.name:<20} {status}")
        lines.append("result: " + ("PASS" if payload["ok"] else "FAIL"))
        _emit(args, "\n".join(lines) + "\n")
    if hard_failures:
        first = hard_failures[0]
        sys.stderr.write(
            "invariant violated in suite "
            + first.name
            + ": "
            + json.dumps(first.failures[0], default=str)
            + "\n"
        )
        return 3
    return 0


def cmd_character(args):
    system = _make_system(args)
    spec = SpecializedModule(InvolutionModule(system))
    rows = spec.class_function_report()
    mismatch = [r for r in rows if r["chi_m1"] != r["chi_induced"]]
    if args.format == "json":
        _emit(args, _dump_json(
            {
                "command": "character",
                "system": _system_header(system),
                "dimension": len(spec.basis),
                "classes": rows,
                "induced_matches": not mismatch,
            }
        ))
    elif args.format == "csv":
        table = [
            [
                _word_str(tuple(r["class_rep_word"])),
                r["class_size"],
                r["chi_m1"],
                r["chi_induced"],
            ]
            for r in rows
        ]
        _emit(args, _csv_lines(
            ["class_rep_word", "class_size", "chi_m1", "chi_induced"], table
        ))
    else:
        lines = [f"u=1 characters for {system!r} (dimension {len(spec.basis)})"]
        for r in rows:
            lines.append(
                f"  class {_word_str(tuple(r['class_rep_word'])):<12} "
                f"size {r['class_size']:<4} chi={r['chi_m1']} "
                f"induced={r['chi_induced']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    if mismatch:
        sys.stderr.write(
            "invariant violated: induced character sum differs at class "
            + json.dumps(mismatch[0])
            + "\n"
        )
        return 3
    return 0


def cmd_cells(args):
    system = _make_system(args)
    kl = KLTable(system)
    partition = compute_cells(kl, cap=args.max_elements)
    module = InvolutionModule(system)
    counts = involutions_per_cell(partition, module)
    cells_payload = []
    for cell, count in zip(partition.cells, counts):
        min_length = min(system.length_of(w) for w in cell)
        reps = sorted(
            system.word_of(w) for w in cell if system.length_of(w) == min_length
        )
        cells_payload.append(
            {
                "size": len(cell),
                "involution_count": count,
                "representatives": [list(w) for w in reps],
            }
        )
    if args.format == "json":
        _emit(args, _dump_json(
            {
                "command": "cells",
                "system": _system_header(system),
                "cells": cells_payload,
            }
        ))
    elif args.format == "csv":
        rows = [
            [
                c["size"],
                c["involution_count"],
                ";".join(_word_str(tuple(w)) for w in c["representatives"]),
            ]
            for c in cells_payload
        ]
        _emit(args, _csv_lines(["size", "involution_count", "representatives"], rows))
    else:
        lines = [f"two-sided cells of {system!r}"]
        for c in cells_payload:
            reps = " ".join(_word_str(tuple(w)) for w in c["representatives"])
            lines.append(
                f"  size {c['size']:<5} involutions {c['involution_count']:<4} "
                f"minimal members: {reps}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "table": cmd_table,
    "kl": cmd_kl,
    "verify": cmd_verify,
    "character": cmd_character,
    "cells": cmd_cells,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
