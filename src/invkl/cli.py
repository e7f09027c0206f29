"""Command line interface: tables, verification, characters, cells.

Exit codes: 0 on success, 2 on configuration or usage errors and when the
interpreter runs out of memory (one ``error: out of memory`` line on
stderr, as for the element cap), 3 when a mathematical invariant fails (the
message names the violated identity and the first counterexample is
serialized to stderr).  Each command finishes
everything that can raise before the first byte is written, then streams
its rows through one writer, so a failure leaves stdout empty and creates
no --out file, and no command holds its whole table or its whole output
text: the writer joins the rows into blocks of at least 64 KiB, one
``write`` each.  table and kl hand the writer one column at a time, and a
column renders to one text, its rows joined by the format's separator, in
one ``join`` and with no Python step per row: a parts list holds the
fields of every row in turn, and each field is filled by one
extended-slice assignment, from a ``map`` pass over the column's y ids
(the word texts, the polynomial texts read through the column's ``get``,
the classical ones with --classic) or as one repeated text (the w-part,
the separators).  json, csv, text and --classic all render so.  The texts
are rendered once per command: each element's word and each distinct
polynomial (keyed by its packed int) is formatted on first sight and
reused by every later row that holds it, and the w-part of a row once per
column.  Each command accepts
only the options it reads: --max-length (at least 0) belongs to table and
kl, --max-elements (at least 1) to cells, and verify writes json or text
but not csv.  Each command imports only the layers it runs, inside its
``cmd_*`` function:

* ``table``: the involution index, the canonical build and ``packed``, plus
  the classical table with --classic;
* ``kl``: the classical table and ``packed``;
* ``cells``: the cells graph, the classical table, ``packed`` and the
  involution index, which counts the involutions of each cell;
* ``character``: the involution index and the u=1 module;
* ``verify``: the suites, and through them every layer above plus the
  involution module's arithmetic.

So only ``verify`` compiles the module arithmetic (``invmodule``); no
command takes a product in the T basis of the Hecke algebra.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote

from .coxeter import build_system
from .errors import InvariantError
from .laurent import spread

__all__ = ["main", "build_parser"]

_FORMATS = ("json", "csv", "text")
_BLOCK = 1 << 16  # characters per write; every block but the last holds at least this


def _int_at_least(minimum):
    """An argparse type: an integer of at least ``minimum``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


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
                "--max-length", type=_int_at_least(0), default=None,
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
        "--max-elements", type=_int_at_least(1), default=None,
        help="element-count gate for the cell computation",
    )
    return parser


def _make_system(args):
    system = build_system(args.type, delta=args.twisted)
    if not system.crystallographic and not args.experimental:
        raise ValueError(
            f"type {args.type!r} is experimental; pass --experimental to allow it"
        )
    return system


def _head(command, system, **keys):
    """The json keys written before a command's list."""
    header = {
        "type": system.type_label,
        "rank": system.rank,
        "delta": list(system.delta) if system.is_twisted else None,
    }
    return {"command": command, "system": header, **keys}


def _word_str(word):
    return ".".join(str(s) for s in word) if word else "e"


def _json(value, depth):
    """``value`` as ``json.dumps(..., indent=2)`` writes it at nesting ``depth``.

    A nonempty flat list of ints (a word) or flat dict of strings (a
    polynomial) is joined here directly; anything else goes through
    ``json.dumps``, whose indenting encoder is pure Python.
    """
    kind = type(value)
    if value and kind is list and {*map(type, value)} == {int}:
        items = map(str, value)
    elif value and kind is dict and {
        *map(type, value), *map(type, value.values())
    } == {str}:
        items = (f"{_quote(k)}: {_quote(v)}" for k, v in value.items())
    else:
        return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
    inner = "\n" + "  " * (depth + 1)
    ends = "[]" if kind is list else "{}"
    return ends[0] + inner + ("," + inner).join(items) + inner[:-2] + ends[1]


def _json_chunks(head, key, items, tail):
    """The text of ``json.dumps(doc, indent=2) + "\\n"``, one item at a time.

    ``doc`` holds the keys of ``head``, then ``key`` mapped to the list of
    entries that ``items`` yields, each already rendered as text at nesting
    depth 2, then the keys of ``tail``.
    """
    yield "{"
    for k, v in head.items():
        yield f"\n  {json.dumps(k)}: {_json(v, 1)},"
    yield f"\n  {json.dumps(key)}: ["
    sep = "\n    "
    for item in items:
        yield sep
        yield item
        sep = ",\n    "
    yield "]" if sep == "\n    " else "\n  ]"
    for k, v in tail.items():
        yield f",\n  {json.dumps(k)}: {_json(v, 1)}"
    yield "\n}\n"


def _csv(values):
    return ",".join(map(str, values))


def _write(args, rows, *, head, key, item, title, line, header=None,
           record=None, tail=None, footer=None):
    """Write ``rows`` in ``args.format`` to ``--out`` or stdout, row by row.

    json: the keys of ``head``, the list ``key`` of the entry texts
    ``item(row)``, then the keys of ``tail``.  csv: the ``header`` names,
    then the text ``record(row)`` per row.  text: ``title``, ``line(row)``
    per row, then ``footer`` if given.  A row may stand for several entries
    or lines: its text is then theirs joined by the format's separator
    (",\\n    " for json, a newline for csv and text).  The output is opened
    only here, after every computation that can raise has finished.
    """
    if args.format == "json":
        chunks = _json_chunks(head, key, map(item, rows), tail or {})
    else:
        if args.format == "csv":
            lines = chain([_csv(header)], map(record, rows))
        else:
            lines = chain([title], map(line, rows), [footer] if footer else [])
        chunks = chain.from_iterable(zip(lines, repeat("\n")))
    handle = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for block in _blocks(chunks):
            handle.write(block)
    finally:
        if args.out:
            handle.close()


def _blocks(chunks):
    """The chunks joined into blocks of at least ``_BLOCK`` characters.

    Only the last block may be shorter.
    """
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            yield "".join(block)
            block, size = [], 0
    if block:
        yield "".join(block)


def _involution_columns(module, basis, kl):
    """Per involution w of the module, in ShortLex order: (w, the y <= w in
    ShortLex order, column w of ``basis``, column w of ``kl`` or None)."""
    return (
        (
            wid, module.interval(wid), basis.column(wid),
            kl.column(wid) if kl is not None else None,
        )
        for wid in module.involution_ids
    )


class _Texts(dict):
    """Texts rendered on first lookup: ``texts[key]`` is ``render(key)``.

    A dict subscript, not a ``functools.cache`` call: this lookup runs
    several times per row and the subscript is the cheaper of the two.
    """

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _column_renderers(system, poly_key):
    """Renderers of a column (w id, y ids, {y: packed P}, classical column or None).

    A column renders to the texts of its rows (y, w), one per y in the order
    given, joined by the format's separator; a row reads P(y, w) from the
    column dict, 0 where y is missing, and likewise its classical P.  Each
    element's word and each distinct polynomial is rendered once per form,
    on first sight, and the w-part of a row is joined once per column, so
    no row unpacks a polynomial, builds a ``LaurentPoly`` or encodes a word;
    the rows are laid out field by field in one parts list and joined once.
    """
    from .packed import unpack

    word_json = _Texts(lambda wid: _json(list(system.word_of(wid)), 3))
    word_text = _Texts(lambda wid: _word_str(system.word_of(wid)))
    poly_json = _Texts(lambda p: _json(spread(unpack(p), 2).to_json_obj(), 3))
    poly_pairs = _Texts(lambda p: spread(unpack(p), 2).pair_string())
    poly_text = _Texts(lambda p: str(spread(unpack(p), 2)))

    def renderer(word, poly, pre, mid, post, classic_pre, classic_post, end, sep):
        """Row (y, w) reads pre y mid w post P [classic_pre P classic_post] end."""
        between = end + sep + pre
        word_at, poly_at = word.__getitem__, poly.__getitem__

        def render(column):
            wid, ys, col, classic = column
            if not ys:
                return pre + end
            # k slots per row, the last one the separator after it
            n, k = len(ys), 4 if classic is None else 7
            parts = [between] * (k * n + 1)
            parts[0], parts[-1] = pre, end
            parts[1::k] = map(word_at, ys)
            parts[2::k] = [mid + word[wid] + post] * n
            parts[3::k] = map(poly_at, map(col.get, ys, repeat(0)))
            if classic is not None:
                parts[4::k] = [classic_pre] * n
                parts[5::k] = map(poly_at, map(classic.get, ys, repeat(0)))
                parts[6::k] = [classic_post] * n
            return "".join(parts)

        return render

    return {
        "item": renderer(
            word_json, poly_json, '{\n      "y_word": ', ',\n      "w_word": ',
            f",\n      {json.dumps(poly_key)}: ", ',\n      "classic_poly": ', "",
            "\n    }", ",\n    ",
        ),
        "record": renderer(word_text, poly_pairs, "", ",", ",", ",", "", "", "\n"),
        "line": renderer(
            word_text, poly_text, "P[", ", ", "] = ", "  (classical ", ")", "", "\n",
        ),
    }


def cmd_table(args):
    from .canonical import CanonicalBasis
    from .involutions import Involutions

    system = _make_system(args)
    module = Involutions(system, args.max_length)
    basis = CanonicalBasis(module).build()
    kl = None
    if args.classic:
        from .klclassic import KLTable

        kl = KLTable(system)
        for wid in module.involution_ids:
            kl.column(wid)
    header = ["y_word", "w_word", "poly"] + (["classic_poly"] if args.classic else [])
    _write(
        args, _involution_columns(module, basis, kl), head=_head("table", system),
        key="entries", header=header,
        title=f"involution table for {system!r}",
        **_column_renderers(system, "sigma_poly"),
    )
    return 0


def cmd_kl(args):
    from .klclassic import KLTable

    system = _make_system(args)
    kl = KLTable(system)
    ids = kl.build_full(max_length=args.max_length)
    order = {wid: i for i, wid in enumerate(ids)}
    # ids are in ShortLex order, and so are the rows of each column
    def columns():
        for wid in ids:
            column = kl.column(wid)
            yield wid, sorted(column, key=order.__getitem__), column, None

    _write(
        args, columns(), head=_head("kl", system), key="entries",
        header=["y_word", "w_word", "poly"],
        title=f"classical table for {system!r}", **_column_renderers(system, "poly"),
    )
    return 0


def cmd_verify(args):
    from .verify import run_suites

    system = _make_system(args)
    results = run_suites(system)
    failed = [r for r in results if not r.ok()]

    def line(r):
        if r.skipped:
            status = f"skipped ({r.skipped})"
        elif r.ok():
            status = f"{r.checks} checks passed"
        else:
            status = f"{r.checks} checks, {len(r.failures)} FAILURES"
        return f"  {r.name:<20} {status}"

    _write(
        args, results, head=_head("verify", system), key="suites",
        item=lambda r: _json({
            "name": r.name,
            "checks": r.checks,
            "failures": len(r.failures),
            "advisory": r.advisory,
            "skipped": r.skipped or None,
        }, 2),
        tail={"ok": not failed},
        title=f"verification of {system!r}", line=line,
        footer="result: " + ("FAIL" if failed else "PASS"),
    )
    if failed:
        first = failed[0]
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
    from .involutions import Involutions
    from .specialize import SpecializedModule

    system = _make_system(args)
    spec = SpecializedModule(Involutions(system))
    rows = spec.class_function_report()
    mismatch = [r for r in rows if r["chi_m1"] != r["chi_induced"]]
    _write(
        args, rows,
        head=_head("character", system, dimension=len(spec.basis)),
        key="classes", item=lambda r: _json(r, 2),
        tail={"induced_matches": not mismatch},
        header=["class_rep_word", "class_size", "chi_m1", "chi_induced"],
        record=lambda r: _csv([
            _word_str(r["class_rep_word"]),
            r["class_size"],
            r["chi_m1"],
            r["chi_induced"],
        ]),
        title=f"u=1 characters for {system!r} (dimension {len(spec.basis)})",
        line=lambda r: (
            f"  class {_word_str(r['class_rep_word']):<12} "
            f"size {r['class_size']:<4} chi={r['chi_m1']} "
            f"induced={r['chi_induced']}"
        ),
    )
    if mismatch:
        sys.stderr.write(
            "invariant violated: induced character sum differs at class "
            + json.dumps(mismatch[0])
            + "\n"
        )
        return 3
    return 0


def cmd_cells(args):
    from .cells import compute_cells, members_per_cell
    from .klclassic import KLTable

    system = _make_system(args)
    cap = {} if args.max_elements is None else {"cap": args.max_elements}
    partition = compute_cells(KLTable(system), **cap)
    counts = members_per_cell(partition, system.twisted_involution_ids())

    def representatives(cell):
        min_length = min(system.length_of(w) for w in cell)
        return sorted(
            system.word_of(w) for w in cell if system.length_of(w) == min_length
        )

    rows = (
        (len(cell), count, representatives(cell))
        for cell, count in zip(partition.cells, counts)
    )
    _write(
        args, rows, head=_head("cells", system), key="cells",
        item=lambda r: _json({
            "size": r[0],
            "involution_count": r[1],
            "representatives": [list(w) for w in r[2]],
        }, 2),
        header=["size", "involution_count", "representatives"],
        record=lambda r: _csv([r[0], r[1], ";".join(_word_str(w) for w in r[2])]),
        title=f"two-sided cells of {system!r}",
        line=lambda r: (
            f"  size {r[0]:<5} involutions {r[1]:<4} "
            f"minimal members: {' '.join(_word_str(w) for w in r[2])}"
        ),
    )
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
    except MemoryError:
        sys.stderr.write(
            f"error: out of memory running {args.command}; "
            "raise the memory limit or pick a smaller type\n"
        )
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
