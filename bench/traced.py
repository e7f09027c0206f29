"""Traced in-process run of one workload.

For each command this calls the public functions of each invkl module in
the order the CLI command does, with one span around each layer call.  The
command's root span is named like its CLI metric (``cli.table.F4``); it
covers the work the CLI does before formatting output, on a fresh system,
as the CLI process would.  Counts are taken from the calls' return values
after the root span closes, so counting does not inflate the traced time.

Usage: python -m bench.traced WORKLOAD ORDER OUT_JSON
(ORDER is a comma-separated permutation of the workload's command indices.)
Exits 0 after writing OUT_JSON, also when a check failed: failures are
listed in the file.
"""

from __future__ import annotations

import json
import sys

from invkl import build_system, verify
from invkl.canonical import CanonicalBasis
from invkl.cells import compute_cells, involutions_per_cell
from invkl.invmodule import InvolutionModule
from invkl.klclassic import KLTable
from invkl.specialize import SpecializedModule

from bench.spans import Tracer
from bench.workloads import VERIFY_SUITES, WORKLOADS

SUITES = {
    "quadratic": verify.suite_quadratic,
    "braid": verify.suite_braid,
    "bar": verify.suite_bar,
    "bar-oracle": verify.suite_bar_oracle,
    "canonical-oracle": verify.suite_canonical_oracle,
    "parity": verify.suite_parity,
    "descent-stability": verify.suite_descent_stability,
    "cs-action": verify.suite_cs_action,
    "specialize-u1": verify.suite_specialize,
}


def _system(tr, cmd):
    with tr.span("coxeter.build_system"):
        return build_system(cmd.type, delta=cmd.delta)


def _enumerate(tr, system):
    with tr.span("coxeter.enumerate_all"):
        elements = system.enumerate_all()
    tr.count("coxeter.elements", len(elements))
    return elements


def _involutions(tr, system):
    with tr.span("coxeter.involutions"):
        ids = system.twisted_involution_ids()
    tr.count("coxeter.involutions", len(ids))
    return ids


def _bruhat_pairs(tr, system, ids, length_gate):
    """The (y, w) pairs the CLI lists; ``length_gate`` mirrors ``kl``'s filter."""
    leq, length = system.bruhat_leq_ids, system.length_of
    with tr.span("coxeter.bruhat_pairs"):
        pairs = [
            (y, w)
            for w in ids
            for y in ids
            if (not length_gate or length(y) <= length(w)) and leq(y, w)
        ]
    tr.count("coxeter.bruhat_pairs", len(pairs))
    return pairs


def trace_table(tr, cmd, failures):
    with tr.span(cmd.metric):
        system = _system(tr, cmd)
        involutions = _involutions(tr, system)
        module = InvolutionModule(system)
        with tr.span("canonical.build"):
            basis = CanonicalBasis(module).build(jobs=1)
        pairs = _bruhat_pairs(tr, system, involutions, length_gate=False)
    tr.count(
        "canonical.nonzero_pi", sum(not basis.pi(y, w).is_zero for y, w in pairs)
    )


def trace_kl(tr, cmd, failures):
    with tr.span(cmd.metric):
        system = _system(tr, cmd)
        elements = _enumerate(tr, system)
        kl = KLTable(system)
        with tr.span("klclassic.build_full"):
            kl.build_full(jobs=1)
        pairs = _bruhat_pairs(tr, system, [e.id for e in elements], length_gate=True)
    polys = [kl.kl_poly_ids(y, w) for y, w in pairs]
    tr.count("klclassic.nonzero_p", sum(not p.is_zero for p in polys))
    tr.count("klclassic.distinct_p", len(set(polys)))


def trace_cells(tr, cmd, failures):
    with tr.span(cmd.metric):
        system = _system(tr, cmd)
        _enumerate(tr, system)
        with tr.span("cells.compute"):
            partition = compute_cells(KLTable(system))
        _involutions(tr, system)
        involutions_per_cell(partition, InvolutionModule(system))
    tr.count("cells.count", len(partition.cells))


def trace_verify(tr, cmd, failures):
    with tr.span(cmd.metric):
        system = _system(tr, cmd)
        ctx = verify.VerificationContext(system, jobs=1)
        _enumerate(tr, system)
        _involutions(tr, system)
        # bar(a_w) for every w is memoized, so this moves the first half of
        # the bar suite's work into its own span without adding any.
        with tr.span("invmodule.bar_table"):
            bars = [ctx.module.bar_basis(w) for w in ctx.module.involution_ids]
        tr.count("invmodule.bar_terms", sum(len(b.entries) for b in bars))
        for name in VERIFY_SUITES:
            with tr.span(f"verify.{cmd.tag}.{name}"):
                result = SUITES[name](ctx)
            tr.count(f"verify.{cmd.tag}.{name}.checks", result.checks)
            if result.failures and not result.advisory:
                failures.append(f"{cmd.key}: suite {name} failed")
    # Not on the CLI path: the specialize-u1 suite builds these matrices on a
    # private module, so they are timed once more here, on the same system.
    if not system.is_twisted and system.crystallographic:
        with tr.span("specialize.m1_matrices"):
            SpecializedModule(InvolutionModule(system)).m1_matrices()


def trace_character(tr, cmd, failures):
    with tr.span(cmd.metric):
        system = _system(tr, cmd)
        _enumerate(tr, system)
        with tr.span("coxeter.conjugacy_classes"):
            classes = system.conjugacy_classes()
        tr.count("coxeter.classes", len(classes))
        _involutions(tr, system)
        spec = SpecializedModule(InvolutionModule(system))
        with tr.span("specialize.class_report"):
            rows = spec.class_function_report()
    if any(r["chi_m1"] != r["chi_induced"] for r in rows):
        failures.append(f"{cmd.key}: induced character sum differs")


TRACERS = {
    "table": trace_table,
    "kl": trace_kl,
    "cells": trace_cells,
    "verify": trace_verify,
    "character": trace_character,
}


def trace_workload(workload, order):
    """Run the workload's commands in ``order``; return (tracer, failures)."""
    if tuple(verify.SUITE_NAMES) != VERIFY_SUITES or tuple(SUITES) != VERIFY_SUITES:
        raise RuntimeError("invkl.verify.SUITE_NAMES changed; update bench")
    tr = Tracer()
    failures = []
    for i in order:
        cmd = workload.commands[i]
        TRACERS[cmd.name](tr, cmd, failures)
    return tr, failures


def main(argv):
    name, order, out_path = argv
    tr, failures = trace_workload(
        WORKLOADS[name], [int(i) for i in order.split(",")]
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(dict(tr.to_json(), failures=failures), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
