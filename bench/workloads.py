"""Workload and metric definitions: the single source of ``BENCHMARK.json``.

The inputs are fixed Coxeter types, not generated data, so a workload is a
list of CLI commands.  The seed only permutes the order in which a rep runs
them.  Importing this module does not import ``invkl``: the measuring process
stays small, so each child's peak RSS is its own (see ``measure.run_child``).
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 30

# The nine suites of invkl.verify.SUITE_NAMES, in order.  The traced run
# refuses to start when the package's list differs, so a new suite cannot go
# unmeasured.
VERIFY_SUITES = (
    "quadratic",
    "braid",
    "bar",
    "bar-oracle",
    "canonical-oracle",
    "parity",
    "descent-stability",
    "cs-action",
    "specialize-u1",
)


@dataclass(frozen=True)
class Command:
    """One ``python -m invkl`` invocation."""

    name: str
    type: str
    tag: str
    delta: str | None = None
    experimental: bool = False

    def argv(self):
        out = [self.name, "--type", self.type]
        if self.delta is not None:
            out += ["--twisted", self.delta]
        if self.experimental:
            out.append("--experimental")
        return out

    @property
    def key(self):
        """Stable text key used in ``expected.json``."""
        return " ".join(self.argv())

    @property
    def metric(self):
        """Metric prefix; also the name of the command's root span."""
        return f"cli.{self.name}.{self.tag}"

    @property
    def system(self):
        """Names what ``build_system`` receives, which is what set-up times."""
        return self.type if self.delta is None else f"{self.type} --twisted {self.delta}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple


_I25A2 = dict(type="I2(5)xA2", tag="I2_5xA2", experimental=True)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "involution-table",
            "P-sigma tables of F4 and twisted D5: recursive canonical columns "
            "and Bruhat order on involutions; no classical KL, bar recursion "
            "or field engine",
            (
                Command("table", "F4", "F4"),
                Command("table", "D5", "D5-twisted", delta="0,1,2,4,3"),
            ),
        ),
        Workload(
            "classical-kl",
            "classical KL over a whole group (kl D4) and the cells mu-graph "
            "(cells D4); bypasses invmodule and canonical, and its 2.4 MB "
            "output exposes serialization and memory",
            (
                Command("kl", "D4", "D4"),
                Command("cells", "D4", "D4"),
            ),
        ),
        Workload(
            "verify-character",
            "bar recursion, bar_extended, column_barfix, parity KL and u=1 "
            "specialization (verify B3) plus all elements and classes of A5 "
            "(character): the check routes a table speedup could cost",
            (
                Command("verify", "B3", "B3"),
                Command("character", "A5", "A5"),
            ),
        ),
        Workload(
            "noncrystallographic",
            "table and kl on I2(5)xA2, the only workload on the exact "
            "cyclotomic field engine, where eager enumeration in build_system "
            "dominates",
            (
                Command("table", **_I25A2),
                Command("kl", **_I25A2),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def manifest(self):
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer_metrics():
    def s(name):
        return Metric(name, "s", "lower")

    def count(name):
        return Metric(name, "count", "higher")

    out = [
        s("coxeter.build_system_s"),
        s("coxeter.enumerate_all_s"),
        count("coxeter.elements"),
        s("coxeter.involutions_s"),
        count("coxeter.involutions"),
        s("coxeter.bruhat_pairs_s"),
        count("coxeter.bruhat_pairs"),
        s("coxeter.conjugacy_classes_s"),
        count("coxeter.classes"),
        s("canonical.build_s"),
        count("canonical.nonzero_pi"),
        s("invmodule.bar_table_s"),
        count("invmodule.bar_terms"),
        s("klclassic.build_full_s"),
        count("klclassic.nonzero_p"),
        count("klclassic.distinct_p"),
        s("cells.compute_s"),
        count("cells.count"),
        s("specialize.m1_matrices_s"),
        s("specialize.class_report_s"),
    ]
    verify_tags = sorted(
        {c.tag for w in WORKLOADS.values() for c in w.commands if c.name == "verify"}
    )
    for tag in verify_tags:
        for suite in VERIFY_SUITES:
            out.append(s(f"verify.{tag}.{suite}_s"))
            out.append(count(f"verify.{tag}.{suite}.checks"))
    for w in WORKLOADS.values():
        for c in w.commands:
            out.append(s(f"{c.metric}_s"))
            out.append(s(f"{c.metric}.cpu_s"))
            out.append(Metric(f"{c.metric}.bytes", "bytes", "lower"))
            out.append(s(f"{c.metric}.self_s"))
    out.append(Metric("trace.overhead", "ratio", "lower"))
    out.append(s("host.calib_s"))
    return tuple(out)


PER_LAYER = _layer_metrics()


def manifest():
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }
