"""Benchmark for the invkl command line tools.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --ladder [--out PATH]
    python3 bench/run.py --record          # rewrite bench/expected.json
    python3 bench/run.py --write-manifest  # rewrite BENCHMARK.json

A measuring run times fresh ``python -m invkl`` processes, one at a time, in
a closed loop with one client, for about S seconds (at least two reps with
--trace 0).  Every command's stdout digest and pass/fail flag is checked
against ``bench/expected.json``.  With --trace 1 it adds one in-process run
that times each layer call (``bench/traced.py``) and reports the per-layer
metrics instead of the end-to-end ones.  The last line of stdout is the JSON
result; raw data goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import ladder, measure, spans  # noqa: E402
from bench.workloads import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

HARD_LIMIT_S = 165.0  # the whole run must end well within 180 s
MIN_REPS = 2
SETUP_SPAWNS = 3  # set-up spawns per distinct system in every rep

# measure.calibrate() on the reference host: a 2-vCPU 2.1 GHz Xeon VM with
# Python 3.11.7.  Times are scaled to that host's speed (see Run.timed).
REF_CALIB_S = 0.024
# On that host a command's time grows as the loop's time to this power
# (least squares over 210 children of four commands gave 0.64 to 0.74).
HOST_EXPONENT = 0.7

_SETUP_CODE = (
    "import sys, invkl; invkl.build_system(sys.argv[1], delta=sys.argv[2] or None)"
)


def cli_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def bench_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))


def cli_argv(cmd):
    return [sys.executable, "-m", "invkl", *cmd.argv()]


def setup_argv(cmd):
    return [sys.executable, "-c", _SETUP_CODE, cmd.type, cmd.delta or ""]


class Run:
    """One measuring run: a clock, a deadline and the tally of failures."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.calibs = [measure.calibrate()]
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        self.digests = expected.get("commands", {})
        self.counts = expected.get("counts", {}).get(workload.name, {})

    def elapsed(self):
        return time.perf_counter() - self.start

    def child(self, argv, env):
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        return measure.run_child(argv, env=env, cwd=ROOT, timeout=timeout, tmp_dir=OUT)

    def timed(self, argv, env):
        """Run one child between two calibration loops.

        Returns the result and the factor that scales its times to the
        reference host: REF_CALIB_S over the mean of the loops just before
        and just after it, to the power HOST_EXPONENT.  The host's speed
        drifts by up to 1.5x over minutes, so raw times of the same code
        differ between runs by more than the bounds; the loops run at the
        speed the child ran at.
        """
        before = self.calibs[-1]
        res = self.child(argv, env)
        self.calibs.append(measure.calibrate())
        self.attempted += 1
        return res, (REF_CALIB_S / ((before + self.calibs[-1]) / 2)) ** HOST_EXPONENT

    def order(self):
        idx = list(range(len(self.workload.commands)))
        self.rng.shuffle(idx)
        return idx

    def fail(self, what, why):
        self.failures.append(f"{what}: {why}")

    def setup_spawn(self, cmd):
        res, scale = self.timed(setup_argv(cmd), cli_env())
        if res.exit_code != 0:
            self.fail(f"setup {cmd.system}", f"exit code {res.exit_code}")
        return res.wall_s * scale

    def rep(self, with_setup):
        """Run every command once, in a seeded order.

        With ``with_setup`` the rep first times SETUP_SPAWNS set-up spawns
        per distinct system, so that set-up samples spread over the run
        like the others.
        """
        start = time.perf_counter()
        order = self.order()
        rep = {"order": order, "setup": {}, "commands": {}}
        for cmd in (self.workload.commands[i] for i in order):
            if with_setup and cmd.system not in rep["setup"]:
                rep["setup"][cmd.system] = [self.setup_spawn(cmd) for _ in range(SETUP_SPAWNS)]
        for i in order:
            cmd = self.workload.commands[i]
            res, scale = self.timed(cli_argv(cmd), cli_env())
            why = measure.check_output(
                res,
                self.digests.get(cmd.key, {}).get("sha256"),
                measure.FLAGS.get(cmd.name),
            )
            if why:
                self.fail(cmd.key, why)
            rep["commands"][cmd.key] = {
                "wall_s": res.wall_s,
                "cpu_s": res.cpu_s,
                "scale": scale,
                "rss_mb": res.rss_mb,
                "bytes": res.nbytes,
                "sha256": res.sha256,
                "exit_code": res.exit_code,
                "failure": why,
            }
        commands = rep["commands"].values()
        rep["wall_s"] = sum(c["wall_s"] * c["scale"] for c in commands)
        rep["raw_wall_s"] = sum(c["wall_s"] for c in commands)
        rep["cpu_s"] = sum(c["cpu_s"] for c in commands)
        rep["peak_rss_mb"] = max(c["rss_mb"] for c in commands)
        rep["elapsed_s"] = time.perf_counter() - start
        return rep

    def reps(self, budget_s, min_reps, with_setup):
        """Reps until the next one would end past ``budget_s``."""
        out = []
        while True:
            out.append(self.rep(with_setup))
            ends_at = self.elapsed() + statistics.median(r["elapsed_s"] for r in out)
            if ends_at > HARD_LIMIT_S - 5:
                break
            if len(out) >= min_reps and ends_at > budget_s:
                break
        return out

    def traced(self, order):
        """The in-process traced run, in its own child.

        Returns its JSON with the child's own wall time, scaled like the
        untraced runs, added as ``wall_s``.
        """
        path = OUT / f"spans-{self.workload.name}.json"
        if path.exists():
            path.unlink()
        argv = [
            sys.executable, "-m", "bench.traced",
            self.workload.name, ",".join(map(str, order)), str(path),
        ]
        res, scale = self.timed(argv, bench_env())
        if res.exit_code != 0 or not path.exists():
            self.fail("traced run", f"exit code {res.exit_code}: {res.stderr_tail[-300:]}")
            return None
        data = json.loads(path.read_text())
        for why in data["failures"]:
            self.fail("traced run", why)
        data["wall_s"] = res.wall_s * scale
        return data

    def check_counts(self, counts):
        """Every count recorded for this workload must repeat exactly."""
        if not self.counts:
            self.fail("traced run", "no recorded counts")
        for name, want in self.counts.items():
            got = counts.get(name)
            if got != want:
                self.fail("traced run", f"count {name} = {got}, recorded {want}")


def end_to_end_metrics(run):
    reps = run.reps(run.seconds, MIN_REPS, with_setup=True)
    commands = run.workload.commands
    setup = {
        c.system: statistics.median(t for r in reps for t in r["setup"][c.system])
        for c in commands
    }
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": sum(setup[c.system] for c in commands),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    unscaled = {
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "host.calib_s": statistics.median(run.calibs),
    }
    return metrics, {"unscaled": unscaled, "reps": reps, "calibs": run.calibs}


def per_layer_metrics(run):
    reps = run.reps(run.seconds / 2, 1, with_setup=False)
    data = run.traced(reps[0]["order"])
    metrics = {m.name: 0 for m in PER_LAYER}
    metrics["host.calib_s"] = statistics.median(run.calibs)
    raw = {"reps": reps, "calibs": run.calibs, "trace": data}
    if data is None:
        return metrics, raw
    run.check_counts(data["counts"])
    span_list = spans.spans_from_json(data["spans"])
    totals = spans.totals_by_name(span_list)
    roots = {s.name: s for s in span_list if s.parent is None}
    for m in PER_LAYER:
        if m.name.endswith("_s") and m.name[:-2] in totals and not m.name.startswith("cli."):
            metrics[m.name] = totals[m.name[:-2]]
    metrics.update({k: v for k, v in data["counts"].items() if k in metrics})
    for cmd in run.workload.commands:
        rows = [r["commands"][cmd.key] for r in reps]
        wall = statistics.median(c["wall_s"] for c in rows)
        metrics[f"{cmd.metric}_s"] = wall
        metrics[f"{cmd.metric}.cpu_s"] = statistics.median(c["cpu_s"] for c in rows)
        metrics[f"{cmd.metric}.bytes"] = rows[-1]["bytes"]
        metrics[f"{cmd.metric}.self_s"] = wall - spans.child_time(roots[cmd.metric], span_list)
    # The traced child runs the same commands in one process; the extra
    # m1_matrices span is not on the CLI path, so it is left out.
    traced_wall = data["wall_s"] - totals.get("specialize.m1_matrices", 0.0)
    metrics["trace.overhead"] = traced_wall / statistics.median(r["wall_s"] for r in reps)
    return metrics, raw


def measure_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    run = Run(workload, seed, seconds)
    # Compile the package's bytecode once, so no timed child pays for it.
    run.child([sys.executable, "-c", "import invkl.cli"], cli_env())
    declared = PER_LAYER if trace else END_TO_END
    metrics, raw = (per_layer_metrics if trace else end_to_end_metrics)(run)
    units = {m.name: m.unit for m in declared}
    print(f"workload {name}  seed {seed}  trace {trace}  elapsed {run.elapsed():.1f} s")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {units[key]}")
    for key, value in raw.get("unscaled", {}).items():
        print(f"  ({key:<38} {value:>14.6g} unscaled, not gated)")
    for why in run.failures:
        print(f"  FAILED {why}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": metrics, "failures": run.failures, **raw,
    }
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record_expected():
    """Record each command's stdout digest and each workload's counts."""
    out = {"commands": {}, "counts": {}}
    for workload in WORKLOADS.values():
        run = Run(workload, 0, 0)
        for cmd in workload.commands:
            res = run.child(cli_argv(cmd), cli_env())
            flag = measure.FLAGS.get(cmd.name)
            why = measure.check_output(res, res.sha256, flag)
            if why:
                raise SystemExit(f"{cmd.key}: {why}")
            out["commands"][cmd.key] = {"sha256": res.sha256, "bytes": res.nbytes}
        data = run.traced(list(range(len(workload.commands))))
        if data is None or run.failures:
            raise SystemExit(f"{workload.name}: traced run failed: {run.failures}")
        out["counts"][workload.name] = dict(sorted(data["counts"].items()))
        print(f"recorded {workload.name}", flush=True)
    EXPECTED.write_text(json.dumps(out, indent=2) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true")
    parser.add_argument("--out", default=None, help="ladder: report path")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "invkl" / "__init__.py").is_file():
        sys.stderr.write(f"error: no invkl package under {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.ladder:
        return ladder.main(args.out, bench_env(), ROOT, OUT)
    if args.record:
        return record_expected()
    if args.workload is None:
        parser.error("--workload is required")
    return measure_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
