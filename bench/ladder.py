"""Ungated ladder report: per-layer timings on the ROADMAP's ladder of types.

    python3 bench/run.py --ladder [--out PATH]

Each type runs in its own child process (``python -m bench.ladder TYPE
DELTA``) under its wall-time cap and a 2 GiB address-space limit.  The child
prints one JSON line per finished layer, so a type that hits its cap keeps
the layers it finished and is recorded as ``exceeded_cap``, not dropped.
Nothing here is gated: the report reproduces the baseline table.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager

from bench import measure

# (label, type, delta); deltas follow the ROADMAP ladder.
LADDER = (
    [(f"A{n}", f"A{n}", None) for n in range(3, 9)]
    + [(f"B{n}", f"B{n}", None) for n in range(3, 7)]
    + [(f"D{n}", f"D{n}", None) for n in range(4, 7)]
    + [
        ("F4", "F4", None),
        ("E6", "E6", None),
        ("E6-twisted", "E6", "5,1,4,3,2,0"),
        ("A5-twisted", "A5", "4,3,2,1,0"),
        ("D5-twisted", "D5", "0,1,2,4,3"),
        ("I2(5)", "I2(5)", None),
        ("I2(8)", "I2(8)", None),
    ]
)

# Wall-time cap per type, in seconds.  The baseline's canonical columns take
# 83 s on A7, 120 s on D6 and about 217 s on E6 and twisted E6, so those
# types get room to finish that layer; every other type gets the default.
DEFAULT_CAP_S = 120.0
CAP_S = {"A7": 180.0, "D6": 240.0, "E6": 360.0, "E6-twisted": 360.0}

_MEMORY_LIMIT = 2 << 30
_OUT_OF_MEMORY = 4


def run_entry(label, argv, cap_s, *, env=None, cwd=None, tmp_dir=None):
    """Run one ladder child under ``cap_s`` seconds; never drops the entry."""
    res = measure.run_child(argv, env=env, cwd=cwd, timeout=cap_s, tmp_dir=tmp_dir)
    layers = []
    for line in (res.stdout or b"").decode("utf-8", "replace").splitlines():
        try:
            layers.append(json.loads(line))
        except ValueError:
            break  # a line cut short by the kill
    if res.exit_code == 0:
        status = "ok"
    elif res.exit_code < 0 and res.wall_s >= cap_s:
        status = "exceeded_cap"
    elif res.exit_code == _OUT_OF_MEMORY:
        status = "exceeded_memory"
    else:
        status = "failed"
    entry = {
        "label": label,
        "status": status,
        "cap_s": cap_s,
        "wall_s": res.wall_s,
        "peak_rss_mb": res.rss_mb,
        "layers": layers,
    }
    if status == "failed":
        entry["error"] = res.stderr_tail.strip()[-500:]
    return entry


def main(out_path, env, root, out_dir):
    entries = []
    for label, type_, delta in LADDER:
        argv = [sys.executable, "-m", "bench.ladder", type_, delta or ""]
        cap_s = CAP_S.get(label, DEFAULT_CAP_S)
        entry = run_entry(label, argv, cap_s, env=env, cwd=root, tmp_dir=out_dir)
        entries.append(entry)
        done = ", ".join(f"{row['layer']} {row['seconds']:.2f}s" for row in entry["layers"])
        print(f"{label:<12} {entry['status']:<15} {entry['wall_s']:7.1f}s "
              f"{entry['peak_rss_mb']:7.0f}MB  {done}", flush=True)
    report = {
        "host_calib_s": measure.calibrate(),
        "python": sys.version.split()[0],
        "entries": entries,
    }
    path = out_path or str(out_dir / "ladder.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {path}")
    return 0


# -- the child -------------------------------------------------------------


@contextmanager
def _layer(name):
    """Time one layer and print its row, with the counts put into it."""
    row = {}
    start = time.perf_counter()
    yield row
    print(json.dumps({"layer": name, "seconds": time.perf_counter() - start, **row}), flush=True)


def child(type_, delta):
    from invkl import build_system, verify

    from bench.traced import SUITES

    with _layer("interning") as row:
        system = build_system(type_, delta=delta)
        row["elements"] = len(system.enumerate_all())
    ctx = verify.VerificationContext(system, jobs=1)
    with _layer("involutions") as row:
        inv = ctx.module.involution_ids
        row["involutions"] = len(inv)
    with _layer("bar") as row:
        row["bar_terms"] = sum(len(ctx.module.bar_basis(w).entries) for w in inv)
    with _layer("canonical") as row:
        cb = ctx.canonical
        row["nonzero_pi"] = sum(not cb.pi(y, w).is_zero for w in inv for y in inv)
    with _layer("classical_kl"):
        ctx.kl.build_full(jobs=1)
    for name, suite in SUITES.items():
        with _layer(f"verify.{name}") as row:
            result = suite(ctx)
            row.update(checks=result.checks, failures=len(result.failures))
    return 0


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))
    try:
        code = child(sys.argv[1], sys.argv[2] or None)
    except MemoryError:
        code = _OUT_OF_MEMORY
    sys.exit(code)
