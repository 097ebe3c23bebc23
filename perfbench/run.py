"""Benchmark of the htcarnot library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports the library from ``src/`` of the
same checkout, runs one workload in this process with one thread, checks
every output, and prints a metadata line and then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload is run twice, untraced then traced, the traced half ends with the
layer probe, and the metrics are the per-layer ones, the self time of each
layer, and the tracing overhead.  Spans are written to ``.bench_out/``.
Units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("geodesics", "certify", "cut-locus", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the smoke test only")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def last_level_cache() -> str:
    """Size of the highest cache level, read from sysfs."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {trace: {m["name"]: m["unit"] for m in spec[key]}
               for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    if not (SRC / "htcarnot" / "__init__.py").is_file():
        print(f"error: no htcarnot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import htcarnot

    if not Path(htcarnot.__file__).resolve().is_relative_to(SRC):
        print(f"error: htcarnot imported from {htcarnot.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as W
    from tracing import Tracer

    size = W.TINY if args.tiny else W.Size()
    env = child_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    probe = W.Tally()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        # Cold set-ups on both sides of the timed loop, so that their median
        # does not rest on a single moment of the host's load.
        setup = [W.cold_setup_seconds(env) for _ in range(size.setup_repeats)]
        workload = W.WORKLOADS[args.workload](args.seed, size, Path(tmp), env)
        workload.warm(Tracer(False))
        base = workload.run(Tracer(False), args.seconds)
        setup += [W.cold_setup_seconds(env) for _ in range(size.setup_repeats)]
        end_to_end = {"setup_s": W.median(setup), "peak_rss_mb": peak_rss_mb(),
                      "pass_s": W.median(base.samples["pass"])}
        loops = {"untraced": base}
        metrics = end_to_end
        if args.trace:
            tracer = Tracer(True)
            traced = workload.run(tracer, args.seconds)
            loops["traced"] = traced
            metrics = W.layer_probe(tracer, probe, args.seed, size, Path(tmp), env)
            for layer, seconds in sorted(tracer.self_seconds().items()):
                metrics[f"self_s.{layer}"] = seconds
            metrics["overhead.pass_s"] = (W.median(traced.samples["pass"])
                                          - end_to_end["pass_s"])
    phases = {**loops, "probe": probe} if args.trace else loops

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **versions(), "commit": commit(),
        "end_to_end": end_to_end,
        "figures": {p: workload.figures(t) for p, t in loops.items()},
        "ops": {p: dict(t.attempted) for p, t in phases.items()},
        "failed": {p: dict(t.failed) for p, t in phases.items()},
        "wrong": {p: dict(t.wrong) for p, t in phases.items()},
        "errors": {p: dict(t.errors) for p, t in phases.items()},
        "passes": {p: W.pass_summary(t) for p, t in loops.items()},
        "k_negative_chunk": W.k_negative_chunk(),
        "last_level_cache": last_level_cache(),
    }
    if args.trace:
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, meta)
        meta["spans_file"] = str(path.relative_to(ROOT))

    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite metrics: {bad}")
    missing = set(unit_of[args.trace]) - set(metrics)
    if missing:
        raise ValueError(f"metrics not measured: {sorted(missing)}")
    # Raises of log_map at the domain edge are what the probe measures there
    # (geodesics.log_map.failed); any other probe failure is a wrong result.
    probe_failed = probe.total(probe.failed) - probe.failed[W.EDGE_KIND]
    result = {
        "correct": all(t.total(t.wrong) == 0 for t in phases.values()) and not probe_failed,
        "attempted": sum(t.total(t.attempted) for t in loops.values()),
        "failed": sum(t.total(t.failed) for t in loops.values()),
        "metrics": {k: {"value": float(v), "unit": unit_of[args.trace][k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
