"""The four benchmark workloads and the layer probe.

Each workload turns the seed into inputs, runs passes of a fixed shape in a
closed loop with one caller until the time is up, checks every output and
keeps raw timings in a ``Tally``.  Inputs of pass ``i`` depend only on the
seed and ``i``, so a run of any length sees a prefix of the same input
stream.  The layer probe (``layer_probe``) times a fixed, seeded set of
calls into every layer; traced runs of every workload make it, so that each
per-layer metric is measured on each workload.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from htcarnot import (
    Covector,
    CovectorBox,
    GroupPoint,
    build_structure,
    catalog_names,
    catalog_spec,
    catalog_structure,
    check_jacobian_contraction,
    contraction_ratio,
    default_box,
    distance,
    exp_map,
    geodesic_dimension,
    geodesic_sample,
    identity,
    log_map,
    mcp_report,
    pairwise_sum,
    parse_config,
    sharpness_witness,
    validate_structure,
)
from htcarnot import cli

import checks

GROUPS = catalog_names()
MCP_QUAD = 8
FLAT_T_GRID = tuple(i / 10 for i in range(1, 10))
PAIRWISE_NODES = 1 << 16  # the quadrature chunk size of the K < 0 walk
SAMPLE_TIMES = np.linspace(0.0, 1.0, 257)
JAC_SAMPLES = 8
EDGE_S = range(6, 12)  # edge covectors have |v| = R (1 - 10^-s)
WARM_PASS = 2**32 - 1  # input stream of the untimed warm-up pass


@dataclass(frozen=True)
class Size:
    """How much work the parts of a run do that the time budget does not set."""

    setup_repeats: int = 3  # cold set-ups before the timed loop, and again after it
    probe_repeats: int = 5
    probe_covectors: int = 6  # per group, for exp, Jacobian and log
    edge_per_s: int = 2
    cut_groups: tuple[str, ...] = ("heisenberg3", "contact12")


TINY = Size(setup_repeats=1, probe_repeats=1, probe_covectors=1, edge_per_s=1,
            cut_groups=("heisenberg3",))


@dataclass
class Tally:
    """Operation counts and raw timings (seconds) of one phase of a run."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    wrong: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    samples: defaultdict = field(default_factory=lambda: defaultdict(list))

    def op(self, kind: str, outcome, right: bool) -> None:
        """Count one operation; a wrong answer and a raised error both fail it."""
        self.attempted[kind] += 1
        if outcome.ok and right:
            return
        self.failed[kind] += 1
        if outcome.ok:
            self.wrong[kind] += 1
        else:
            self.errors[f"{kind}: {type(outcome.error).__name__}"] += 1

    def total(self, counter: Counter) -> int:
        return sum(counter.values())


def median(xs) -> float:
    if not xs:
        raise ValueError("no samples")
    return float(np.median(xs))


def quantile(xs, q: float, min_beyond: int = 10) -> dict | None:
    """The q-quantile with its sample count, if ``min_beyond`` samples lie above it."""
    if len(xs) * (1.0 - q) < min_beyond:
        return None
    return {"value": float(np.quantile(xs, q)), "samples": len(xs)}


def pass_summary(tally: Tally) -> dict:
    """Count and quartiles of the pass times of one phase."""
    xs = tally.samples["pass"]
    return {"passes": len(xs), "min": min(xs),
            "quartiles": [float(q) for q in np.quantile(xs, [0.25, 0.5, 0.75])]}


def random_covector(rng, sc, vnorm: float) -> Covector:
    """u with |u| in [0.5, 1.5] and |S u| >= 0.1; v of norm vnorm."""
    while True:
        u = rng.standard_normal(sc.rank)
        u *= rng.uniform(0.5, 1.5) / np.linalg.norm(u)
        if np.linalg.norm(sc.s_diag * u) >= 0.1:
            break
    vhat = rng.standard_normal(sc.corank)
    return Covector(u, vnorm * vhat / np.linalg.norm(vhat))


def inner_covector(rng, sc) -> Covector:
    """A covector with |v| in (0.05, 0.95) R, well inside the injectivity domain."""
    return random_covector(rng, sc, sc.first_conjugate_radius * rng.uniform(0.05, 0.95))


def sub_box(rng, box: CovectorBox) -> CovectorBox:
    lo, hi = box.lower, box.upper
    a = rng.uniform(0.0, 0.5, lo.size)
    w = rng.uniform(0.25, 0.5, lo.size)
    return CovectorBox(lo + a * (hi - lo), lo + (a + w) * (hi - lo))


def vertical_target(rng, sc) -> tuple[float, GroupPoint]:
    """(|z|, (0, z)) with |z| in (0.5, 2): off the diffeomorphic image of exp."""
    zn = rng.uniform(0.5, 2.0)
    zhat = rng.standard_normal(sc.corank)
    return zn, GroupPoint(np.zeros(sc.rank), zn * zhat / np.linalg.norm(zhat))


def explicit_config(seed: int) -> dict:
    """A catalog group as explicit matrices, vertical basis turned by a seeded
    rotation (which keeps the anticommutation relations)."""
    rng = np.random.default_rng([seed, 5])
    sc = catalog_structure(GROUPS[rng.integers(len(GROUPS))])
    q, _ = np.linalg.qr(rng.standard_normal((sc.corank, sc.corank)))
    mats = np.einsum("ab,bij->aij", q, sc.L)
    return {"S_diagonal": sc.s_diag.tolist(), "L_matrices": mats.tolist(), "seed": seed}


# Calls the workloads and the layer probe share.  Each runs as one benchmark
# operation: it opens a root span, calls the library through the tracer,
# checks the output and counts the operation in the tally.

def roundtrip(tracer, tally, sc, lam, kind="roundtrip"):
    """log_map(exp_map(lam)), checked by mapping the answer forward again."""
    with tracer.op(kind):
        fwd = tracer.call("geodesics", "exp_map", exp_map, sc, lam)
        back = tracer.call("geodesics", "log_map", log_map, sc, fwd.value)
        right = False
        if back.ok:
            again = tracer.call("geodesics", "exp_map", exp_map, sc, back.value)
            right = again.ok and checks.roundtrip_ok(fwd.value.as_vector(),
                                                     again.value.as_vector())
    tally.op(kind, back, right)
    return fwd, back


def sample(tracer, tally, sc, lam):
    """geodesic_sample on 257 times; its last point must equal exp_map(lam)."""
    with tracer.op("geodesic_sample"):
        o = tracer.call("geodesics", "geodesic_sample", geodesic_sample, sc, lam,
                        SAMPLE_TIMES)
        right = False
        if o.ok:
            end = tracer.call("geodesics", "exp_map", exp_map, sc, lam)
            right = end.ok and checks.endpoint_ok(o.value[-1].as_vector(),
                                                  end.value.as_vector())
    tally.op("geodesic_sample", o, right)
    return o


def jacobian(tracer, tally, sc, t_grid, seed):
    """check_jacobian_contraction; returns the outcome and the evaluation count."""
    with tracer.op("jacobian_check"):
        o = tracer.call("mcp", "check_jacobian_contraction", check_jacobian_contraction,
                        sc, JAC_SAMPLES, t_grid, seed=seed)
    tally.op("jacobian_check", o, o.ok and checks.jacobian_ok(o.value))
    return o, JAC_SAMPLES * (1 + len(t_grid))


def report(tracer, tally, kind, sc, K, box, t_grid):
    n = geodesic_dimension(sc.spec)
    with tracer.op(kind):
        o = tracer.call("mcp", "mcp_report", mcp_report, sc, K, n, box, t_grid,
                        MCP_QUAD, workers=1)
    tally.op(kind, o, o.ok and checks.mcp_ok(o.value, n, t_grid))
    return o


def sharpness(tracer, tally, sc):
    with tracer.op("sharpness"):
        o = tracer.call("mcp", "sharpness_witness", sharpness_witness, sc, 0.5)
    found = o.value[1] if o.ok else None
    tally.op("sharpness", o, o.ok and checks.sharpness_ok(found))
    return o, found


def cut_distance(tracer, tally, g, sc, zn, target):
    with tracer.op("cutlocus_distance"):
        o = tracer.call("geodesics", "distance", distance, sc, identity(sc), target)
    right = o.ok and checks.cutlocus_ok(g, sc.alpha_max, zn, float(o.value.value))
    tally.op("cutlocus_distance", o, right)
    return o


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, tmp: Path, env: dict):
        self.seed, self.size, self.tmp, self.env = seed, size, tmp, env

    def warm(self, tracer) -> None:
        """Fill caches and build fixed inputs; untimed."""
        for g in GROUPS:
            catalog_structure(g)
        self.one_pass(tracer, Tally(), WARM_PASS)

    def one_pass(self, tracer, tally: Tally, i: int) -> None:
        raise NotImplementedError

    def run(self, tracer, seconds: float) -> Tally:
        """Run passes while the next one, taking as long as the last, would end
        within ``seconds``; at least one pass."""
        tally = Tally()
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.one_pass(tracer, tally, len(tally.samples["pass"]))
            end = time.perf_counter()
            tally.samples["pass"].append(end - began)
            if end - start + (end - began) > seconds:
                return tally

    def figures(self, tally: Tally) -> dict:
        """The workload's own figures, printed in the metadata line."""
        return {"failed_frac": tally.total(tally.failed) / tally.total(tally.attempted)}


class Geodesics(Workload):
    """Per-covector kernels: geodesic_sample, the Jacobian check, log(exp(lam))."""

    name = "geodesics"
    TRIPS = 16  # round trips per group per pass

    def one_pass(self, tracer, tally, i):
        rng = np.random.default_rng([self.seed, 0, i])
        s = tally.samples
        for g in GROUPS:
            sc = catalog_structure(g)
            o = sample(tracer, tally, sc, inner_covector(rng, sc))
            s["sample"].append(o.seconds)
            t_grid = sorted(rng.uniform(0.05, 1.0, 3))
            o, evals = jacobian(tracer, tally, sc, t_grid, int(rng.integers(2**31)))
            s["jac"].append(o.seconds)
            s["jac_evals"].append(evals)
            for _ in range(self.TRIPS):
                _, back = roundtrip(tracer, tally, sc, inner_covector(rng, sc))
                s["log"].append(back.seconds)

    def figures(self, tally):
        s = tally.samples
        return {
            **super().figures(tally),
            "exp_points_per_s": len(SAMPLE_TIMES) * len(s["sample"]) / sum(s["sample"]),
            "jacobian_evals_per_s": sum(s["jac_evals"]) / sum(s["jac"]),
            "log_p50_ms": _ms(quantile(s["log"], 0.50)),
            "log_p99_ms": _ms(quantile(s["log"], 0.99)),
        }


def _ms(q):
    return None if q is None else {**q, "value": 1e3 * q["value"]}


class Certify(Workload):
    """Contraction integrals: mcp_report at K = 0 and K = -1, sharpness."""

    name = "certify"

    def one_pass(self, tracer, tally, i):
        rng = np.random.default_rng([self.seed, 1, i])
        flat = curved = sharp = 0.0
        for g in GROUPS:
            sc = catalog_structure(g)
            box = sub_box(rng, default_box(sc))
            t_curved = tuple(float(t) for t in np.sort(rng.uniform(0.05, 0.95, 3)))
            flat += report(tracer, tally, "mcp_flat", sc, 0.0, box, FLAT_T_GRID).seconds
            curved += report(tracer, tally, "mcp_curved", sc, -1.0, box, t_curved).seconds
            sharp += sharpness(tracer, tally, sc)[0].seconds
        tally.samples["flat"].append(flat)
        tally.samples["curved"].append(curved)
        tally.samples["sharp"].append(sharp)

    def figures(self, tally):
        s = tally.samples
        return {**super().figures(tally), "mcp_flat_s": median(s["flat"]),
                "mcp_curved_s": median(s["curved"]), "sharpness_s": median(s["sharp"])}


class CutLocus(Workload):
    """distance() to purely vertical targets, which need the boundary search."""

    name = "cut-locus"

    def warm(self, tracer):
        # one search call takes seconds; warm the log_map that precedes it
        for g in self.size.cut_groups:
            sc = catalog_structure(g)
            target = GroupPoint(np.zeros(sc.rank), np.ones(sc.corank))
            tracer.call("geodesics", "log_map", log_map, sc, target)

    def one_pass(self, tracer, tally, i):
        rng = np.random.default_rng([self.seed, 2, i])
        for g in self.size.cut_groups:
            sc = catalog_structure(g)
            o = cut_distance(tracer, tally, g, sc, *vertical_target(rng, sc))
            tally.samples["distance"].append(o.seconds)

    def figures(self, tally):
        return {**super().figures(tally),
                "cutlocus_distance_s": median(tally.samples["distance"])}


def cli_entries(seed: int, tmp: Path) -> list[tuple[str, list[str], str | None]]:
    """The seeded CLI mix: (label, argv, CSV file written or None)."""
    rng = np.random.default_rng([seed, 4])

    def group():
        return GROUPS[rng.integers(len(GROUPS))]

    def out(label):
        return str(tmp / f"{label}.csv")

    cfg = tmp / "explicit.json"
    cfg.write_text(json.dumps(explicit_config(seed)))
    g_exp, g_log = group(), group()
    lam = inner_covector(rng, catalog_structure(g_exp))
    sc_log = catalog_structure(g_log)
    target = exp_map(sc_log, inner_covector(rng, sc_log))
    return [
        ("validate", ["validate", "--group", group()], None),
        ("validate_config", ["validate", str(cfg)], None),
        ("exp", ["exp", "--group", g_exp, f"--u={_csv(lam.u)}", f"--v={_csv(lam.v)}",
                 "--steps", "100", "--out", out("exp")], out("exp")),
        ("log", ["log", "--group", g_log, f"--x={_csv(target.x)}",
                 f"--z={_csv(target.z)}"], None),
        ("mcp", ["mcp", "--group", group(), "--K", "0", "--out", out("mcp")], out("mcp")),
        ("mcp_curved", ["mcp", "--group", "htype4x3", "--K", "-1", "--quad", "8",
                        "--workers", "2", "--out", out("mcp_curved")], out("mcp_curved")),
        ("sharpness", ["sharpness", "--group", group(), "--epsilon", "0.5",
                       "--out", out("sharpness")], out("sharpness")),
    ]


def _csv(values) -> str:
    return ",".join(repr(float(c)) for c in values)


class CliRunner:
    """Runs CLI commands in a fresh interpreter or in process and checks each
    against the first successful output of the same command."""

    TIMEOUT = 170.0

    def __init__(self, env: dict):
        self.env = env
        self.reference: dict[str, bytes] = {}

    def spawn(self, argv, path):
        proc = subprocess.run([sys.executable, "-m", "htcarnot.cli", *argv],
                              env=self.env, capture_output=True, timeout=self.TIMEOUT)
        return proc.returncode, proc.stdout + _read(path)

    def main(self, argv, path):
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue().encode() + _read(path)

    def same(self, label, code, data) -> bool:
        return checks.cli_ok(code, 0, data, self.reference.setdefault(label, data))


def _read(path) -> bytes:
    return Path(path).read_bytes() if path is not None else b""


class Cli(Workload):
    """A fixed seeded mix of CLI commands, each in its own interpreter."""

    name = "cli"

    def warm(self, tracer):
        # each command starts a cold interpreter, so there is nothing to warm
        self.entries = cli_entries(self.seed, self.tmp)
        self.runner = CliRunner(self.env)

    def one_pass(self, tracer, tally, i):
        for label, argv, path in self.entries:
            kind = f"cli.{label}"
            with tracer.op(kind):
                o = tracer.call("cli", "spawn", self.runner.spawn, argv, path)
            tally.op(kind, o, o.ok and self.runner.same(label, *o.value))

    def figures(self, tally):
        return {**super().figures(tally), "cli_mix_s": median(tally.samples["pass"])}


WORKLOADS = {w.name: w for w in (Geodesics, Certify, CutLocus, Cli)}

# A raise from these probe kinds is a measured outcome, counted in a metric;
# any other probe failure makes the run incorrect.
EDGE_KIND = "log_map.edge"


def layer_probe(tracer, tally: Tally, seed: int, size: Size, tmp: Path,
                env: dict) -> dict[str, float]:
    """Every per-layer metric, from a fixed set of calls drawn from the seed."""
    rng = np.random.default_rng([seed, 6])
    out = {**import_layers(env), **_structure_layers(tracer, seed, size, tmp)}
    s = defaultdict(list)
    for g in GROUPS:
        sc = catalog_structure(g)
        for _ in range(size.probe_covectors):
            fwd, back = roundtrip(tracer, tally, sc, inner_covector(rng, sc))
            s[f"exp.{g}"].append(fwd.seconds)
            s[f"log.{g}"].append(back.seconds)
            o, evals = jacobian(tracer, tally, sc, [0.5], int(rng.integers(2**31)))
            s[f"jac.{g}"].append(o.seconds / evals)
        s["sample"].append(sample(tracer, tally, sc, inner_covector(rng, sc)).seconds)
        out[f"geodesics.exp_map_us.{g}"] = 1e6 * median(s[f"exp.{g}"])
        out[f"geodesics.jacobian_us.{g}"] = 1e6 * median(s[f"jac.{g}"])
        out[f"geodesics.log_map_ms.{g}"] = 1e3 * median(s[f"log.{g}"])
    out["geodesics.geodesic_sample_ms"] = 1e3 * median(s["sample"])

    # Round trips at the edge of the domain, |v| = R (1 - 10^-s), spread over
    # the groups.  At the seed log_map raises for s >= 8; those raises are
    # the count geodesics.log_map.failed.
    for j, e in enumerate(np.repeat(list(EDGE_S), size.edge_per_s)):
        sc = catalog_structure(GROUPS[j % len(GROUPS)])
        lam = random_covector(rng, sc, sc.first_conjugate_radius * (1.0 - 10.0**-e))
        s["edge"].append(roundtrip(tracer, tally, sc, lam, EDGE_KIND)[1].seconds)
    out["geodesics.log_map_edge_ms"] = 1e3 * median(s["edge"])
    out["geodesics.log_map.failed"] = float(tally.failed[EDGE_KIND])

    sc = catalog_structure("heisenberg3")
    o = cut_distance(tracer, tally, "heisenberg3", sc, *vertical_target(rng, sc))
    out["geodesics.distance_bound_s.heisenberg3"] = o.seconds

    attempts = 0
    for g in GROUPS:
        sc = catalog_structure(g)
        box = sub_box(rng, default_box(sc))
        t_curved = tuple(float(t) for t in np.sort(rng.uniform(0.05, 0.95, 3)))
        # the K < 0 report's own contraction ratios, timed apart, so that the
        # distortion average is the rest of the report
        curved = report(tracer, tally, "mcp_curved", sc, -1.0, box, t_curved).seconds
        ratios = 0.0
        with tracer.op("contraction_ratio"):
            for t in t_curved:
                o = tracer.call("mcp", "contraction_ratio", contraction_ratio, sc, box,
                                t, MCP_QUAD)
                tally.op("contraction_ratio", o, o.ok)
                ratios += o.seconds
                s[f"ratio.{g}"].append(o.seconds)
        out[f"mcp.contraction_ratio_ms.{g}"] = 1e3 * median(s[f"ratio.{g}"])
        out[f"mcp.distortion_s.{g}"] = curved - ratios
        found = sharpness(tracer, tally, sc)[1]
        attempts += found.attempts if found is not None else 0
    out["mcp.sharpness.attempts"] = float(attempts)
    for _ in range(size.probe_repeats):
        values = rng.standard_normal(PAIRWISE_NODES)
        with tracer.op("pairwise_sum"):
            o = tracer.call("quadrature", "pairwise_sum", pairwise_sum, values)
        tally.op("pairwise_sum", o, o.ok and abs(o.value - values.sum()) <= 1e-9)
        s["pairwise"].append(o.seconds)
    out["quadrature.pairwise_sum_ms"] = 1e3 * median(s["pairwise"])

    # The CLI mix once in process and once spawned: spawn_s is what the
    # fresh interpreters add.
    runner, inproc, wall = CliRunner(env), 0.0, 0.0
    for label, argv, path in cli_entries(seed, tmp):
        with tracer.op(f"cli.{label}"):
            m = tracer.call("cli", "main", runner.main, argv, path)
            tally.op(f"cli.{label}.inprocess", m, m.ok and runner.same(label, *m.value))
            o = tracer.call("cli", "spawn", runner.spawn, argv, path)
            tally.op(f"cli.{label}", o, o.ok and runner.same(label, *o.value))
        out[f"cli.main_ms.{label}"] = 1e3 * m.seconds
        inproc += m.seconds
        wall += o.seconds
    out["cli.spawn_s"] = wall - inproc
    return out


def _structure_layers(tracer, seed: int, size: Size, tmp: Path) -> dict[str, float]:
    """Structure build, explicit validation and config parsing, timed in process."""
    out = {}
    with tracer.op("structure"):
        for g in GROUPS:
            spec = catalog_spec(g)
            times = [tracer.call("structure", "build_structure", build_structure, spec).seconds
                     for _ in range(4 * size.probe_repeats)]
            out[f"structure.build_ms.{g}"] = 1e3 * median(times)
    doc = explicit_config(seed)
    path = tmp / "probe-explicit.json"
    path.write_text(json.dumps(doc))
    s_mat = np.diag(doc["S_diagonal"])
    l_mats = np.asarray(doc["L_matrices"])
    with tracer.op("validate"):
        times = [tracer.call("structure", "validate_structure", validate_structure,
                             s_mat, l_mats, seed=seed).seconds
                 for _ in range(size.probe_repeats)]
    out["structure.validate_ms"] = 1e3 * median(times)
    with tracer.op("config"):
        times = [tracer.call("config", "parse_config+realize", _parse_realize, path).seconds
                 for _ in range(size.probe_repeats)]
    out["config.parse_realize_ms"] = 1e3 * median(times)
    return out


def _parse_realize(path):
    return parse_config(path).realize()


def import_layers(env: dict) -> dict[str, float]:
    """Cumulative import times from ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import htcarnot"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    rows = []  # (depth, name, cumulative microseconds)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    htcarnot_us = next(us for _, name, us in rows if name == "htcarnot")
    # scipy loads its subpackages lazily, so scipy.optimize may have no line
    # of its own: sum its outermost submodules instead.
    optimize = [(d, us) for d, name, us in rows
                if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    top = min((d for d, _ in optimize), default=0)
    return {
        "import.htcarnot_ms": htcarnot_us / 1e3,
        "import.scipy_optimize_ms": sum(us for d, us in optimize if d == top) / 1e3,
    }


def cold_setup_seconds(env: dict) -> float:
    """import htcarnot plus the catalog build, timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import htcarnot; "
            "[htcarnot.catalog_structure(g) for g in htcarnot.catalog_names()]; "
            "print(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def k_negative_chunk(sc_name: str = "htype4x3", quad: int = MCP_QUAD) -> dict:
    """Computed bytes of the largest K < 0 grid chunk (points plus weights)."""
    from htcarnot import quadrature

    sc = catalog_structure(sc_name)
    nodes = quad**sc.dim
    chunk = min(getattr(quadrature, "CHUNK", nodes), nodes)
    return {"group": sc_name, "quad": quad, "grid_nodes": nodes, "chunk_nodes": chunk,
            "chunk_bytes_computed": chunk * (sc.dim + 1) * 8}
