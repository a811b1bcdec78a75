"""tropmono benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout (the directory holding ``src/tropmono``).
One process runs one job after another (a single-client closed loop, no
threads).  Every output is checked.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it carries
the workload-specific figures (``detail``).  ``--out`` also appends both to a
JSON-lines file that ``perfbench/compare.py`` reads.

Workloads (see perfbench/NOTES.md for what each one stresses):

derive         Engine(P).derive_surjectivity() on seeded images of T3, T4,
               SQ4 and T6; every pass is checked against the decision table
               and against the previous pass byte for byte, and each distinct
               certificate is replayed once (untimed).
replay         accept phase: ``tropmono replay`` in a fresh process on the
               certificates of T4, SQ4 and T6 (derived in set-up); reject
               phase: in-process replay_certificate on a fixed batch of
               seeded single-field corruptions of T4's certificate and of
               its sub-DAG for the bridge at the image of (1, 1).
verdict-scale  ``tropmono verdict`` in a fresh process on T300, R300x202 and
               the cut hexagon HEX250; between jobs, ``tropmono verdict`` on
               T3 (CLI start-up).
group-closure  SurfaceModel(T4), the seven snake twists and
               subgroup_order_mod_p(mats, 2) with the generators in seeded
               order; the order must be |Sp(6, F_2)| = 1451520.

With ``--trace 1`` the job runs once untraced and once under the tracer
(fixed work, so call counts repeat exactly) and the per-layer table is
printed instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
# tropmono makes no BLAS calls, but importing numpy starts OpenBLAS's thread
# pool, whose spinning threads made start-up wall time depend on how busy the
# second core was.  One client, one thread: for this process and its children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import inputs  # noqa: E402
from tracer import LAYERS, Tracer, merge  # noqa: E402

WORKLOADS = ("derive", "replay", "verdict-scale", "group-closure")
CLI_ENTRY = "import sys; from tropmono.cli import main; sys.exit(main())"
SETUP_ENTRY = "import sys, inputs; inputs.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
SETUP_PROBES = 15  # fresh-process set-ups per run; replay derives, so it runs one
CLI_STARTS_PER_JOB = 2
REJECT_BATCH = (40, 10)  # corruptions of T4's certificate and of its sub-DAG
IMPORT_PROBES = 3
RULES = ("acycle", "admissible", "project", "absorb", "chase", "gcd", "collapse",
         "terminal", "combine", "power", "subtract", "bridge_transfer",
         "chain_rule_square")

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
# Bound for the detail timings, as for job_s in BENCHMARK.json: on a shared
# 2-core VM the same job's time varies by 10-15% over tens of seconds.
TIME_BOUND = 0.25


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units["graphs.certify_admissible.raised"] = "count"
    units["graphs.certify_admissible.ok_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    units.update({f"cert.nodes.{r}": "count" for r in RULES})
    units["cert.witnesses_distinct"] = "count"
    units["cert.bytes"] = "bytes"
    units.update({f"derive.{p}.s": "s" for p in inputs.DERIVE_LADDER})
    units.update({f"reject.{k}": "count" for k in ("rejected", "untyped", "survived")})
    units["trace.job_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


# -- helpers -------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Child:
    def __init__(self, code, seconds, rss_mb, out, err):
        self.code, self.seconds, self.rss_mb, self.out, self.err = code, seconds, rss_mb, out, err

    def json(self):
        try:
            return json.loads(self.out)
        except ValueError:
            return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_child(argv: list[str], work: str) -> Child:
    """Run a child to completion; its own wall time and peak RSS."""
    out_path, err_path = os.path.join(work, "child.out"), os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return Child(proc.returncode, seconds, usage.ru_maxrss / 1024, out.read(), err.read())


def cli(args: list[str], work: str, stats: str | None = None) -> Child:
    """``tropmono ARGS`` in a fresh process, under the tracer if ``stats``."""
    if stats is None:
        return run_child([sys.executable, "-c", CLI_ENTRY, *args], work)
    return run_child([sys.executable, os.path.join(HERE, "child.py"), stats, *args], work)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(seconds: float, job, min_jobs: int = 1) -> None:
    """Run ``job`` until the next one would end past ``seconds``."""
    start = perf_counter()
    spent: list[float] = []
    while len(spent) < min_jobs or perf_counter() - start + statistics.mean(spent) <= seconds:
        t0 = perf_counter()
        job()
        spent.append(perf_counter() - t0)


def verdict_ok(name: str, g, d, n, mu, alg) -> bool:
    return (g, d, n, mu, alg) == inputs.EXPECTED[name]


def cert_counts(certs: list[dict]) -> dict[str, float]:
    out = {f"cert.nodes.{r}": 0 for r in RULES}
    witnesses = 0
    size = 0
    for cert in certs:
        for rule, k in inputs.node_counts(cert).items():
            out[f"cert.nodes.{rule}"] = out.get(f"cert.nodes.{rule}", 0) + k
        witnesses += len(inputs.distinct_witnesses(cert))
        size += len(inputs.canonical_bytes(cert))
    out["cert.witnesses_distinct"] = witnesses
    out["cert.bytes"] = size
    return out


# -- set-up --------------------------------------------------------------------


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def timed_setups(workload: str, seed: int, work: str) -> float:
    """Median wall time of fresh-process set-ups (``inputs.setup``), from
    interpreter start; the probe imports only ``inputs`` and tropmono."""
    probes = 1 if workload == "replay" else SETUP_PROBES
    times = []
    for _ in range(probes):
        child = run_child([sys.executable, "-c", SETUP_ENTRY, workload, str(seed), work], work)
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.err.strip()}")
        times.append(child.seconds)
    return statistics.median(times)


# -- workloads -------------------------------------------------------------------


class Derive:
    def __init__(self, seed, work, tally):
        self.tally = tally
        self.polys = [(name, inputs.polygon(name, seed)) for name in inputs.DERIVE_LADDER]
        self.first: dict[str, bytes] = {}
        self.passes: list[float] = []
        self.per: dict[str, list[float]] = {name: [] for name in inputs.DERIVE_LADDER}

    def job(self) -> None:
        from tropmono import engine

        total = 0.0
        for name, poly in self.polys:
            t0 = perf_counter()
            report = engine.Engine(poly).derive_surjectivity()
            dt = perf_counter() - t0
            total += dt
            self.per[name].append(dt)
            a, v = report["analysis"], report["verdict"]
            blob = inputs.canonical_bytes(report["certificate"])
            self.first.setdefault(name, blob)
            self.tally.op(verdict_ok(name, a["g"], a["d"], a["n"], v["mu"], v["algebraic_mu"])
                          and blob == self.first[name],
                          f"derive {name}: verdict {a['g'], a['d'], a['n'], v} or re-derivation differs")
        self.passes.append(total)

    def replay_check(self) -> None:
        from tropmono import engine

        for name, blob in self.first.items():
            try:
                ok = engine.replay_certificate(json.loads(blob)) is True
            except Exception as exc:  # any failure to replay is a wrong output
                ok, name = False, f"{name} ({type(exc).__name__}: {exc})"
            self.tally.op(ok, f"replay of derived certificate {name} failed")

    def certs(self) -> list[dict]:
        return [json.loads(b) for b in self.first.values()]


class Replay:
    def __init__(self, seed, work, tally):
        self.work, self.tally = work, tally
        self.files = [os.path.join(work, f"{n}.json") for n in inputs.REPLAY_SET]
        self.targets = [read_json(os.path.join(work, "T4.json")),
                        read_json(os.path.join(work, "T4.sub.json"))]
        self.batch = inputs.corruption_batch(self.targets, seed, REJECT_BATCH)
        self.accepts: list[float] = []
        self.rss_mb = 0.0
        self.reject_ms: list[float] = []
        self.rejected = self.untyped = self.survived = 0
        self.untyped_kinds: dict[str, int] = {}

    def accept(self, stats_dir: str | None = None) -> None:
        total = 0.0
        for i, path in enumerate(self.files):
            stats = None if stats_dir is None else os.path.join(stats_dir, f"replay{i}.json")
            child = cli(["replay", path], self.work, stats)
            total += child.seconds
            self.rss_mb = max(self.rss_mb, child.rss_mb)
            out = child.json()
            self.tally.op(child.code == 0 and out == {"schema": "1", "replay": "ok"},
                          f"replay {os.path.basename(path)}: exit {child.code} {child.err.strip()}")
        self.accepts.append(total)

    def reject_batch(self) -> None:
        """The run's fixed batch of corruptions, each replayed in-process."""
        from tropmono import engine

        for i, path, delta in self.batch:
            data = inputs.corrupted(self.targets[i], path, delta)
            crash = None
            t0 = perf_counter()
            try:
                engine.replay_certificate(data)
                outcome = None
            except engine.ReplayError:
                outcome = "ReplayError"
            except ValueError as exc:  # untyped rejection: a known defect, counted apart
                outcome = type(exc).__name__
            except Exception as exc:  # a crash is a wrong output, not a rejection
                outcome, crash = type(exc).__name__, exc
            self.reject_ms.append((perf_counter() - t0) * 1000)
            if crash is not None:
                self.tally.op(False, f"corruption {path} {delta:+d} crashed replay: "
                                     f"{outcome}: {crash}")
                continue
            if outcome is None:
                self.survived += 1
            else:
                self.rejected += 1
                if outcome != "ReplayError":
                    self.untyped += 1
                    self.untyped_kinds[outcome] = self.untyped_kinds.get(outcome, 0) + 1
            self.tally.op(outcome is not None, f"corruption {path} {delta:+d} survived replay")

    def cycle(self) -> None:
        self.accept()
        self.reject_batch()

    def certs(self) -> list[dict]:
        return [read_json(p) for p in self.files]


class VerdictScale:
    def __init__(self, seed, work, tally):
        self.work, self.tally = work, tally
        self.files = {name: os.path.join(work, f"{name}.poly.json")
                      for name in inputs.VERDICT_SET + ("T3",)}
        self.jobs: list[float] = []
        self.starts: list[float] = []
        self.rss_mb = 0.0

    def verdict(self, name: str, stats: str | None = None) -> float:
        child = cli(["verdict", self.files[name]], self.work, stats)
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        out = child.json() or {}
        self.tally.op(child.code == 0 and verdict_ok(
            name, out.get("g"), out.get("d"), out.get("n"), out.get("mu"), out.get("algebraic_mu")),
            f"verdict {name}: exit {child.code} {child.out.strip()} {child.err.strip()}")
        return child.seconds

    def job(self, stats_dir: str | None = None) -> None:
        def stats(tag):
            return None if stats_dir is None else os.path.join(stats_dir, f"{tag}.json")

        self.jobs.append(sum(self.verdict(n, stats(n)) for n in inputs.VERDICT_SET))
        for i in range(CLI_STARTS_PER_JOB):
            self.starts.append(self.verdict("T3", stats(f"T3.{i}")))


class GroupClosure:
    def __init__(self, seed, work, tally):
        self.tally = tally
        self.poly = inputs.polygon("T4", seed)
        self.order = inputs.closure_order(seed, 7)
        self.jobs: list[float] = []

    def job(self) -> None:
        from tropmono import graphs, homology

        t0 = perf_counter()
        surf = homology.SurfaceModel(self.poly)
        snake = graphs.build_snake(self.poly)
        family = []
        for i, c in enumerate(snake.chain):
            family.append(homology.Loop.of_segment(c))
            family.append(homology.Loop.acycle(snake.points[i + 1]))
        family.append(homology.Loop.of_segment(snake.bridge))
        mats = [surf.dehn_twist_matrix(loop) for loop in family]
        order = homology.subgroup_order_mod_p([mats[i] for i in self.order], 2)
        self.jobs.append(perf_counter() - t0)
        self.tally.op(len(mats) == 7 and order == inputs.CLOSURE_ORDER,
                      f"closure order {order} from {len(mats)} generators")


# -- result assembly -------------------------------------------------------------


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def timing(samples: list[float], unit: str = "s") -> dict:
    """Median of a run's samples, with the bound compare.py applies to it."""
    return metric(statistics.median(samples), unit, better="lower", bound=TIME_BOUND,
                  samples=len(samples))


def run_untraced(workload, seed, seconds, work, tally):
    setup_s = timed_setups(workload, seed, work)
    detail: dict[str, dict] = {}
    if workload == "derive":
        w = Derive(seed, work, tally)
        timed_loop(seconds, w.job, min_jobs=2)
        w.replay_check()
        job, rss = "derive_s", self_rss_mb()
        detail["derive_s"] = timing(w.passes)
        detail["cert_bytes"] = metric(cert_counts(w.certs())["cert.bytes"], "bytes")
        detail.update({f"derive.{name}.s": timing(ts) for name, ts in w.per.items()})
    elif workload == "replay":
        w = Replay(seed, work, tally)
        timed_loop(seconds, w.cycle, min_jobs=2)
        job, rss = "replay_s", w.rss_mb
        detail["replay_s"] = timing(w.accepts)
        detail["reject_ms.p50"] = timing(w.reject_ms, "ms")
        p90 = statistics.quantiles(w.reject_ms, n=10, method="inclusive")[-1]
        detail["reject_ms.p90"] = {**timing(w.reject_ms, "ms"), "value": p90}
        detail["reject_ms.mean"] = {**timing(w.reject_ms, "ms"),
                                    "value": statistics.mean(w.reject_ms)}
        detail["reject.untyped_share"] = metric(w.untyped / w.rejected, "ratio")
        detail["reject.survived"] = metric(w.survived, "count")
        if w.untyped:
            sys.stderr.write(f"known defect: {w.untyped} of {w.rejected} rejections raised "
                             f"{w.untyped_kinds} instead of ReplayError\n")
    elif workload == "verdict-scale":
        w = VerdictScale(seed, work, tally)
        timed_loop(seconds, w.job)
        job, rss = "verdict_s", w.rss_mb
        detail["verdict_s"] = timing(w.jobs)
        detail["cli_start_s"] = timing(w.starts)
    else:
        w = GroupClosure(seed, work, tally)
        timed_loop(seconds, w.job)
        job, rss = "closure_s", self_rss_mb()
        detail["closure_s"] = timing(w.jobs)
    metrics = {"setup_s": setup_s, "job_s": detail[job]["value"], "peak_rss_mb": rss}
    return {k: metric(v, END_TO_END[k]) for k, v in metrics.items()}, detail


def import_probe_s(work: str) -> float:
    code = ("import sys, time; t = time.perf_counter(); import tropmono.cli; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    return statistics.median(
        float(run_child([sys.executable, "-c", code], work).out) for _ in range(IMPORT_PROBES)
    )


def children_layers(stats_dir: str) -> dict:
    layers: dict = {}
    for fname in sorted(os.listdir(stats_dir)):
        merge(layers, read_json(os.path.join(stats_dir, fname)))
    return layers


def run_traced(workload, seed, work, tally):
    """One untraced job for reference, then the same job under the tracer."""
    inputs.setup(workload, seed, work)
    values: dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    stats_dir = os.path.join(work, "stats")
    os.mkdir(stats_dir)
    tracer = Tracer()
    if workload == "derive":
        w = Derive(seed, work, tally)
        w.job()
        with tracer:
            w.job()
        w.replay_check()
        base, traced = w.passes
        values.update(cert_counts(w.certs()))
        values.update({f"derive.{n}.s": ts[0] for n, ts in w.per.items()})
    elif workload == "replay":
        w = Replay(seed, work, tally)
        w.accept()
        with tracer:
            w.accept(stats_dir)
            w.reject_batch()
        base, traced = w.accepts
        values.update(cert_counts(w.certs()))
        values.update({f"reject.{k}": getattr(w, k) for k in ("rejected", "untyped", "survived")})
    elif workload == "verdict-scale":
        w = VerdictScale(seed, work, tally)
        w.job()
        w.job(stats_dir)
        base, traced = w.jobs
    else:
        w = GroupClosure(seed, work, tally)
        w.job()
        with tracer:
            w.job()
        base, traced = w.jobs
    layers = children_layers(stats_dir)
    merge(layers, tracer.snapshot())
    for name, st in layers.items():
        values.update({f"{name}.{k}": st[k] for k in ("calls", "s", "self_s")})
    ca = layers["graphs.certify_admissible"]
    values["graphs.certify_admissible.raised"] = ca["raised"]
    values["graphs.certify_admissible.ok_ratio"] = (
        (ca["calls"] - ca["raised"]) / ca["calls"] if ca["calls"] else 0.0)
    values["cli.import_s"] = import_probe_s(work)
    values["trace.job_s"] = traced
    values["trace.overhead_s"] = traced - base
    return {k: metric(values[k], unit) for k, unit in PER_LAYER.items()}, {}


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result record to this JSON-lines file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tropmono", "__init__.py")):
        sys.stderr.write("perfbench: no src/tropmono here; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    tally = Tally()
    try:
        if args.trace:
            metrics, detail = run_traced(args.workload, args.seed, work, tally)
        else:
            metrics, detail = run_untraced(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for note in tally.notes[:20]:
        sys.stderr.write(f"check failed: {note}\n")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    head = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "detail": detail}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**head, "result": result}) + "\n")
    print(json.dumps(head))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
