#!/usr/bin/env python3
"""unlearnlab benchmark: drives one workload through the CLI in process.

    python3 benchmarks/run.py --workload pipeline --seed 0 --seconds 45 --trace 0

Set-up (a fresh import of the package, a fresh workspace and the set-up
CLI calls) runs several times and setup_s is their median. The timed
part then runs in rounds, one after another (a closed loop with one
client), until the next round would end after --seconds. With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 rounds
alternate between untraced and traced, and it holds the per-layer
metrics of the traced rounds. Everything is read and written inside the
checkout: the workspace is .bench_work/ (removed at exit), results and
per-seed artifact hashes go to .bench_out/.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from layers import REQUIRES, install, layer_metrics
from spans import Tracer, check_nesting, root_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# A run must end within 180 s, so no round starts after this point.
LAST_START_S = 120.0
MODULES = ("cli", "datagen", "diffcore", "contrastive", "unlearn", "evalsuite", "persist",
           "seeds")
# End-to-end stage metrics: step kind -> (metric, rate of SGD steps or seconds).
STAGE_METRICS = {
    "pretrain": ("pretrain_steps_per_s", True),
    "unlearn": ("unlearn_steps_per_s", True),
    "eval": ("eval_s", False),
    "audit": ("audit_s", False),
    "dump_audit": ("dump_audit_s", False),
}


def metric_units(trace: bool) -> dict:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> dict:
    """Import unlearnlab afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "unlearnlab" or m.startswith("unlearnlab.")]:
        del sys.modules[name]
    pkg = {m: importlib.import_module(f"unlearnlab.{m}") for m in MODULES}
    if Path(pkg["cli"].__file__).resolve().parent != SRC / "unlearnlab":
        raise ImportError(f"unlearnlab imported from {pkg['cli'].__file__}, not {SRC}")
    pkg["numpy"] = sys.modules["numpy"]
    return pkg


# --- bookkeeping ------------------------------------------------------------------

def snapshot(out_dir: Path, command: str) -> dict:
    """The resolved config a CLI call wrote next to its outputs."""
    text = (out_dir / f"config.{command}.txt").read_text()
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def split_sizes(path: Path) -> dict:
    sizes = defaultdict(int)
    for line in path.read_text().splitlines()[1:]:
        sizes[line.split(",")[1]] += 1
    sizes["train"] = sizes["retain"] + sizes["unlearn"]
    return sizes


def steps_per_epoch(n: int, batch: int) -> int:
    """Batches of `batch` ids; a trailing batch of one id is dropped."""
    return -(-n // batch) - (1 if n % batch == 1 else 0)


def sgd_steps(command: str, cfg: dict, sizes: dict) -> int:
    """SGD steps a pretrain, retrain or unlearn (ac) call takes, from its
    config and the splits."""
    if command in ("pretrain", "retrain"):
        ids = sizes["train" if command == "pretrain" else "retain"]
        return int(cfg["pretrain.epochs"]) * steps_per_epoch(ids, int(cfg["pretrain.batch_size"]))
    return int(cfg["unlearn.epochs"]) * steps_per_epoch(
        sizes["retain"], int(cfg["unlearn.retain_batch"]))


def tree_hashes(root: Path) -> dict:
    """sha256 of every artifact under root except the config snapshots,
    which record the output path."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and not (p.name.startswith("config.") and p.suffix == ".txt"):
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def code_hash(directory: Path) -> str:
    """sha256 over the names and bytes of the .py files under directory."""
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*.py")):
        h.update(str(p.relative_to(directory)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_facts(np) -> dict:
    """BLAS library and its thread count, left at its default."""
    facts = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "blas" in ln and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def machine_facts(np, workload: str, seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"git_sha": git_sha(), "src_sha256": code_hash(SRC / "unlearnlab"),
            "bench_sha256": code_hash(HERE), "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            **blas_facts(np), "workload": workload, "seed": seed}


# --- one run ----------------------------------------------------------------------

@dataclass
class Round:
    traced: bool
    seconds: float
    kinds: dict  # step kind -> [seconds, sgd steps]
    layers: dict = field(default_factory=dict)


@dataclass
class Ctx:
    """What output checks see."""
    pkg: dict
    seed: int
    setup_dir: Path
    round_dir: Path


class Bench:
    def __init__(self, workload, seed: int, trace: bool):
        self.wl = workload
        self.seed = seed
        self.trace = trace
        # Every set-up and round gets a fresh directory, and nothing is
        # deleted or overwritten before the run ends: on ext4, replacing a
        # file's contents forces its writeback at close, and deleting files
        # queues discards, both of which stall later writes unpredictably.
        self.work = ROOT / ".bench_work" / str(os.getpid())
        self.setup_dir = self.round_dir = None
        self.attempted = 0
        self.failed = 0
        self.pkg = None

    def op(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what} {detail}".rstrip(), file=sys.stderr)
        return ok

    def call(self, step, tracer=None):
        """One CLI call, its output captured; returns (seconds, resolved
        config), the config empty if the call failed."""
        dirs = {"S": self.setup_dir, "R": self.round_dir}
        args = [a.format(**dirs) for a in step.args]
        argv = [step.command, "--config", str(self.setup_dir / "bench.cfg"), *args]
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                rc = self.pkg["cli"].main(argv)
        except (Exception, SystemExit):
            rc = traceback.format_exc()
        seconds = time.perf_counter() - t0
        ok = self.op(rc == 0, f"{' '.join(argv)} -> {rc}", err.getvalue())
        cfg = snapshot(Path(args[args.index("--out") + 1]), step.command) if ok else {}
        return seconds, cfg

    def run_steps(self, steps, tracer=None):
        """Run steps in order, stopping at a failed call. Returns per kind
        [seconds, SGD steps], and each call's SGD steps."""
        kinds = defaultdict(lambda: [0.0, 0])
        sgd = []
        for step in steps:
            seconds, cfg = self.call(step, tracer)
            n = 0
            if cfg and step.kind in ("pretrain", "unlearn"):
                n = sgd_steps(step.command, cfg, split_sizes(self.setup_dir / "splits.csv"))
            if step.kind:
                kinds[step.kind][0] += seconds
                kinds[step.kind][1] += n
            sgd.append(n)
            if not cfg:
                break
        return dict(kinds), sgd

    def setup(self):
        times, first = [], None
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.pkg = import_package()
            self.setup_dir = self.work / f"setup{rep}"
            self.setup_dir.mkdir(parents=True)
            config = {**self.wl.config, "seed": str(self.seed)}
            (self.setup_dir / "bench.cfg").write_text(
                "".join(f"{k}={v}\n" for k, v in config.items()))
            self.run_steps(self.wl.setup)
            times.append(time.perf_counter() - t0)
            hashes = tree_hashes(self.setup_dir)
            first = first or hashes
            self.op(hashes == first, "set-up artifacts repeat across set-ups")
        return times, first

    def one_round(self, index: int, traced: bool) -> tuple:
        self.round_dir = self.work / f"round{index}"
        self.round_dir.mkdir()
        tracer = Tracer() if traced else None
        patches = install(tracer, self.pkg) if traced else None
        t0 = time.perf_counter()
        try:
            kinds, sgd = self.run_steps(self.wl.timed, tracer)
        finally:
            seconds = time.perf_counter() - t0
            if patches:
                patches.restore()
        rnd = Round(traced, seconds, kinds)
        if traced:
            rnd.layers = self.trace_checks(tracer, patches, sgd)
        return rnd

    def trace_checks(self, tracer, patches, sgd) -> dict:
        spans = tracer.spans
        problems = check_nesting(spans)
        self.op(not problems, "span self times add up within each stage", "; ".join(problems[:3]))
        roots = [i for i, sp in enumerate(spans) if sp.parent < 0]
        opt_steps = defaultdict(int)
        for i, sp in enumerate(spans):
            if sp.name == "diffcore.sgd_momentum_step":
                opt_steps[root_of(spans, i)] += 1
        if not set(REQUIRES["diffcore.opt_s"]) & set(patches.missing):
            counted = [opt_steps[r] for r, n in zip(roots, sgd) if n]
            expected = [n for n in sgd if n]
            self.op(counted == expected, "optimizer steps match the configured SGD steps",
                    f"{counted} vs {expected}")
        return layer_metrics(spans, patches.missing)

    def check_round(self, reference):
        """Hash the round's artifacts, then run the output checks (which may
        add files of their own)."""
        hashes = tree_hashes(self.round_dir)
        self.op(reference is None or hashes == reference, "artifacts repeat across rounds")
        ctx = Ctx(self.pkg, self.seed, self.setup_dir, self.round_dir)
        for check in self.wl.checks:
            try:
                results = check(ctx)
            except Exception:
                results = [(check.__name__, False, traceback.format_exc())]
            for name, ok, detail in results:
                self.op(ok, name, detail)
        return hashes

    def run(self, seconds: float, t_start: float):
        setup_times, setup_hashes = self.setup()
        rounds, round_hashes = [], None
        t0 = time.perf_counter()
        while not self.failed:
            traced = self.trace and len(rounds) % 2 == 1
            rnd = self.one_round(len(rounds), traced)
            rounds.append(rnd)
            round_hashes = self.check_round(round_hashes)
            now = time.perf_counter()
            enough = len(rounds) >= (2 if self.trace else 1)
            if enough and (now - t0 + rnd.seconds > seconds or now - t_start > LAST_START_S):
                break
        return setup_times, rounds, {"setup": setup_hashes, "round": round_hashes}

    def end_to_end(self, setup_times, rounds) -> dict:
        plain = [r for r in rounds if not r.traced]
        m = {"setup_s": statistics.median(setup_times),
             "run_s": statistics.median(r.seconds for r in plain)}
        for kind, (name, rate) in STAGE_METRICS.items():
            vals = [r.kinds[kind][1] / r.kinds[kind][0] if rate else r.kinds[kind][0]
                    for r in plain]
            m[name] = statistics.median(vals)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return m

    def per_layer(self, rounds) -> dict:
        """Medians of times over the traced rounds; counts, which must
        repeat exactly, from the first."""
        traced = [r.layers for r in rounds if r.traced]
        m = {}
        for name in traced[0]:
            vals = [t[name] for t in traced]
            if name.endswith("_s"):
                m[name] = statistics.median(vals)
            else:
                self.op(all(v == vals[0] for v in vals), f"{name} repeats across traced rounds",
                        str(vals))
                m[name] = vals[0]
        m["trace.overhead_s"] = (statistics.median(r.seconds for r in rounds if r.traced)
                                 - statistics.median(r.seconds for r in rounds if not r.traced))
        return m


def compare_record(bench: Bench, facts: dict, hashes: dict, counts: dict) -> None:
    """Artifacts and exact counts of one (workload, seed) must match every
    earlier run of the same program and benchmark code in this checkout."""
    out = ROOT / ".bench_out" / "records"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{bench.wl.name}-seed{bench.seed}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    code = {k: facts[k] for k in ("src_sha256", "bench_sha256")}
    if record.get("code") == code:
        bench.op(record["hashes"] == hashes, "artifacts match earlier runs of this seed")
        if counts and record.get("counts"):
            bench.op(record["counts"] == counts, "exact counts match earlier runs of this seed",
                     f"{record['counts']} vs {counts}")
    else:
        record = {"code": code, "hashes": hashes}
    if counts:
        record["counts"] = counts
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "unlearnlab" / "cli.py").is_file():
        print(f"error: no unlearnlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np  # before set-up, so set-up times exclude it

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    os.environ.pop("UNLEARNLAB_OUT", None)
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    metrics = {}
    try:
        setup_times, rounds, hashes = bench.run(args.seconds, t_start)
        facts = machine_facts(np, args.workload, args.seed)
        if not bench.failed:
            metrics = (bench.per_layer(rounds) if args.trace
                       else bench.end_to_end(setup_times, rounds))
            counts = {k: v for k, v in metrics.items() if args.trace and not k.endswith("_s")}
            compare_record(bench, facts, hashes, counts)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.work.parent.rmdir()
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if math.isfinite(v)},
    }
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with open(ROOT / ".bench_out" / "results.jsonl", "a") as log:
        log.write(json.dumps({"machine": facts, "seconds": args.seconds, "trace": args.trace,
                              "round_s": [r.seconds for r in rounds], "result": result}) + "\n")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
