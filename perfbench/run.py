"""opsys benchmark: one closed-loop client driving the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload section-positivity --seed 1 \
        --seconds 25 --trace 0

One client issues back-to-back calls into ``opsys`` in this process, with
BLAS pinned to one thread.  Inputs come from ``--seed``; every result is
checked against an independent oracle.  ``--trace 0`` runs whole rounds
until ``--seconds`` have passed and reports the end-to-end metrics;
``--trace 1`` runs a fixed number of rounds twice, untraced and then
traced, and reports per-layer counts and self times plus the tracing
overhead.  Op times are rescaled to a reference host speed measured
between ops (see :class:`HostProbe`).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, the
fingerprint and (traced) the spans are written under ``.bench_out/``.

Exit codes: 0 all oracle checks passed, 1 some check failed, 2 usage error
or no ``src/opsys`` to benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import bisect
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
#: Tail percentiles, highest first; the tail is the highest one that leaves
#: at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, opsys"
#: The host probe runs before an op once this long has passed since the
#: last probe; PROBE_REF_S is its time on the reference host.
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.6e-3


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_opsys():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "opsys" / "__init__.py").is_file():
        die(f"no opsys sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opsys

    if Path(opsys.__file__).resolve().parent != SRC / "opsys":
        die(f"imported opsys from {opsys.__file__}, not {SRC}")
    return opsys


def fingerprint(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


class HostProbe:
    """Tracks the host's speed between ops.

    On a shared virtual machine the same op can take twice as long in one
    ten-second stretch as in the next, which swamps run-to-run comparisons.
    The probe times a fixed kernel, small eigensolves plus a Python loop
    and independent of opsys, before an op whenever PROBE_EVERY_S has
    passed.  An op's latency is rescaled by the mean of the probes just
    before and just after it, to what it would take on a host where the
    probe takes PROBE_REF_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._mats = []
        for d in (3, 4, 6, 8):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self._mats.append(a + a.conj().T)
        self._eigh = np.linalg.eigh  # bound before a traced run wraps it
        self._clip = np.clip
        self.ended: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False) -> None:
        if not force and self.ended and perf_counter() - self.ended[-1] < PROBE_EVERY_S:
            return
        t0 = perf_counter()
        for _ in range(4):
            for m in self._mats:
                w, u = self._eigh(m)
                (u * self._clip(w, 0.0, None)) @ u.conj().T
            acc = 0
            for i in range(300):
                acc += i * i
        self.ended.append(perf_counter())
        self.took.append(self.ended[-1] - t0)

    def scale(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.ended, start) - 1
        after = bisect.bisect_left(self.ended, end)
        around = [self.took[k] for k in (before, after) if 0 <= k < len(self.took)]
        return PROBE_REF_S / statistics.fmean(around)


class Tally:
    """Timings and oracle outcomes of the ops of one pass."""

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.rounds: list[int] = []  # op count after each round
        self.failed = 0
        self.undecided = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.spans)

    def latencies(self) -> list[float]:
        """Op latencies rescaled to the reference host speed."""
        return [(end - start) * self.probe.scale(start, end) for start, end in self.spans]

    def raw_latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def round_rates(self, lat: list[float]) -> list[float]:
        """Ops per second of time inside opsys calls, per round."""
        bounds = [0] + self.rounds
        return [(b - a) / sum(lat[a:b]) for a, b in zip(bounds, bounds[1:])]


def run_round(workload, rng, tally, tracer=None):
    from opsys.errors import UndecidedError
    from workloads import FAIL, PASS, UNDECIDED

    gen = workload.round(rng)
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            break
        tally.probe.sample()
        if tracer is not None:
            tracer.begin_op(op.name)
        error = None
        t0 = perf_counter()
        try:
            result = op.call()
        except UndecidedError as exc:
            result, error, status = None, exc, UNDECIDED
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error, status = None, exc, FAIL
        finally:
            tally.spans.append((t0, perf_counter()))
            if tracer is not None:
                tracer.end_op()
        if error is None:
            try:
                status = op.check(result)
            except Exception as exc:
                status, error = FAIL, exc
        if status != PASS:
            tally.failed += 1
            tally.undecided += status == UNDECIDED
            if len(tally.failures) < 10:
                detail = f": {type(error).__name__}: {error}" if error else ""
                tally.failures.append(f"{op.name} -> {status}{detail}")
    tally.probe.sample(force=True)  # the last op's probe after
    tally.rounds.append(tally.attempted)


def round_rng(seed: int, r: int):
    import numpy as np

    return np.random.default_rng([seed, 1, r])


def measure_setup(workload_cls, seed: int):
    """Median import time (fresh interpreters) plus median build time."""
    import numpy as np

    env = dict(os.environ)
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                       env=env, check=True)
        imports.append(perf_counter() - t0)
    builds = []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls()
        t0 = perf_counter()
        workload.setup(np.random.default_rng([seed, 0]))
        builds.append(perf_counter() - t0)
    return workload, statistics.median(imports) + statistics.median(builds)


def tail(latencies, cap):
    """Highest ladder percentile up to ``cap`` with at least TAIL_BEYOND
    samples beyond it, its value and the number of samples beyond it."""
    n = len(latencies)
    eligible = [p for p in TAIL_LADDER if p <= cap and n * (1 - p / 100.0) >= TAIL_BEYOND]
    pct = eligible[0] if eligible else TAIL_LADDER[-1]
    value = statistics.quantiles(latencies, n=1000, method="inclusive")[round(pct * 10) - 1]
    return pct, value, sum(1 for x in latencies if x > value)


def end_to_end(args, workload_cls):
    import numpy as np

    workload, setup_s = measure_setup(workload_cls, args.seed)
    tally = Tally(HostProbe())
    start = perf_counter()
    while not tally.rounds or perf_counter() - start < args.seconds:
        run_round(workload, round_rng(args.seed, len(tally.rounds)), tally)
    wall = perf_counter() - start
    lat, raw = tally.latencies(), tally.raw_latencies()
    pct, tail_s, beyond = tail(lat, workload.tail_cap)
    metrics = {
        "ops_per_s": (statistics.median(tally.round_rates(lat)), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    gaps = workload.sandwich_gaps
    extra = {
        "rounds": len(tally.rounds),
        "wall_s": wall,
        "tail_percentile": pct,
        "tail_samples": len(lat),
        "tail_beyond": beyond,
        "fail_ratio": tally.failed / tally.attempted,
        "undecided_ratio": tally.undecided / tally.attempted,
        "sandwich_rel_gap": float(np.mean(gaps)) if gaps else None,
        "probe_median_ms": statistics.median(tally.probe.took) * 1e3,
        "raw_ops_per_s": statistics.median(tally.round_rates(raw)),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": tail(raw, workload.tail_cap)[1] * 1e3,
    }
    print(f"closed loop, 1 client, {len(tally.rounds)} rounds, {tally.attempted} ops in "
          f"{wall:.1f} s wall, {sum(raw):.1f} s inside opsys calls")
    print(f"host probe median {extra['probe_median_ms']:.4f} ms over {len(tally.probe.took)}"
          f" probes; times below are rescaled to {PROBE_REF_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{pct:g}: {beyond} of {len(lat)} samples beyond)"
        if "raw_" + name in extra:
            note += f"  [unscaled {extra['raw_' + name]:.6f}]"
        print(f"  {name:<18} {value:>14.6f} {unit}{note}")
    print(f"  {'fail_ratio':<18} {extra['fail_ratio']:>14.6f} ratio"
          f"  ({tally.failed}/{tally.attempted})")
    print(f"  {'undecided_ratio':<18} {extra['undecided_ratio']:>14.6f} ratio"
          f"  ({tally.undecided}/{tally.attempted})")
    if gaps:
        print(f"  {'sandwich_rel_gap':<18} {extra['sandwich_rel_gap']:>14.6f} ratio"
              f"  (mean over {len(gaps)} norm reports)")
    else:
        print(f"  {'sandwich_rel_gap':<18} {'n/a':>14} ratio  (norm-sweep only)")
    return [tally], metrics, extra


def traced(args, workload_cls):
    import numpy as np

    from tracing import LAYER_METRICS, Tracer

    workload = workload_cls()
    workload.setup(np.random.default_rng([args.seed, 0]))
    probe = HostProbe()
    plain = Tally(probe)
    for r in range(workload.trace_rounds):
        run_round(workload, round_rng(args.seed, r), plain)
    tracer = Tracer()
    tally = Tally(probe)
    tracer.install()
    try:
        for r in range(workload.trace_rounds):
            run_round(workload, round_rng(args.seed, r), tally, tracer)
    finally:
        tracer.uninstall()
    plain_rate = plain.attempted / sum(plain.latencies())
    traced_rate = tally.attempted / sum(tally.latencies())
    overhead = (plain_rate - traced_rate) / plain_rate
    metrics = {k: (v, "s" if k.endswith(".self_s") else "count")
               for k, v in tracer.layer_metrics().items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    op_time = tracer.op_time()
    selfs = tracer.self_times()
    print(f"traced run: {workload.trace_rounds} rounds untraced, then the same "
          f"rounds traced; {tally.attempted} ops, {len(tracer.spans)} spans")
    for name in tracer.missing:
        print(f"  not in the package, reported as 0: {name}")
    print(f"  ops_per_s untraced {plain_rate:.4f}, traced {traced_rate:.4f} (rescaled by"
          f" the host probe): tracing overhead {overhead:+.1%}")
    print(f"  self time per layer (base: {op_time:.3f} s of op time)")
    layers = [layer for layer, _ in LAYER_METRICS] + ["op"]
    for layer in sorted(layers, key=lambda n: -selfs.get(n, 0.0)):
        calls = tracer.counts.get(layer + ".calls", tally.attempted if layer == "op" else 0)
        share = selfs.get(layer, 0.0) / op_time if op_time else 0.0
        print(f"    {layer:<34} {calls:>9} calls {selfs.get(layer, 0.0):>10.4f} s"
              f" {share:>7.1%}")
    pm = tracer.inclusive_time("dual.positivity_minimum")
    pm_eig = tracer.inclusive_time("linalg.eigensolve", inside="dual.positivity_minimum")
    its, calls = tracer.dykstra_per_call(inside="dual.is_cp")
    all_its, all_calls = tracer.dykstra_per_call()
    mos = tracer.inclusive_time("systems.make_operator_system")
    print("  cross-checks:")
    print(f"    dual.positivity_minimum: {pm:.3f} s of {op_time:.3f} s op time "
          f"({pm / op_time:.1%}); its eigensolves {pm_eig:.3f} s ({pm_eig / op_time:.1%})")
    print(f"    Dykstra iterations per CP solve: {its} / {calls} = "
          f"{its / calls if calls else 0:.1f}; all solves {all_its} / {all_calls}")
    print(f"    systems.make_operator_system: {mos:.3f} s of {op_time:.3f} s op time "
          f"({mos / op_time:.1%})")
    extra = {
        "op_time_s": op_time,
        "positivity_minimum_share": pm / op_time,
        "positivity_minimum_eigensolve_share": pm_eig / op_time,
        "cp_dykstra_iterations": [its, calls],
        "dykstra_iterations": [all_its, all_calls],
        "make_operator_system_share": mos / op_time,
        "spans": len(tracer.spans),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return [plain, tally], metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        die("--seconds must be positive")
    import_opsys()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    fp = fingerprint(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    run = traced if args.trace else end_to_end
    tallies, metrics, extra = run(args, WORKLOADS[args.workload])
    failed = sum(t.failed for t in tallies)
    for line in [line for t in tallies for line in t.failures][:10]:
        print(f"  FAILED {line}")
    result = {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, trace=args.trace,
                  fingerprint=fp, extra=extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
