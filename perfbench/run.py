"""exactlex benchmark: one workload per run, closed loop, one client, one process.

    python3 perfbench/run.py --workload scan_test --seed 1 --trace 0
    python3 perfbench/run.py   # both workloads in turn

A run lasts run_seconds of BENCHMARK.json; --seconds overrides it.

Run it from the root of a source checkout; it imports exactlex from ./src and
writes its generated inputs, spans and trace summaries under ./.perfbench.
Each operation starts only when the previous one has finished. With --trace 0
the last stdout line is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, in which traced and
untraced operations alternate. See perfbench/README.md for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUPS = 5  # start-ups and set-ups per run; setup_s is the fastest of each, summed
MIN_PASSES = 2

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "op_ms_p99": "ms", "peak_rss_mb": "MB"}

ALPHAS = ("0.01", "0.05", "0.10")
CLI_COMMANDS = ("cli.count", "cli.zipf", "cli.assoc", "cli.simulate", "cli.test")
# per-layer metric -> (span name(s), 0 for summed duration or 1 for self time)
SPAN_METRICS = {
    "corpus.read_s": ("corpus.read", 0),
    "corpus.count_text_s": ("corpus.count_text", 0),
    "corpus.tokenize_s": ("corpus.tokenize", 0),
    "corpus.merge_s": ("corpus.merge", 0),
    "corpus.zipf_summary_s": ("corpus.zipf_summary", 0),
    "assoc.scan_s": ("assoc.scan", 0),
    "assoc.table_build_s": ("assoc.table_build", 0),
    "assoc.rank_s": ("assoc.rank", 0),
    "assoc.scan_self_s": ("assoc.scan", 1),
    "exact.enumerate_s": ("exact.enumerate", 0),
    "exact.tail_s": ("exact.tail", 0),
    "asymptotic.x2_s": ("asymptotic.x2", 0),
    "asymptotic.g2_s": ("asymptotic.g2", 0),
    "asymptotic.t_s": ("asymptotic.t", 0),
    "tables.construct_s": ("tables.construct", 0),
    "simulate.calibration_s": ("simulate.calibration", 0),
    "simulate.draw_s": ("simulate.draw", 0),
    "simulate.self_s": ("simulate.calibration", 1),
    "report.compute_all_s": ("report.compute_all", 0),
    "report.render_s": ("report.render", 0),
    "cli.parse_s": ("cli.parse", 0),
    "cli.render_s": ("cli.render", 0),
    "cli.self_s": (CLI_COMMANDS, 1),
}
COUNTERS = {
    "corpus.tokens": "count", "corpus.distinct_bigrams": "count", "assoc.tables": "count",
    **{f"assoc.p_underflow.{t}": "count" for t in ("exact", "g2", "x2", "t")},
    **{f"assoc.disagree.{t}.{a}": "count" for t in ("g2", "x2", "t") for a in ALPHAS},
    "exact.enumerations": "count", "exact.support_terms": "count", "exact.distinct_marginals": "count",
    "asymptotic.calls": "count", "asymptotic.degenerate": "count", "asymptotic.undefined": "count",
    "tables.constructed": "count",
    "simulate.trials": "count", "simulate.cache_lookups": "count", "simulate.cache_hit_ratio": "ratio",
    **{f"simulate.disagree.{t}.{a}": "count" for t in ("x2", "g2", "t") for a in ALPHAS},
}
GAUGES = {"corpus.tokens", "corpus.distinct_bigrams", "simulate.cache_hit_ratio"}
PROBE_UNITS = {"exact.fisher_ms.paper": "ms", "exact.fisher_ms.n1e7": "ms", "exact.fisher_ms.n1e9": "ms",
               "asymptotic.chi_square_sf_us": "us"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def startup_s() -> float:
    """A fresh interpreter importing numpy and exactlex, which every CLI call pays."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import exactlex.cli"],
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so that
    peak_rss_mb belongs to that workload alone."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


class Failures:
    """Counts failed operations and prints the first few reasons to stderr."""

    def __init__(self, limit: int = 5) -> None:
        self.count = 0
        self.limit = limit

    def add(self, what: str, reason: str) -> None:
        self.count += 1
        if self.count <= self.limit:
            print(f"perfbench: check failed: {what}: {reason}", file=sys.stderr)


def measure(workload, seconds: float, tracer):
    """Passes over the workload's operations for `seconds`, and at least
    MIN_PASSES whole passes. With a tracer, every second operation is traced.
    Returns each kind's untraced and traced times, operations run, and failures."""
    n_kinds = len(workload.kinds)
    plain, traced = defaultdict(list), defaultdict(list)
    failures = Failures()
    index = 0
    deadline = perf_counter() + seconds
    while index < MIN_PASSES * n_kinds or perf_counter() < deadline:
        kind = index % n_kinds
        # Odd kinds are traced in even passes and even kinds in odd ones.
        tr = tracer if tracer is not None and (kind + index // n_kinds) % 2 else None
        if tr is not None:
            tr.begin_op(index, kind)
        if kind == 0 or tr is not None:
            gc.collect()  # start every pass and traced operation from a collected heap
        t0 = perf_counter()
        try:
            result = workload.op(kind, tr)
            elapsed = perf_counter() - t0
            reason = workload.check(kind, result, index < n_kinds)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            reason = "".join(traceback.format_exception_only(exc)).strip()
        if reason:
            failures.add(f"{workload.name} {workload.kinds[kind]}", reason)
        elif tr is not None:
            traced[kind].append(elapsed - tr.collect_s[index])
        else:
            plain[kind].append(elapsed)
        index += 1
    return plain, traced, index, failures.count


def end_to_end(setup_s: float, best: list[float]) -> dict[str, float]:
    from workloads import percentile

    ms = [1e3 * b for b in best]
    return {
        "setup_s": setup_s,
        "pass_s": sum(best),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p99": percentile(ms, 99),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(tracer, n_kinds: int, plain, traced, probes) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per pass; zero for layers the workload never reaches."""
    from tracer import per_pass

    per_op = tracer.per_op_times()
    metrics = {}
    for metric, (names, which) in SPAN_METRICS.items():
        names = (names,) if isinstance(names, str) else names
        value = tracer.per_pass(lambda op: sum(per_op.get(op, {}).get(n, (0.0, 0.0))[which] for n in names),
                                n_kinds)
        metrics[metric] = (value, "s")
    for metric, unit in COUNTERS.items():
        if metric in GAUGES:
            value = tracer.gauges.get(metric, 0)
        else:
            value = tracer.per_pass(lambda op: tracer.op_counters[op].get(metric, 0), n_kinds)
        metrics[metric] = (value, unit)
    for metric, unit in PROBE_UNITS.items():
        metrics[metric] = (probes[metric], unit)
    overhead = per_pass(traced, n_kinds) / per_pass(plain, n_kinds) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "exactlex" / "__init__.py").is_file():
        print(f"perfbench: no exactlex sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    import workloads  # numpy and exactlex
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    from tracer import Tracer

    imported_rss_mb = peak_rss_mb()
    workload = workloads.Combined(args.workload, workloads.WORKLOADS[args.workload],
                                  OUT / "inputs" / args.workload, args.seed)
    startups, setups = [], []
    for _ in range(SETUPS):
        startups.append(startup_s())
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    setup_s = min(startups) + min(setups)

    tracer = Tracer() if args.trace else None
    plain, traced, attempted, failed = measure(workload, args.seconds, tracer)
    n_kinds = len(workload.kinds)

    print(f"workload {workload.name}, seed {args.seed}: closed loop, one client; {attempted} operations, "
          f"{attempted / n_kinds:.1f} passes of {n_kinds}")
    if not plain or (tracer is None and len(plain) < n_kinds):
        print(f"perfbench: some operation of {workload.name} never succeeded", file=sys.stderr)
        return 1
    if tracer is None:
        best = [min(plain[k]) for k in range(n_kinds)]
        metrics = end_to_end(setup_s, best)
        runs = f"fastest of {min(len(v) for v in plain.values())}+ runs each"
        named = [(m, v, E2E_UNITS[m], "") for m, v in metrics.items()]
        named += [(m, v, u, f"{note}; {runs}") for m, v, u, note in workload.named_metrics(best)]
        named.append(("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted"))
        named.append(("peak_rss_growth_mb", metrics["peak_rss_mb"] - imported_rss_mb, "MB",
                      "peak_rss_mb less the peak once numpy and exactlex were imported"))
        units = E2E_UNITS
    else:
        metrics = per_layer(tracer, n_kinds, plain, traced, workloads.probe_layers())
        units = {m: u for m, (_, u) in metrics.items()}
        metrics = {m: v for m, (v, _) in metrics.items()}
        named = [(m, v, units[m], "") for m, v in metrics.items()]
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}.jsonl")
        summary = {"layer_self_s": tracer.layer_self_times(n_kinds), "per_layer": metrics}
        (OUT / f"trace-{workload.name}.json").write_text(json.dumps(summary, indent=2) + "\n")
        named += [(f"self[{layer}]", v, "s", "per pass")
                  for layer, v in summary["layer_self_s"].items()]
    for name, value, unit, note in named:
        print(f"  {name:<32} {value:>14.6g} {unit:<9} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
