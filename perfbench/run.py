"""The SmartCrowd benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``lifecycle``      SRA -> scan -> R-dagger/R-star -> Algorithm 1 -> payout
                     -> consumer query, over gossip, with a provider crash
                     and restart from disk;
* ``consumer_reads`` the consumer read path (``QueryService`` and
                     ``ConsumerClient.should_deploy``) under an open loop in
                     wall time, beside a writer appending blocks;
* ``fleet_10k``      a 10,000-node sharded fleet mining blocks back to back;
* ``paper_suite``    the ``python -m repro.experiments`` runner list, serial.

Each workload splits ``--seconds`` into ``repetitions`` equal passes.  With
``--trace 0`` the run sets the workload up and measures it that many times
(plus extra set-ups up to ``setup_repeats``), checks every pass's outputs and
prints the end-to-end metrics as medians over the passes.  With
``--trace 1`` it measures one untraced pass, then one pass with every layer's
entry points wrapped in spans (see ``spans.py``), checks both, and prints the
per-layer metrics plus ``trace.overhead_ratio`` (traced wall / untraced wall).  Spans go to ``.perfbench_out/traces/``.

Every run writes a stamped record (git SHA when known, a digest of ``src/``,
``nproc``, Python version, seed) to ``.perfbench_out/results/`` and prints it
before the last line.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import peak_rss_mb
from fleet import Fleet10k
from lifecycle import Lifecycle
from reads import ConsumerReads
from spans import Tracer
from suite import PaperSuite

#: The workloads, by name.  Their modules import the program lazily, so
#: this file runs (and refuses politely) where the program is absent.
WORKLOADS = {
    workload.name: workload
    for workload in (Lifecycle, ConsumerReads, Fleet10k, PaperSuite)
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Metric names and units, as ``BENCHMARK.json`` declares them: the
#: end-to-end metrics (untraced runs) and the per-layer metrics (traced
#: runs), each reported on every workload.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in _DECLARED["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _DECLARED["per_layer"]}


def _git_sha():
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """SHA-256 over every source file, so results name the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _measure(workload, tracer=None):
    state = workload.setup()
    try:
        if tracer is None:
            return workload.run(state)
        tracer.install()
        try:
            return workload.run(state, tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.teardown(state)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (use one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Anything the program puts in a temporary directory stays in the checkout.
    tempfile.tempdir = str(workdir / "tmp")
    try:
        workload_class = WORKLOADS[args.workload]
        # Each pass gets an equal share of the run's --seconds.
        workload = workload_class(
            args.seed, args.seconds / workload_class.repetitions, workdir, bool(args.trace)
        )
        return _run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload) -> int:
    import repro  # noqa: F401  (imports are not part of set-up time)

    metrics = {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    if args.trace == 0:
        # Several set-ups and several measured passes per run, each
        # reported as a median, so a burst of load on a shared host moves
        # one sample rather than the result.
        setups, passes = [], []
        for index in range(max(workload.setup_repeats, workload.repetitions)):
            gc.collect()
            started = perf_counter()
            state = workload.setup()
            setups.append(perf_counter() - started)
            try:
                if index < workload.repetitions:
                    passes.append(workload.run(state))
            finally:
                workload.teardown(state)
        metrics["setup_s"] = statistics.median(setups)
        metrics["throughput_per_s"] = statistics.median(
            measured.throughput_per_s for measured in passes
        )
        metrics["peak_rss_mb"] = peak_rss_mb()
        untraced_passes = passes
        record["setup_samples_s"] = setups
        units = END_TO_END
    else:
        untraced = _measure(workload)
        gc.collect()
        tracer = Tracer()
        traced_started = perf_counter()
        traced = _measure(workload, tracer)
        passes = [untraced, traced]
        untraced_passes = [untraced]
        if traced.fingerprint != untraced.fingerprint:
            traced.problems.append("the traced pass's outputs differ from the untraced pass's")
        layer = tracer.report(traced.wall_s)
        layer.update(traced.layer)
        # Latencies come from the untraced pass, which tracing did not slow.
        layer.update({name: value for name, value in untraced.layer.items() if name.endswith("_ms")})
        layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
        # A figure the workload produces but BENCHMARK.json does not
        # declare would otherwise vanish from the result unnoticed.
        undeclared = sorted((traced.layer.keys() | untraced.layer.keys()) - PER_LAYER.keys())
        if undeclared:
            traced.problems.append(f"per-layer figures missing from BENCHMARK.json: {undeclared}")
        metrics = {name: float(layer.get(name, 0.0)) for name in PER_LAYER}
        record["layer_all"] = dict(sorted(layer.items()))
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        tracer.export(trace_path, traced_started)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        units = PER_LAYER
        print(_layer_table(args.workload, layer))
    problems = [problem for measured in passes for problem in measured.problems]
    attempted = sum(measured.attempted for measured in passes)
    failed = sum(measured.failed for measured in passes)
    record.update(
        correct=not problems,
        problems=problems[:20],
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        error_base=passes[0].failure_base,
        wall_s=[measured.wall_s for measured in passes],
        units=passes[0].units,
        # The workload's own figures: medians over the untraced passes.
        named={
            name: {
                "value": statistics.median(measured.named[name][0] for measured in untraced_passes),
                "unit": unit,
            }
            for name, (_, unit) in passes[0].named.items()
        },
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["metrics"] = result["metrics"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = record["utc"].replace(":", "").replace("+0000", "Z")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    shown = {key: value for key, value in record.items() if key not in ("layer_all", "metrics")}
    print("record: " + json.dumps(shown, sort_keys=True))
    print(json.dumps(result))
    return 0 if not problems else 1


def _layer_table(workload: str, layer) -> str:
    """Self time, calls and busy time per span name, plus the unaccounted wall."""
    names = sorted({key.rsplit(".", 1)[0] for key in layer if key.endswith(".self_s")})
    lines = [f"per-layer report: {workload}", f"{'span':32} {'calls':>9} {'busy_s':>9} {'self_s':>9}"]
    for name in names:
        calls = layer.get(f"{name}.calls", "")
        busy = layer.get(f"{name}.busy_s")
        lines.append(
            f"{name:32} {calls!s:>9} "
            f"{'' if busy is None else f'{busy:9.3f}':>9} {layer[name + '.self_s']:9.3f}"
        )
    lines.append(f"{'unaccounted wall':32} {'':>9} {'':>9} {layer['trace.unaccounted_s']:9.3f}")
    lines.append(f"trace.overhead_ratio {layer['trace.overhead_ratio']:.3f}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
