"""Benchmark entry point for the truth-discovery service and crowd loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_saturated --seed 1 --seconds 50 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve_saturated`` — recover a journaled, supervised service, then run
  it at capacity with a closed loop of full batches plus a light reader;
* ``crowd_rounds`` — the paper's TDH+EAI crowdsourcing rounds on
  BirthPlaces.

``--trace 0`` reports every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` repeats the untraced measurement, then measures again with
spans recorded around the benchmark's calls into each layer, and reports
every per-layer metric plus the tracing overhead (traced minus untraced).
Spans and a full report go to ``perfbench/out/``.

Every run checks the program's outputs; a run that fails a check prints the
failures to stderr, reports ``"correct": false`` with no metrics, and exits
with status 1. The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("serve_saturated", "crowd_rounds")
#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_OF = ("setup_s", "write_visible_p50_ms", "read_p50_us", "round_p50_ms")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} is missing; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


def _declared() -> Tuple[Dict[str, str], Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _provenance() -> Dict[str, object]:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "switch_interval_s": sys.getswitchinterval(),
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _serve(args, workdir: Path, report: Dict[str, object]):
    import serve
    from spans import SpanRecorder

    untraced = serve.run_phase(args.seed, args.seconds, workdir)
    problems = list(untraced.problems)
    metrics = serve.end_to_end(untraced)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    report["calibration"] = serve.calibration(untraced)
    attempted = sum(w.sent + w.reads for w in untraced.windows)
    failed = sum(w.failed_writes + w.failed_reads for w in untraced.windows)
    if not args.trace:
        return problems, attempted, failed, metrics, None

    recorder = SpanRecorder()
    traced = serve.run_phase(args.seed, args.seconds, workdir, recorder)
    problems += [f"traced: {p}" for p in traced.problems]
    # Episodes are fixed work, so the traced one must take the same path.
    before, after = untraced.windows[0].counters(), traced.windows[0].counters()
    for key in before:
        if before[key] != after[key]:
            problems.append(f"path check: {key} {before[key]} untraced vs {after[key]} traced")
    report["traced_calibration"] = serve.calibration(traced)
    layers = serve.per_layer(traced, recorder)
    layers.update(_overhead(metrics, serve.end_to_end(traced)))
    layers["tracing.spans"] = len(recorder.spans)
    attempted += sum(w.sent + w.reads for w in traced.windows)
    failed += sum(w.failed_writes + w.failed_reads for w in traced.windows)
    return problems, attempted, failed, layers, recorder


def _crowd(args, report: Dict[str, object]):
    import crowd
    from spans import SpanRecorder

    untraced = crowd.run_phase(args.seed, args.seconds)
    problems = list(untraced.problems)
    metrics = crowd.end_to_end(untraced)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    report["calibration"] = crowd.calibration(untraced)
    attempted = sum(len(e.answers) for e in untraced.episodes)
    if not args.trace:
        return problems, attempted, 0, metrics, None

    recorder = SpanRecorder()
    traced = crowd.run_phase(
        args.seed, args.seconds, recorder, reference=untraced.episodes[0]
    )
    problems += [f"traced: {p}" for p in traced.problems]
    layers = crowd.per_layer(traced)
    # The traced episode replays the first untraced one: compare like for like.
    first = crowd.CrowdRun(episodes=untraced.episodes[:1], setup=untraced.setup)
    layers.update(_overhead(crowd.end_to_end(first), crowd.end_to_end(traced)))
    layers["tracing.spans"] = len(recorder.spans)
    attempted += sum(len(e.answers) for e in traced.episodes)
    return problems, attempted, 0, layers, recorder


def _overhead(untraced: Dict[str, float], traced: Dict[str, float]) -> Dict[str, float]:
    return {f"tracing.overhead_{name}": traced[name] - untraced[name] for name in OVERHEAD_OF}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    end_to_end_units, per_layer_units = _declared()
    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(),
    }
    print(json.dumps({"provenance": report["provenance"]}), flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.workload == "crowd_rounds":
            outcome = _crowd(args, report)
        else:
            outcome = _serve(args, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems, attempted, failed, values, recorder = outcome

    units = per_layer_units if args.trace else end_to_end_units
    if args.trace:
        values = {**dict.fromkeys(per_layer_units, 0), **values}
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or missing:
        problems.append(f"metric names differ from BENCHMARK.json: +{unknown} -{missing}")
    report.update(problems=problems, attempted=attempted, failed=failed, metrics=values)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write_jsonl(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({"calibration": report.get("calibration")}), flush=True)

    correct = not problems and failed == 0
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": (
            {name: {"value": float(values[name]), "unit": units[name]} for name in units}
            if correct
            else {}
        ),
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
