"""minidet3d benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload train-two-stage --seed 1 --seconds 30 --trace 0

Run from the repository root. The program under test is imported from
`src/` next to this directory. `--trace 0` measures the end-to-end metrics
untraced; `--trace 1` runs a separate traced measurement for the per-layer
metrics. Metric names and units come from BENCHMARK.json at the root. Every
metric is printed on its own line with its unit; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is 0 only when every output check passed.
A fuller record (provenance, sample counts, percentiles) is written under
perfbench/out/.
"""

import os

# One core, as the README promises: pin BLAS threads before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_head(root: Path) -> str | None:
    """HEAD commit read from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "minidet3d").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_head": _git_head(ROOT),
        "src_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    if not (SRC / "minidet3d" / "__init__.py").is_file():
        return _fail(f"no minidet3d sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import minidet3d
    import numpy

    if Path(minidet3d.__file__).resolve().parent != SRC / "minidet3d":
        return _fail(f"imported minidet3d from {minidet3d.__file__}, not from {SRC}")
    from perfbench import pipeline

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    prov = provenance(args, numpy)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    run_id = uuid.uuid4().hex
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{run_id}"
    workdir.mkdir()
    try:
        if args.trace:
            outcome = pipeline.run_traced(args.workload, args.seed, args.seconds, workdir,
                                          run_id, OUT / f"{tag}.spans.jsonl")
        else:
            outcome = pipeline.run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = dict(outcome.metrics)
    if not args.trace:
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(outcome.problems)
    if outcome.metrics and set(measured) != set(units):
        problems.append(f"metrics {sorted(set(measured) ^ set(units))} do not match BENCHMARK.json")
    correct = outcome.failed == 0 and not problems

    for name in units:
        if name in measured:
            d = outcome.details.get(name)
            extra = ""
            if d:
                tail = "".join(f", {k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
                extra = (f"  (median of n={d['n']}{tail}; measured median "
                         f"{d['raw_median']:.6g} before speed calibration)")
            print(f"{name} = {measured[name]:.6g} {units[name]}{extra}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    if outcome.details.get("run"):
        print("run " + json.dumps(outcome.details["run"], sort_keys=True))

    metrics = {name: {"value": measured[name], "unit": units[name]}
               for name in units if name in measured}
    record = {"provenance": prov, "run_id": run_id, "correct": correct,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": problems, "metrics": metrics, "details": outcome.details}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
