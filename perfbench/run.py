"""Drop benchmark for nrpos: end-to-end metrics, or per-layer metrics from
traced repetitions, for one workload.

    python3 perfbench/run.py --workload ioo-multi-rtt --seed 1 --seconds 30 --trace 0

Each repetition is a fresh ``worker.py`` process running the whole
experiment. Repetitions continue until ``--seconds`` would be exceeded,
with at least two untraced ones (``--trace 0``) or one untraced and one
traced pair (``--trace 1``). Every repetition must write byte-identical
results.csv; the last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MASTER_SEED, N_DROPS, REF_PROBE_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; no repetition starts that would pass this
HARD_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 120.0

# per-layer metric -> (span name, field of Tracer.totals, unit)
LAYER_METRICS = {
    "sequences.gold_sequence.calls": ("sequences.gold_sequence", "calls", "count"),
    "sequences.gold_sequence.s": ("sequences.gold_sequence", "s", "s"),
    "prs.dl_prs_reference.s": ("prs.dl_prs_reference", "s", "s"),
    "scenario.build_deployment.s": ("scenario.build_deployment", "s", "s"),
    "scenario.drop_ues.s": ("scenario.drop_ues", "s", "s"),
    "simulate.init.self_s": ("simulate.init", "self_s", "s"),
    "channel.realize_budget_link.calls": ("channel.realize_budget_link", "calls", "count"),
    "channel.realize_budget_link.s": ("channel.realize_budget_link", "s", "s"),
    "kernel.ifft.calls": ("kernel.ifft", "calls", "count"),
    "kernel.ifft.points": ("kernel.ifft", "extra", "count"),
    "kernel.ifft.s": ("kernel.ifft", "s", "s"),
    "measurements.first_path.calls": ("measurements.first_path", "calls", "count"),
    "measurements.first_path.fail": ("measurements.first_path", "fail", "count"),
    "measurements.first_path.s": ("measurements.first_path", "s", "s"),
    "measurements.polish_peak.calls": ("measurements.polish_peak", "calls", "count"),
    "measurements.polish_peak.s": ("measurements.polish_peak", "s", "s"),
    "simulate.signal.self_s": ("simulate.run_drop", "self_s", "s"),
    "simulate.solve_records.calls": ("simulate.solve_records", "calls", "count"),
    "simulate.solve_records.fail": ("simulate.solve_records", "fail", "count"),
    "simulate.solve_records.s": ("simulate.solve_records", "s", "s"),
    "solvers.iterations.sum": ("simulate.solve_records", "extra", "count"),
    "solvers.gdop.calls": ("solvers.gdop", "calls", "count"),
    "solvers.gdop.s": ("solvers.gdop", "s", "s"),
    "experiments.self_s": ("experiments.run_experiment", "self_s", "s"),
}


class BenchError(RuntimeError):
    pass


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy.percentile's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_rep(workload: str, n_drops: int, traced: bool, out_dir: Path) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--drops", str(n_drops), "--trace", str(int(traced)), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    line = proc.stdout.strip().splitlines()[-1]
    (out_dir / "timings.json").write_text(line + "\n")
    rep = json.loads(line)
    results = (out_dir / "results.csv").read_bytes()
    rep["results_sha256"] = hashlib.sha256(results).hexdigest()
    rep["results_csv"] = results.decode()
    rep["cdf_csv"] = (out_dir / "cdf.csv").read_text()
    return rep


NUMPY_REPR = re.compile(r"np\.float64\((.+)\)")


def csv_number(text: str, defects: set[str]) -> float:
    """Parse a CSV number. numpy >= 2 spells a bare repr() of a float64 as
    np.float64(x); that is a defect of the file, recorded but not fatal."""
    match = NUMPY_REPR.fullmatch(text)
    if match:
        defects.add("cdf.csv holds numpy reprs such as np.float64(x), not plain numbers")
        text = match.group(1)
    return float(text)


def check_outputs(rep: dict, n_drops: int, defects: set[str]) -> list[str]:
    """Problems with one repetition's results.csv and cdf.csv."""
    problems = []
    try:
        rows = list(csv.DictReader(io.StringIO(rep["results_csv"])))
        if [int(r["ue_id"]) for r in rows] != list(range(n_drops)):
            problems.append(f"results.csv has {len(rows)} rows, not drops 0..{n_drops - 1}")
        cdf = list(csv.DictReader(io.StringIO(rep["cdf_csv"])))
        for col in ("horizontal_error_m", "probability"):
            vals = [csv_number(r[col], defects) for r in cdf]
            if any(b < a for a, b in zip(vals, vals[1:])):
                problems.append(f"cdf.csv column {col} decreases")
        n_converged = sum(r["converged"] == "1" for r in rows)
        if len(cdf) != n_converged:
            problems.append(f"cdf.csv has {len(cdf)} points for {n_converged} converged fixes")
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable results.csv or cdf.csv: {exc!r}")
    return problems


def accuracy(results_csv: str, area) -> tuple[float, list[float]]:
    """Failed fraction and the horizontal errors of in-area converged fixes.

    A converged fix outside the deployment area counts as failed."""
    x0, y0, x1, y1 = area
    rows = list(csv.DictReader(io.StringIO(results_csv)))
    errors = [
        float(r["horizontal_error_m"]) for r in rows
        if r["converged"] == "1"
        and x0 <= float(r["est_x"]) <= x1 and y0 <= float(r["est_y"]) <= y1
    ]
    return 1.0 - len(errors) / len(rows), errors


def at_ref_speed(times: list[float], probes: list[float]) -> list[float]:
    """Wall times rescaled from the machine speed their bracketing probes
    saw to the reference speed (worker.REF_PROBE_S)."""
    return [t * REF_PROBE_S / p for t, p in zip(times, probes)]


def drop_ms(reps: list[dict], q: float) -> float:
    """Quantile over drops of each drop's best time, at reference speed,
    over the repetitions. Every repetition runs the same drops on the same
    inputs; a speed switch between a drop and its probes mostly inflates
    the rescaled time, so the best one is the steadiest."""
    per_drop = zip(*(at_ref_speed(r["drop_s"], r["drop_probe_s"]) for r in reps))
    return 1e3 * quantile([min(times) for times in per_drop], q)


def drops_per_s(rep: dict) -> float:
    """Drops over the drop phase at reference speed. The phase's time
    outside run_drop is rescaled by the repetition's mean probe."""
    drops = sum(at_ref_speed(rep["drop_s"], rep["drop_probe_s"]))
    rest = (rep["drop_phase_s"] - sum(rep["drop_s"])) \
        * REF_PROBE_S / statistics.mean(rep["drop_probe_s"])
    return len(rep["drop_s"]) / (drops + rest)


def setup_times(reps: list[dict]) -> list[float]:
    return [t for r in reps for t in at_ref_speed(r["setup_s"], r["setup_probe_s"])]


def e2e_metrics(reps: list[dict], n_drops: int) -> dict:
    med = statistics.median
    fail_frac, errors = accuracy(reps[0]["results_csv"], reps[0]["area"])
    if not errors:
        raise BenchError("no converged fix inside the area; error percentiles are undefined")
    return {
        "setup_s": {"value": med(setup_times(reps)), "unit": "s"},
        "drops_per_s": {"value": med(map(drops_per_s, reps)), "unit": "1/s"},
        "drop_ms.p50": {"value": drop_ms(reps, 0.50), "unit": "ms"},
        "drop_ms.p95": {"value": drop_ms(reps, 0.95), "unit": "ms"},
        "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in reps), "unit": "MB"},
        "fail_frac": {"value": fail_frac, "unit": "ratio"},
        "err_p50_m": {"value": quantile(errors, 0.50), "unit": "m"},
        "err_p90_m": {"value": quantile(errors, 0.90), "unit": "m"},
    }


def sample_counts(reps: list[dict], n_drops: int) -> dict:
    """How many samples each end-to-end metric rests on."""
    _, errors = accuracy(reps[0]["results_csv"], reps[0]["area"])
    return {
        "setup_s": sum(len(r["setup_s"]) for r in reps),
        "drop_ms": n_drops,
        "err_m": len(errors),
    }


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians over traced repetitions. A hook whose target is
    gone is reported with value null, never as zero, and is named under
    missing_hooks in the report."""
    med = statistics.median
    missing = {name for r in traced for name in r["missing"]}
    metrics = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        if span in missing:
            metrics[metric] = {"value": None, "unit": unit}
        else:
            metrics[metric] = {
                "value": med(r["layers"].get(span, {}).get(field, 0) for r in traced),
                "unit": unit,
            }
    p50_traced = drop_ms(traced, 0.50)
    p50_untraced = drop_ms(untraced, 0.50)
    metrics["trace.drop_ms.p50.traced"] = {"value": p50_traced, "unit": "ms"}
    metrics["trace.drop_ms.p50.untraced"] = {"value": p50_untraced, "unit": "ms"}
    metrics["trace.overhead"] = {"value": p50_traced / p50_untraced, "unit": "ratio"}
    return metrics


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "master_seed": MASTER_SEED,
        "threads_env": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--drops", type=int, default=N_DROPS,
                        help="drops per repetition (smoke tests use a few)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nrpos" / "simulate.py").is_file():
        print(f"perfbench: no nrpos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    min_reps = 2
    reps: list[dict] = []
    started = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(args.workload, args.drops, traced,
                                out_root / f"rep{len(reps)}"))
            elapsed = time.perf_counter() - started
            next_end = elapsed + elapsed / len(reps)
            if len(reps) >= min_reps and len(reps) % (2 if args.trace else 1) == 0 \
                    and (next_end > args.seconds or next_end > HARD_LIMIT_S):
                break
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        defects: set[str] = set()
        problems = [p for r in reps for p in check_outputs(r, args.drops, defects)]
        hashes = sorted({r["results_sha256"] for r in reps})
        if len(hashes) > 1:
            problems.append(f"results.csv differs between repetitions: {hashes}")
        if args.trace:
            metrics = layer_metrics(untraced, traced)
        else:
            metrics = e2e_metrics(untraced, args.drops)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing_hooks = sorted({m for r in traced for m in r["missing"]})
    if missing_hooks:
        print(f"perfbench: hook targets missing: {', '.join(missing_hooks)}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "drops": args.drops,
        "repetitions": [
            {"traced": r["traced"],
             "probe_ms.p50": 1e3 * statistics.median(r["drop_probe_s"]),
             "setup_s": setup_times([r]), "setup_s.wall": r["setup_s"],
             "drops_per_s": drops_per_s(r), "drops_per_s.wall": args.drops / r["drop_phase_s"],
             "drop_ms.p50": drop_ms([r], 0.50), "drop_ms.p95": drop_ms([r], 0.95),
             "drop_ms.p50.wall": 1e3 * quantile(r["drop_s"], 0.50),
             "drop_ms.p95.wall": 1e3 * quantile(r["drop_s"], 0.95)}
            for r in reps
        ],
        "samples": None if args.trace else sample_counts(untraced, args.drops),
        "results_sha256": hashes,
        "missing_hooks": missing_hooks,
        "problems": problems,
        "defects": sorted(defects),
        "env": environment(args.seed),
    }
    (out_root / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": args.drops * len(reps),
        "failed": 0,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
