"""One benchmark repetition in a fresh process.

Runs ``experiments.run_experiment`` for one workload through the public
API, writes the run's artifacts to ``--out`` and prints one JSON line with
its timings. With ``--trace 1`` every layer hook is installed and the
spans are written to ``--out``/spans.jsonl.

    python3 perfbench/worker.py --workload uma-dl-aod --drops 200 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Hook, Tracer

ROOT = Path(__file__).resolve().parent.parent

# name -> (preset, method). Every workload keeps the preset's default signal
# shape: 272 PRB, 3,264 subcarriers, a 16,384-point delay transform.
WORKLOADS = {
    # 12 TRPs; DL and UL stages and 24 first-path detections per drop
    "ioo-multi-rtt": ("ioo-fr1", "multi-rtt"),
    # 21 TRPs; beam sweep and angle solve, no delay transform at all
    "uma-dl-aod": ("uma", "dl-aod"),
    # 21 TRPs on 12 comb offsets; detection often fails before the solver
    "uma-dl-tdoa": ("uma", "dl-tdoa"),
}
# At least ten drops lie beyond the p95 drop time.
N_DROPS = 200
# The drop population is pinned so that the accuracy metrics and the
# results.csv hash are a fingerprint of the code alone; see README.md.
MASTER_SEED = 1
# Untraced repetitions construct the Simulator this many more times after the
# run, so that the set-up median rests on several samples per repetition.
EXTRA_SETUPS = 4

# Hooks every repetition needs for the end-to-end metrics.
E2E_HOOKS = (
    Hook("experiments.run_experiment", "nrpos.experiments", "run_experiment"),
    Hook("simulate.init", "nrpos.simulate", "Simulator.__init__"),
    Hook("simulate.run_drop", "nrpos.simulate", "Simulator.run_drop", request_arg=1),
)

# Probe calls are spans too, so that no layer's self time includes them.
PROBE = Hook("perfbench.probe", "worker", "probe")

# Layer hooks, installed only in traced repetitions.
LAYER_HOOKS = (
    Hook("sequences.gold_sequence", "nrpos.sequences", "gold_sequence"),
    Hook("prs.dl_prs_reference", "nrpos.prs", "dl_prs_reference"),
    Hook("scenario.build_deployment", "nrpos.scenario", "build_deployment"),
    Hook("scenario.drop_ues", "nrpos.scenario", "drop_ues"),
    Hook("channel.realize_budget_link", "nrpos.channel", "realize_budget_link"),
    Hook("kernel.ifft", "numpy.fft", "ifft", caller="nrpos.simulate",
         extra=lambda out: out.size),
    Hook("measurements.first_path", "nrpos.measurements", "first_path_from_magnitude"),
    Hook("measurements.polish_peak", "nrpos.measurements", "_polish_peak"),
    Hook("simulate.solve_records", "nrpos.simulate", "solve_records",
         failed=lambda fix: not fix.converged, extra=lambda fix: fix.iterations),
    Hook("solvers.gdop", "nrpos.solvers", "gdop"),
)


# probe() takes this long on the machine the benchmark was calibrated on,
# a 2-vCPU Intel Xeon VM, at its faster speed; timings are reported as if
# the machine ran at that speed throughout.
REF_PROBE_S = 1.5e-3
# bound now, so that nothing nrpos does to numpy at import reaches the probe
_PROBE_IFFT = np.fft.ifft
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal(16384) + 1j * _PROBE_RNG.standard_normal(16384)
_PROBE_M = _PROBE_RNG.standard_normal((96, 96))


def probe() -> float:
    """Wall time of a fixed numpy and Python workload that nrpos cannot
    change: a gauge of how fast the machine runs at this moment."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.abs(_PROBE_IFFT(_PROBE_X)).argmax()
        _PROBE_M @ _PROBE_M
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - t0


def run(workload: str, n_drops: int, traced: bool, out_dir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from nrpos import experiments
    from nrpos.config import preset_config

    nrpos_file = Path(experiments.__file__).resolve()
    if ROOT / "src" not in nrpos_file.parents:
        raise RuntimeError(f"nrpos imported from {nrpos_file}, not from this checkout")

    tracer = Tracer()
    for hook in E2E_HOOKS:
        if not tracer.install(hook):
            raise RuntimeError(f"end-to-end hook target {hook.module}.{hook.attr} is gone")
    missing = []
    if traced:
        missing = [h.name for h in LAYER_HOOKS if not tracer.install(h)]

    # Each construction and each drop is bracketed by probes; a drop's
    # closing probe opens the next drop.
    setup_probe_s: list[float] = []
    drop_probe_s: list[float] = []
    probes: list[float] = []
    run_drop = experiments.Simulator.run_drop

    def gauge():
        probes.append(tracer.call(PROBE, probe, (), {}))

    def probed_drop(self, drop_idx):
        out = run_drop(self, drop_idx)
        gauge()
        drop_probe_s.append((probes[-2] + probes[-1]) / 2)
        return out

    experiments.Simulator.run_drop = probed_drop
    for _ in range(20):  # warm the probe's code paths and buffers
        probe()

    # keep the run's Simulator: the fix area that decides fail_frac is its own
    sims = []
    simulator = experiments.Simulator

    def construct(config):
        gauge()
        sims.append(simulator(config))
        gauge()
        setup_probe_s.append((probes[-2] + probes[-1]) / 2)
        return sims[-1]

    experiments.Simulator = construct

    preset, method = WORKLOADS[workload]
    config = preset_config(preset, method=method, n_drops=n_drops, master_seed=MASTER_SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiments.run_experiment(config, out_dir=out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_probes_s = sum(probes)
    if not traced:
        for _ in range(EXTRA_SETUPS):
            construct(config)

    setup_s = tracer.durations("simulate.init")
    run_s = tracer.durations("experiments.run_experiment")[0]
    doc = {
        "setup_s": setup_s,  # the first is the construction inside run_experiment
        "setup_probe_s": setup_probe_s,
        "drop_phase_s": run_s - setup_s[0] - run_probes_s,
        "drop_s": tracer.durations("simulate.run_drop"),
        "drop_probe_s": drop_probe_s,
        "peak_rss_mb": peak_rss_mb,
        "area": list(sims[0].options.area),
        "traced": traced,
        "missing": missing,
    }
    if traced:
        doc["layers"] = tracer.totals()
        tracer.write(out_dir / "spans.jsonl")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--drops", type=int, default=N_DROPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    doc = run(args.workload, args.drops, bool(args.trace), args.out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
