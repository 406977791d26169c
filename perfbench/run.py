"""sfglab benchmark: the gen-data -> train -> sample -> eval -> sweep pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload simplex256-sfg --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run measures CLI start-up in fresh interpreters (setup_s), then repeats
the five commands through ``sfglab.cli.main`` in this process for --seconds,
and last runs one traced pipeline outside the timed part, which is checked:
outputs against tolerances and closed forms, the guided-evaluation cost per
step against its analytic value, which traced layers fired, and byte-identical
outputs across repetitions (and across --threads 1 and 2 where the workload
uses threads). --trace 1 alternates untraced and traced repetitions and
reports per-layer metrics instead of end-to-end ones. End-to-end times are
wall times scaled to a reference host speed by a calibration loop timed
around each command (see README.md, "Host-speed scaling").

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it records the environment. A readable report goes to stderr.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# One BLAS thread unless the caller chose otherwise. On a 2-vCPU VM a second
# BLAS thread shares a core with the interpreter, and the worker it leaves
# spinning after each call slows whatever runs next by up to 38%, by an amount
# that changes with the host's load. The variables as found are recorded.
# Set only when run as a script, so that importing this module changes nothing.
BLAS_ENV_FOUND = {k: os.environ.get(k) for k in BLAS_VARS}
if __name__ == "__main__":
    for _var in BLAS_VARS:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS variables)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import instrument  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ALWAYS, COMMANDS, OPTIONAL, WORKLOADS, forwards_per_eval, guided_evals  # noqa: E402

SETUP_REPS = 9
# Host speed. On a shared 2-vCPU VM the speed of the whole machine drifts by
# 20% or more over seconds to minutes, and a command's wall time moves with
# it: across ten runs, run medians of plain wall time spread about as wide as
# the 25% regression bound. So the runner times a fixed interpreter loop
# (``calibrate``) just before and just after every command and every set-up
# process, and scales that wall time by CALIB_REF_S over the mean of the two
# (``host_scale``). A scaled time reads as seconds on a host where the loop
# takes CALIB_REF_S, about the baseline VM's usual speed. The loop runs no
# sfglab code, so a change to sfglab moves a scaled time by the same share
# as its wall time. Plain wall times are in the report.
CALIB_REF_S = 0.0035
WORK_DIR = ".perfbench_work"
# Outputs of gen-data and train, kept when sample/eval/sweep are re-run
# with another thread count.
UPSTREAM = ("gen-data", "train")
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import sfglab.cli
t1 = time.perf_counter()
sfglab.cli.load_config(sys.argv[1])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""

END_TO_END_UNITS = {f"{c.replace('-', '_')}_s": "s" for c in COMMANDS}
END_TO_END_UNITS.update(setup_s="s", pipeline_s="s", peak_rss_mb="MB")


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    for q in range(99, 0, -1):
        if n * (100 - q) / 100 >= 10:
            return q, float(np.percentile(values, q))
    return None


def environment(src: Path, wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((src / "sfglab").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "threads": wl.threads, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_env_found": BLAS_ENV_FOUND, "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def calibrate() -> float:
    """Wall time of a fixed 50,000-step interpreter loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two calibrations into
    seconds at the reference host speed."""
    return 2 * CALIB_REF_S / (before + after)


def measure_setup(cfg_path: Path, env: dict, calib: list) -> dict:
    """Wall times of SETUP_REPS fresh CLI start-ups, plain and scaled."""
    walls, scaled, imports, loads = [], [], [], []
    for _ in range(SETUP_REPS):
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        after = calibrate()
        calib += [before, after]
        scaled.append(walls[-1] * host_scale(before, after))
        if proc.returncode != 0:
            raise RuntimeError(f"CLI start-up failed: {proc.stderr.strip()}")
        imp, load = map(float, proc.stdout.split())
        imports.append(imp)
        loads.append(load)
    return {"setup_s": scaled, "setup_wall_s": walls, "import_s": imports, "config.load_config_s": loads}


class Runner:
    """Runs CLI commands in this process and keeps the tallies for the result."""

    def __init__(self, cli, cfg_path: Path, out: Path):
        self.cli = cli
        self.cfg_path = cfg_path
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calib: list[float] = []  # calibrate() around each command

    def fail(self, problems, where):
        """Record (command, message) problems; each failing command counts once."""
        self.failed += len({cmd for cmd, _ in problems})
        self.problems += [f"{where}: {cmd}: {msg}" for cmd, msg in problems]

    def pipeline(self, threads, commands=COMMANDS, fresh=True):
        """One pass over commands; returns per-command (wall, cpu, scaled wall)
        or None on failure."""
        if fresh:
            shutil.rmtree(self.out, ignore_errors=True)
        times = {}
        for cmd in commands:
            gc.collect()
            before = calibrate()
            self.attempted += 1
            argv = [cmd, "--config", str(self.cfg_path), "--out", str(self.out), "--threads", str(threads)]
            c0, t0 = os.times(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.cli.main(argv)
            except Exception:  # a crash of the program under test is a failed command
                traceback.print_exc()
                rc = "exception"
            wall = time.perf_counter() - t0
            c1 = os.times()
            after = calibrate()
            self.calib += [before, after]
            if rc != 0:
                self.fail([(cmd, f"exit status {rc}")], "run")
                return None
            times[cmd] = (wall, (c1.user - c0.user) + (c1.system - c0.system), wall * host_scale(before, after))
        return times


def contract_problems(wl, runs) -> list[tuple[str, str]]:
    """Guided evaluations and model forwards of every sampler call must equal
    the analytic cost of its guidance stack exactly."""
    problems = []
    for run in runs:
        cmd = run["command"].removeprefix("cli.")
        stack = wl.sample_stack if cmd == "sample" else wl.sweep_stack
        evals = guided_evals(stack, run["n_steps"], run["heun"]) * run["chunks"]
        fwds = evals * forwards_per_eval(stack)
        if (run["evals"], run["forwards"]) != (evals, fwds):
            problems.append((cmd, f"cost contract: {run['evals']} guided evals / {run['forwards']} forwards, "
                                  f"analytic {evals} / {fwds}"))
    return problems


def coverage_problems(wl, counts, runs) -> list[tuple[str, str]]:
    """Each traced layer fires exactly where the workload table says."""
    problems = []
    for name in ALWAYS + OPTIONAL:
        should = name in ALWAYS or name in wl.fires
        if (counts.get(name, 0) > 0) != should:
            problems.append(("trace", f"span {name} fired {counts.get(name, 0)} times, expected "
                                      f"{'some' if should else 'none'}"))
    workers = {t for run in runs for t in run["threads"]}
    if (len(workers) > 1) != (wl.threads > 1):
        problems.append(("trace", f"provider calls ran on {len(workers)} threads with --threads {wl.threads}"))
    return problems


def summarize(samples: dict) -> dict:
    """Median per metric, for the result line."""
    return {k: statistics.median(v) for k, v in samples.items() if v}


def report(wl, env, samples, units, counts_line, runner, walls=None, file=sys.stderr):
    """Readable report; walls holds the plain wall times behind scaled samples."""
    print(f"== {wl.name} (threads {wl.threads})", file=file)
    print(f"env {json.dumps(env, sort_keys=True)}", file=file)
    for name in sorted(samples):
        vals = samples[name]
        tail = tail_percentile(vals)
        tail_txt = f"p{tail[0]} {tail[1]:.6g}" if tail else "tail n/a (<11 samples)"
        wall_txt = f"  (wall median {statistics.median(walls[name]):.6g})" if walls and name in walls else ""
        print(f"  {name:36s} median {statistics.median(vals):.6g} {units.get(name, '')}  "
              f"{tail_txt}  n={len(vals)}{wall_txt}", file=file)
    print(f"  {counts_line}", file=file)
    for p in runner.problems:
        print(f"  FAIL {p}", file=file)
    print(f"  attempted {runner.attempted} commands, failed {runner.failed}, "
          f"{'correct' if not runner.problems else 'NOT correct'}", file=file)


def checked_pipeline(wl, cfg, runner, ref_hashes) -> dict:
    """One traced pipeline outside the timed part, with every output check.

    Returns the counts line for the report and the layer figures that only
    this pipeline yields.
    """
    tracer = Tracer()
    patcher = instrument.install(tracer)
    try:
        times = runner.pipeline(wl.threads)
    finally:
        wrong = patcher.restore()
    if wrong:
        runner.fail([("trace", f"originals not restored: {wrong}")], "restore")
    if times is None:
        return {}
    out = runner.out
    runner.fail(checks.compare_hashes(ref_hashes, checks.file_hashes(out), "traced"), "same seed")
    tag = "+".join(g["kind"] for g in cfg["guidance"])
    dim = 2 if cfg["task"] == "fractal" else cfg["data"][cfg["task"]]["ambient_dim"]
    problems, n_failed = checks.check_samples(out, cfg, tag, dim)
    problems += checks.check_manifests(out, cfg, tag)
    problems += checks.check_eval_report(out, cfg, wl.eval_bounds)
    problems += checks.check_sweep(out, cfg, wl.sweep_bounds, wl.identity_weight, wl.identity_frechet)
    if cfg["task"] == "two_gaussian":
        problems += checks.check_two_gaussian_field(out, cfg)
    runs = instrument.sampler_runs(tracer)
    problems += contract_problems(wl, runs)
    problems += coverage_problems(wl, instrument.span_counts(tracer), runs)
    runner.fail(problems, "output check")

    if wl.threads > 1:
        # The same bytes from one thread: re-run the commands that use threads.
        for p in out.iterdir():
            if checks.command_of(p.name) not in UPSTREAM:
                p.unlink()
        if runner.pipeline(1, COMMANDS[2:], fresh=False) is not None:
            runner.fail(checks.compare_hashes(ref_hashes, checks.file_hashes(out), "--threads 1"), "threads")

    manifest = out / f"sample_manifest_{tag}.json"
    stats = json.loads(manifest.read_text())["extra"].get("sfg_stats", {}) if manifest.exists() else {}
    layer = instrument.layer_metrics(tracer)
    layer["guidance.gate_on_frac"] = stats.get("gate_on_fraction", 0.0)
    layer["sampler.traj_failed_frac"] = n_failed / cfg["sample"]["n_samples"]
    counts = (f"traj_failed_frac {layer['sampler.traj_failed_frac']:.6g}  "
              f"guidance.evals_per_step {layer['guidance.evals_per_step']:.6g}  "
              f"model.fwd_per_step {layer['model.fwd_per_step']:.6g}")
    return {"counts": counts, "layer": {k: layer[k] for k in (
        "guidance.gate_on_frac", "sampler.traj_failed_frac", "guidance.evals_per_step", "model.fwd_per_step")}}


def run_workload(wl, seed: int, seconds: float, trace: bool, root: Path, src: Path) -> int:
    import sfglab.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "sfglab").resolve():
        print(f"sfglab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    env_rec = environment(src, wl)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=root / WORK_DIR))
    try:
        out = work / "out"
        cfg = wl.config(seed, str(out))
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        child_env = dict(os.environ, PYTHONPATH=str(src))
        runner = Runner(cli, cfg_path, out)
        setup = measure_setup(cfg_path, child_env, runner.calib)

        # scaled to host speed (the result) and plain (the report)
        samples = {f"{c.replace('-', '_')}_s": [] for c in (*COMMANDS, "pipeline")}
        walls = {k: [] for k in samples}
        layer_samples: dict[str, list] = {}
        untraced_pipes, traced_pipes, cpu_per_wall = [], [], []
        ref_hashes = None
        start = time.perf_counter()
        i = 0
        while True:
            traced_it = trace and i % 2 == 1
            tracer = Tracer() if traced_it else None
            patcher = instrument.install(tracer) if traced_it else None
            try:
                times = runner.pipeline(wl.threads)
            finally:
                if patcher is not None:
                    wrong = patcher.restore()
                    if wrong:
                        runner.fail([("trace", f"originals not restored: {wrong}")], "restore")
            if times is None:
                break
            pipe = sum(wall for wall, _, _ in times.values())
            if traced_it:
                traced_pipes.append(pipe)
                for k, v in instrument.layer_metrics(tracer).items():
                    layer_samples.setdefault(k, []).append(v)
            elif trace and i == 0:
                pass  # cold warm-up, so that neither side of the tracing overhead carries it
            else:
                untraced_pipes.append(pipe)
                for cmd, (wall, _, scaled) in times.items():
                    samples[f"{cmd.replace('-', '_')}_s"].append(scaled)
                    walls[f"{cmd.replace('-', '_')}_s"].append(wall)
                samples["pipeline_s"].append(sum(scaled for _, _, scaled in times.values()))
                walls["pipeline_s"].append(pipe)
                cpu_per_wall.append(times["sample"][1] / times["sample"][0])
            hashes = checks.file_hashes(out)
            if ref_hashes is None:
                ref_hashes = hashes
            else:
                runner.fail(checks.compare_hashes(ref_hashes, hashes, f"repeat {i}"), "same seed")
            i += 1
            if time.perf_counter() - start >= seconds and (not trace or i >= 3):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env_rec["calibration_s"] = statistics.median(runner.calib)

        check = checked_pipeline(wl, cfg, runner, ref_hashes) if not runner.problems else {}

        if trace:
            metrics = summarize(layer_samples)
            setup_layers = {k: v for k, v in setup.items() if k in instrument.LAYER_UNITS}
            metrics.update(summarize(setup_layers))
            metrics.update(check.get("layer", {}))
            if cpu_per_wall:
                metrics["sample.cpu_per_wall"] = statistics.median(cpu_per_wall)
            if traced_pipes and untraced_pipes:
                metrics["trace.overhead_s"] = statistics.median(traced_pipes) - statistics.median(untraced_pipes)
            units = instrument.LAYER_UNITS
            shown = dict(layer_samples, **setup_layers)
        else:
            shown = dict(samples, setup_s=setup["setup_s"])
            walls["setup_s"] = setup["setup_wall_s"]
            metrics = summarize(shown)
            metrics["peak_rss_mb"] = peak_rss_mb
            units = END_TO_END_UNITS
        report(wl, env_rec, shown, units, check.get("counts", ""), runner, walls)
        result = {
            "correct": not runner.problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())
                        if k in units and math.isfinite(v)},
        }
        print("env " + json.dumps(env_rec, sort_keys=True))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()


def run_all(args) -> int:
    """Every workload in its own process; prints a combined result line."""
    results, worst = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True, timeout=900)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = [r for r in results.values() if r is not None]
    combined = {
        "correct": len(ok) == len(results) and all(r["correct"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok) or 1,
        "failed": sum(r["failed"] for r in ok) + (len(results) - len(ok)),
        "metrics": {f"{name}/{k}": v for name, r in results.items() if r for k, v in r["metrics"].items()},
    }
    for key, m in combined["metrics"].items():
        print(f"{key:56s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    src = root / "src"
    if not (src / "sfglab" / "cli.py").is_file():
        print(f"no sfglab sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, src)


if __name__ == "__main__":
    sys.exit(main())
