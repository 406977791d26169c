"""Output checks on one pipeline's out directory.

Every check returns a list of (command, message) problems, empty when the
outputs are right. The checks use tolerances and exact closed forms, not
stored hashes, so a later change that moves the last digits still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Files each command writes, by name; used to blame a bad file on a command.
_OWNERS = (
    ("gen-data", ("gen_data_manifest.json", "train.csv", "test_")),
    ("train", ("train_manifest.json", ".ckpt", "_loss.csv")),
    ("sample", ("sample_manifest_", "samples_", "sfg_trace_")),
    ("eval", ("eval_manifest.json", "eval_report.json", "esm_rows.csv", "field_")),
    ("sweep", ("sweep_manifest.json", "sweep.csv")),
)


def command_of(filename: str) -> str:
    for cmd, marks in _OWNERS:
        if any(m in filename for m in marks):
            return cmd
    return "unknown"


def file_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


def compare_hashes(ref: dict, got: dict, what: str) -> list[tuple[str, str]]:
    problems = []
    for name in sorted(set(ref) | set(got)):
        if ref.get(name) != got.get(name):
            state = "missing" if name not in got else "extra" if name not in ref else "differs"
            problems.append((command_of(name), f"{what}: {name} {state}"))
    return problems


def _subset_mismatch(expected, actual, path="config"):
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path} is not an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key} missing"
            bad = _subset_mismatch(value, actual[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"


def _manifest_hash(identity: dict) -> str:
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def check_manifests(out: Path, cfg: dict, tag: str) -> list[tuple[str, str]]:
    """Each command's manifest exists, embeds the run's config and seed, and
    its config_hash is the hash of the embedded config."""
    identity = {k: v for k, v in cfg.items() if k != "threads"}
    problems = []
    for cmd, name in (("gen-data", "gen_data_manifest.json"), ("train", "train_manifest.json"),
                      ("sample", f"sample_manifest_{tag}.json"), ("eval", "eval_manifest.json"),
                      ("sweep", "sweep_manifest.json")):
        path = out / name
        if not path.exists():
            problems.append((cmd, f"{name} missing"))
            continue
        doc = json.loads(path.read_text())
        if doc.get("command") != cmd or doc.get("seed") != cfg["seed"]:
            problems.append((cmd, f"{name}: command/seed {doc.get('command')}/{doc.get('seed')}"))
        if doc.get("config_hash") != _manifest_hash(doc.get("config", {})):
            problems.append((cmd, f"{name}: config_hash does not match the embedded config"))
        bad = _subset_mismatch(identity, doc.get("config"))
        if bad:
            problems.append((cmd, f"{name}: {bad}"))
    return problems


def _finite_numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    return all(_finite_numbers(v) for v in obj)


def _within(name, value, bounds, cmd):
    lo, hi = bounds
    if value is None or not (lo <= value <= hi):
        return [(cmd, f"{name} = {value} outside [{lo:g}, {hi:g}]")]
    return []


def check_eval_report(out: Path, cfg: dict, bounds: dict) -> list[tuple[str, str]]:
    path = out / "eval_report.json"
    if not path.exists():
        return [("eval", "eval_report.json missing")]
    report = json.loads(path.read_text())
    if not _finite_numbers(report):
        return [("eval", "eval_report.json holds a non-finite number")]
    problems = []
    for key in ("frechet", "outlier_rate", "coverage_entropy"):
        problems += _within(key, report.get(key), bounds[key], "eval")
    if "esm" in bounds:
        want = 3 * len(cfg["eval"]["sigmas"])
        if len(report["esm_rows"]) != want:
            problems.append(("eval", f"{len(report['esm_rows'])} esm rows, expected {want}"))
        for row in report["esm_rows"]:
            problems += _within(f"esm[{row['region']}, {row['sigma']:g}]", row["esm"], bounds["esm"], "eval")
    if "gate_on_fraction" in bounds:
        stats = report.get("sfg_stats") or {}
        problems += _within("sfg_stats.gate_on_fraction", stats.get("gate_on_fraction"),
                            bounds["gate_on_fraction"], "eval")
    return problems


def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) if v else math.nan for k, v in row.items()} for row in csv.DictReader(fh)]


def check_sweep(out: Path, cfg: dict, bounds: dict, identity_weight: float,
                identity_frechet: float) -> list[tuple[str, str]]:
    path = out / "sweep.csv"
    if not path.exists():
        return [("sweep", "sweep.csv missing")]
    rows = _read_table(path)
    sw = cfg["sweep"]
    want = len(sw["weights"]) * len(sw.get("alphas") or [None]) * len(sw.get("h_values") or [None])
    problems = [] if len(rows) == want else [("sweep", f"sweep.csv has {len(rows)} rows, expected {want}")]
    for row in rows:
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(("sweep", f"non-finite sweep row {row}"))
        for key, b in bounds.items():
            problems += _within(f"sweep[{row['weight']:g}].{key}", row.get(key), b, "sweep")
        if row["weight"] == identity_weight:
            problems += _within(f"unguided sweep[{row['weight']:g}].frechet", row.get("frechet"),
                                (0.0, identity_frechet), "sweep")
    return problems


def check_samples(out: Path, cfg: dict, tag: str, dim: int) -> tuple[list, int]:
    """Sample count and width; returns (problems, failed trajectories)."""
    manifest = out / f"sample_manifest_{tag}.json"
    samples = out / f"samples_{tag}.csv"
    if not manifest.exists() or not samples.exists():
        return [("sample", "sample outputs missing")], cfg["sample"]["n_samples"]
    n_failed = json.loads(manifest.read_text())["extra"]["n_failed"]
    with open(samples) as fh:
        header = fh.readline().strip().split(",")
        n_rows = sum(1 for line in fh if line.strip())
    problems = []
    if len(header) != dim + 2:
        problems.append(("sample", f"samples have {len(header) - 2} coordinates, expected {dim}"))
    if n_rows != cfg["sample"]["n_samples"] - n_failed:
        problems.append(("sample", f"{n_rows} sample rows for {n_failed} failed trajectories"))
    if n_failed:
        problems.append(("sample", f"{n_failed} trajectories became non-finite"))
    return problems, n_failed


def exact_two_gaussian_field(points, separation, base_variance, var):
    """Closed-form curvature field of two equal isotropic 2-d Gaussians at
    +-separation/2 on the first axis, smoothed to variance base + var."""
    c = base_variance + var
    mu = np.array([[-separation / 2.0, 0.0], [separation / 2.0, 0.0]])
    d = mu[None, :, :] - points[:, None, :]  # (G, 2 components, 2 dims)
    s_i = d / c
    logits = -(d * d).sum(axis=2) / (2.0 * c)
    r = np.exp(logits - logits.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    s = np.einsum("gk,gki->gi", r, s_i)
    hess = (np.einsum("gk,gki,gkj->gij", r, s_i, s_i) - np.einsum("gi,gj->gij", s, s)
            - np.eye(2)[None] / c)
    vals, vecs = np.linalg.eigh(hess)
    return {"score": s, "lambda_max": vals[:, -1], "gap": vals[:, -1] - vals[:, 0],
            "evec": vecs[:, :, -1], "clf0": s_i[:, 0] - s, "clf1": s_i[:, 1] - s}


def check_two_gaussian_field(out: Path, cfg: dict, rtol=1e-6, atol=1e-8) -> list[tuple[str, str]]:
    """Each field table equals the closed form within printing precision."""
    tg = cfg["data"]["two_gaussian"]
    fcfg = cfg["eval"]["field"]
    problems = []
    for var in fcfg["variances"]:
        path = out / f"field_var{var:g}.csv"
        if not path.exists():
            problems.append(("eval", f"{path.name} missing"))
            continue
        rows = _read_table(path)
        if len(rows) != fcfg["grid_n"] ** 2:
            problems.append(("eval", f"{path.name}: {len(rows)} rows, expected {fcfg['grid_n'] ** 2}"))
            continue
        col = lambda *names: np.array([[row[n] for n in names] for row in rows])
        ref = exact_two_gaussian_field(col("x0", "x1"), tg["separation"], tg["base_variance"], var)
        pairs = [("score", col("score0", "score1"), ref["score"]),
                 ("lambda_max", col("lambda_max")[:, 0], ref["lambda_max"]),
                 ("clf0", col("clf0_0", "clf0_1"), ref["clf0"]),
                 ("clf1", col("clf1_0", "clf1_1"), ref["clf1"])]
        for name, got, want in pairs:
            if not np.allclose(got, want, rtol=rtol, atol=atol):
                err = np.abs(got - want).max()
                problems.append(("eval", f"{path.name}: {name} off the closed form by {err:.3g}"))
        distinct = ref["gap"] > 1e-6  # the top eigenvector is defined only up to sign, and only with a gap
        align = np.abs((col("evec0", "evec1") * ref["evec"]).sum(axis=1))
        if not np.allclose(align[distinct], 1.0, atol=1e-6):
            problems.append(("eval", f"{path.name}: top eigenvector off the closed form"))
        clear = np.abs(ref["lambda_max"]) > 1e-9
        gate = col("gate")[:, 0] > 0.5
        if np.any(gate[clear] != (ref["lambda_max"][clear] > 0)):
            problems.append(("eval", f"{path.name}: gate flag disagrees with the sign of lambda_max"))
    return problems
