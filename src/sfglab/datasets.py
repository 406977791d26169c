"""Toy data regimes, each an exact Gaussian mixture: a simplex mixture with
saddle and outlier companion mixtures, a two-Gaussian separation task, and a
branching fractal whose segments are thin anisotropic components."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import generator

WRITE_BLOCK_CELLS = 1 << 14  # cells per `%`-format in LabeledPointSet.to_csv
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GmmSpec:
    """Exact mixture-of-Gaussians parameters.

    ``covariances`` is either shape (k,) of per-component isotropic variances
    or shape (k, n, n) of full SPD matrices. ``labels`` gives one class id per
    component (component index by default) and doubles as the conditioning id
    for class-conditional training.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    labels: np.ndarray = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        c = np.asarray(self.covariances, dtype=float)
        if m.ndim != 2:
            raise ValueError("means must be a (k, n) array")
        k, n = m.shape
        if w.shape != (k,):
            raise ValueError(f"weights shape {w.shape} != ({k},)")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if c.shape == (k,):
            if np.any(c <= 0):
                raise ValueError("isotropic variances must be strictly positive")
        elif c.shape == (k, n, n):
            asym = np.abs(c - np.swapaxes(c, 1, 2)).max()
            if asym > 1e-12:
                raise ValueError(f"covariances asymmetric by {asym:g} (> 1e-12)")
            bad = np.flatnonzero(np.linalg.eigvalsh(c).min(axis=1) <= 0)
            if bad.size:
                raise ValueError(f"covariance {bad[0]} is not positive definite")
        else:
            raise ValueError(f"covariances shape {c.shape} incompatible with {k} components in {n}-d")
        lab = self.labels
        lab = np.arange(k) if lab is None else np.asarray(lab, dtype=int)
        if lab.shape != (k,):
            raise ValueError("labels must have one entry per component")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covariances", c)
        object.__setattr__(self, "labels", lab)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def isotropic(self) -> bool:
        return self.covariances.ndim == 1


@dataclass(frozen=True)
class FractalSpec:
    """Binary-tree fractal: trunk of length 1 plus rotated, shrunken children."""

    depth: int
    branch_angle: float
    shrink_ratio: float
    jitter_sigma: float
    n_classes: int = 2

    def __post_init__(self):
        if int(self.depth) != self.depth or self.depth < 1:
            raise ValueError("depth must be an integer >= 1")
        if not (0.0 < self.shrink_ratio < 1.0):
            raise ValueError("shrink_ratio must lie strictly inside (0, 1)")
        if not np.isfinite(self.jitter_sigma) or self.jitter_sigma <= 0:
            raise ValueError("jitter_sigma must be finite and > 0: a zero-width segment has no density")
        if not np.isfinite(self.branch_angle):
            raise ValueError("branch_angle must be finite")
        if self.n_classes not in (1, 2):
            raise ValueError("n_classes must be 1 (unconditional) or 2 (one per trunk child)")
        if self.depth == 1 and self.n_classes != 1:
            raise ValueError("a trunk-only fractal has a single class")


def read_csv(path):
    """Stream a comma-separated table: yield the header fields first, then
    (line number, fields) per non-blank line. A line whose field count
    differs from the header's raises ValueError naming file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        yield header
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(f"{path}: line {lineno}: {len(fields)} fields, expected {len(header)}")
            yield lineno, fields


class LabeledPointSet:
    """N points with class labels."""

    def __init__(self, points, labels):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be a (N, n) array")
        if self.points.shape[1] == 0:  # to_csv could write such rows but from_csv not read them
            raise ValueError("points need at least one coordinate")
        self.labels = np.asarray(labels, dtype=int)
        n = self.points.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must have length N")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        """Write `x0,...,x{n-1},label,region` rows, floats at 9 significant
        digits and the `region` field empty.

        Rows go out in blocks of at most about 16k cells: a block's cells are
        copied into one object array and written with one `%`-format of the
        per-row template repeated, so no list of every line is held."""
        n, size = self.dim, len(self)
        header = ",".join([f"x{i}" for i in range(n)] + ["label", "region"])
        line = ",".join(["%.9g"] * n) + ",%d,\n"
        block = max(1, WRITE_BLOCK_CELLS // (n + 1))
        cells = np.empty((min(block, size), n + 1), dtype=object)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for start in range(0, size, block):
                rows = cells[:min(block, size - start)]
                rows[:, :n] = self.points[start:start + block]
                rows[:, n] = self.labels[start:start + block]
                fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))

    @classmethod
    def from_csv(cls, path) -> "LabeledPointSet":
        """Read a `to_csv` file: each coordinate is the value `float()` gives
        for its cell, each label the one `int()` gives. The `region` cell is
        read past and ignored, so files whose rows carry a tag read too.

        One `np.loadtxt` call parses the body; its structured dtype enforces
        the field count on every line. When it raises, the per-line reader
        runs instead: it takes the cells Python parses and numpy does not
        (`1_0`, full-width digits), or raises ValueError naming the file and
        line."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[-2:] != ["label", "region"]:
                raise ValueError(f"{path}: not a point-set CSV (header {header})")
            n = len(header) - 2
            dtype = [("x", np.float64, (n,)), ("label", np.int64), ("region", object)]
            try:
                with warnings.catch_warnings():  # a body without lines is a set of no points
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    rec = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError:
                return cls._from_lines(path, n)
        # a C-contiguous copy: a strided record view can take matmul off its BLAS path
        return cls(np.ascontiguousarray(rec["x"]), np.ascontiguousarray(rec["label"]))

    @classmethod
    def _from_lines(cls, path, n: int) -> "LabeledPointSet":
        """The per-line reader: `float()` and `int()` per cell."""
        records = read_csv(path)
        next(records)
        flat, labs = [], []
        for lineno, parts in records:
            try:
                flat.extend(map(float, parts[:n]))
                lab = int(parts[n])
                if not INT64_MIN <= lab <= INT64_MAX:
                    raise ValueError(f"label {lab} is outside the int64 range")
                labs.append(lab)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        return cls(np.array(flat, dtype=float).reshape(len(labs), n), labs)


def make_simplex_gmm(n_components: int, ambient_dim: int, scale: float) -> GmmSpec:
    """Uniform mixture at the first ``n_components`` standard basis vectors.

    Every pair of means is exactly sqrt(2) apart; components are isotropic
    with variance scale**2.
    """
    if n_components > ambient_dim:
        raise ValueError(
            f"simplex needs n_components <= ambient_dim, got {n_components} > {ambient_dim}"
        )
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    means = np.zeros((n_components, ambient_dim))
    means[np.arange(n_components), np.arange(n_components)] = 1.0
    k = n_components
    return GmmSpec(np.full(k, 1.0 / k), means, np.full(k, scale * scale), np.arange(k))


def _uniform_isotropic_variance(base: GmmSpec) -> float:
    if not base.isotropic or not np.allclose(base.covariances, base.covariances[0]):
        raise ValueError("expected an isotropic mixture with a single shared scale")
    return float(base.covariances[0])


def make_saddle_gmm(base: GmmSpec) -> GmmSpec:
    """One component per unordered mean pair, centered at the edge midpoint."""
    k = base.n_components
    if k < 2:
        raise ValueError("need at least 2 base components to bisect edges")
    var = _uniform_isotropic_variance(base)
    pairs = list(itertools.combinations(range(k), 2))
    means = np.stack([(base.means[i] + base.means[j]) / 2.0 for i, j in pairs])
    m = len(pairs)
    return GmmSpec(np.full(m, 1.0 / m), means, np.full(m, var), np.arange(m))


def make_outlier_gmm(base: GmmSpec) -> GmmSpec:
    """Same structure at doubled means: a twice-as-large companion mixture."""
    var = _uniform_isotropic_variance(base)
    k = base.n_components
    return GmmSpec(np.full(k, 1.0 / k), 2.0 * base.means, np.full(k, var), base.labels.copy())


def make_two_gaussian(separation: float, base_variance: float, ambient_dim: int) -> GmmSpec:
    """Two equal, isotropic components at +-(separation/2) e1, labeled 0 and 1."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    if base_variance <= 0:
        raise ValueError("base_variance must be positive")
    if ambient_dim < 1:
        raise ValueError("ambient_dim must be >= 1")
    means = np.zeros((2, ambient_dim))
    means[0, 0] = -separation / 2.0
    means[1, 0] = +separation / 2.0
    return GmmSpec(np.array([0.5, 0.5]), means, np.full(2, base_variance), np.array([0, 1]))


class Fractal:
    """Deterministic 2D binary-tree fractal as an exact Gaussian mixture.

    Trunk runs from the origin to (0, 1); every segment spawns two children
    rotated by +-branch_angle and scaled by shrink_ratio, for ``depth`` levels
    (2**depth - 1 segments total). Segment class is the index of its level-1
    ancestor: 0 for the +angle child of the trunk, 1 for the -angle child.

    ``gmm`` has one anisotropic Gaussian per segment with the first two
    moments of a uniform point on the segment plus N(0, jitter^2 I): mean at
    the midpoint, covariance (L^2/12) u u^T + jitter^2 I for length L and
    unit direction u, weight proportional to L, and the segment's class.
    With two classes the trunk is two half-weight components at one mean,
    labeled 0 and 1, so a trunk point's class is a fair coin flip.
    """

    def __init__(self, spec: FractalSpec):
        self.spec = spec
        rots = np.array([[[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
                         for a in (spec.branch_angle, -spec.branch_angle)])
        # one level at a time, in heap order: segment i has children 2i+1 (+angle) and 2i+2
        starts, dirs, lengths = [np.zeros((1, 2))], [np.array([[0.0, 1.0]])], [np.ones(1)]
        labels = [np.array([-1])]  # the trunk, which both classes share
        for level in range(1, spec.depth):
            starts.append(np.repeat(starts[-1] + lengths[-1][:, None] * dirs[-1], 2, axis=0))
            dirs.append(np.einsum("rij,mj->mri", rots, dirs[-1]).reshape(-1, 2))
            lengths.append(np.repeat(lengths[-1] * spec.shrink_ratio, 2))
            labels.append(np.array([0, 1]) if level == 1 else np.repeat(labels[-1], 2))
        u = np.concatenate(dirs)
        self.starts = np.concatenate(starts)
        self.lengths = np.concatenate(lengths)
        self.ends = self.starts + self.lengths[:, None] * u
        cov = ((self.lengths**2 / 12.0)[:, None, None] * u[:, :, None] * u[:, None, :]
               + spec.jitter_sigma**2 * np.eye(2))
        weights = self.lengths / self.lengths.sum()
        mids = 0.5 * (self.starts + self.ends)
        if spec.n_classes == 1:
            self.gmm = GmmSpec(weights, mids, cov, np.zeros(self.n_segments, dtype=int))
        else:  # the trunk, segment 0, as two half-weight components
            comps = np.r_[0, np.arange(self.n_segments)]
            weights = np.r_[weights[0] / 2, weights[0] / 2, weights[1:]]
            self.gmm = GmmSpec(weights, mids[comps], cov[comps], np.r_[0, 1, np.concatenate(labels)[1:]])

    @property
    def n_segments(self) -> int:
        return len(self.lengths)

    def sample(self, n: int, seed: int) -> LabeledPointSet:
        """n labeled points drawn from ``gmm``."""
        return sample_gmm(self.gmm, n, seed)


def sample_gmm(spec: GmmSpec, n: int, seed: int) -> LabeledPointSet:
    """Ancestral sampling: component by weight, then the component Gaussian.

    Full covariances take one batched Cholesky factorization, and each draw
    is its mean plus its component's factor times its standard normal vector,
    all draws in one gathered product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = generator(seed)
    comps = rng.choice(spec.n_components, size=n, p=spec.weights)
    eps = rng.standard_normal((n, spec.dim))
    if spec.isotropic:
        pts = spec.means[comps] + eps * np.sqrt(spec.covariances[comps])[:, None]
    else:
        chol = np.linalg.cholesky(spec.covariances)
        pts = spec.means[comps] + np.einsum("nij,nj->ni", chol[comps], eps)
    return LabeledPointSet(pts, spec.labels[comps])
