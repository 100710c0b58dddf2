"""Classical spectral side: SVD, Gram matrix, the threshold operator,
vectorized quantum-state embeddings, and exact Hermitian exponentials."""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, FullyThresholdedError, ValidationError

RANK_TOL = 1e-9
DEGENERACY_TOL = 1e-9
ORTHO_TOL = 1e-10
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Singular triples of a p x q input: sigma strictly descending,
    u/v with orthonormal columns."""

    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: int
    q: int
    tol: float

    def __post_init__(self) -> None:
        r = len(self.sigma)
        if r == 0 or self.sigma[-1] <= 0:
            raise ValidationError("sigma must be positive and non-empty")
        if np.any(np.diff(self.sigma) >= 0):
            raise ValidationError("sigma must be strictly descending")
        if self.u.shape != (self.p, r) or self.v.shape != (self.q, r):
            raise ValidationError("u/v shapes do not match (p, q, rank)")
        for name, m in (("u", self.u), ("v", self.v)):
            err = np.abs(m.conj().T @ m - np.eye(r)).max()
            if err > ORTHO_TOL:
                raise ValidationError(f"{name} columns not orthonormal ({err:.3e})")

    @property
    def rank(self) -> int:
        return len(self.sigma)


def decompose(a0, tol: float = RANK_TOL) -> SpectralData:
    """SVD with rank truncation at ``tol * sigma_1``.

    Near-equal retained singular values (relative gap below 1e-9) are
    rejected: the alpha theory assumes a strict spectrum and singular
    bases are non-unique under degeneracy.
    """
    a = np.asarray(a0)
    if a.ndim != 2 or a.size == 0:
        raise ValidationError("input must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValidationError("input matrix has non-finite entries")
    if not np.any(a != 0):
        raise ValidationError("input matrix is zero")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > tol * s[0]))
    sig = s[:r].copy()
    gaps = (sig[:-1] - sig[1:]) / sig[0]
    if np.any(gaps < DEGENERACY_TOL):
        raise DegenerateSpectrumError(
            f"near-equal singular values (min relative gap {gaps.min():.3e})"
        )
    data = SpectralData(
        sigma=sig,
        u=u[:, :r].copy(),
        v=vh[:r].conj().T.copy(),
        p=a.shape[0],
        q=a.shape[1],
        tol=tol,
    )
    recon = (data.u * data.sigma) @ data.v.conj().T
    if np.linalg.norm(a - recon) > max(tol, 1e-12) * np.linalg.norm(a) + 1e-12:
        raise ValidationError("rank-truncated reconstruction out of tolerance")
    return data


def check_threshold(tau: float, sigma_max: float) -> None:
    """Threshold contract: tau is a real number with 0 < tau < sigma_1."""
    if not isinstance(tau, (float, numbers.Real)):  # float first: the common case is cheap
        raise ValidationError(f"threshold must be a real number, got {tau!r}")
    if not tau > 0:
        raise ValidationError(f"threshold must be positive, got {tau!r}")
    if tau >= sigma_max:
        raise FullyThresholdedError(
            f"threshold {tau!r} >= largest singular value {sigma_max!r}"
        )


def shrunk_values(spec: SpectralData, tau: float) -> np.ndarray:
    """Per-triple shrinkage (sigma_k - tau)_+."""
    return np.maximum(spec.sigma - tau, 0.0)


def gram(spec: SpectralData) -> np.ndarray:
    """A = A0 A0^dagger = sum sigma_k^2 u_k u_k^dagger, p x p Hermitian."""
    a = (spec.u * spec.sigma**2) @ spec.u.conj().T
    err = np.abs(a - a.conj().T).max()
    if err > 1e-12:
        raise ValidationError(f"gram matrix not Hermitian ({err:.3e})")
    return a


def classical_svt(spec: SpectralData, tau: float) -> np.ndarray:
    """Threshold operator: S = sum (sigma_k - tau)_+ u_k v_k^dagger."""
    check_threshold(tau, float(spec.sigma[0]))
    return (spec.u * shrunk_values(spec, tau)) @ spec.v.conj().T


def pad_dim(d: int) -> int:
    """Next power of two at or above d."""
    return 1 << max(int(d) - 1, 0).bit_length()


def to_state(spec: SpectralData, weights) -> np.ndarray:
    """Unit amplitude vector sum_k w_k (u_k x v_k), normalized.

    The u and v factors are padded independently to power-of-two
    dimensions so the result factors as a (log2 du + log2 dv)-qubit
    register; padded amplitudes are exactly zero.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != spec.sigma.shape:
        raise ValidationError("one weight per singular triple required")
    if np.any(w < 0):
        raise ValidationError("weights must be non-negative")
    if not np.any(w > 0):
        raise ValidationError("at least one weight must be positive")
    du, dv = pad_dim(spec.p), pad_dim(spec.q)
    grid = np.zeros((du, dv), dtype=complex)
    grid[: spec.p, : spec.q] = (spec.u * w) @ spec.v.conj().T
    vec = grid.reshape(-1)
    return vec / np.linalg.norm(vec)


def herm_exp(a, t: float) -> np.ndarray:
    """exp(i * a * t) from an exact eigendecomposition of Hermitian a."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
        raise ValidationError("matrix is not Hermitian")
    eigvals, eigvecs = np.linalg.eigh(m)
    return (eigvecs * np.exp(1j * eigvals * t)) @ eigvecs.conj().T


def load_matrix_text(path) -> np.ndarray:
    """Read the plain-text matrix format: first line "p q", then p rows
    of q whitespace-separated decimal numbers."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValidationError("matrix file must start with a 'p q' line")
        try:
            p, q = int(header[0]), int(header[1])
            rows = [[float(x) for x in line.split()] for line in fh if line.strip()]
            a = np.array(rows, dtype=float)
        except ValueError as exc:
            raise ValidationError(f"malformed matrix file: {exc}") from None
    if a.shape != (p, q):
        raise ValidationError(f"matrix body {a.shape} does not match header ({p}, {q})")
    return a


def save_matrix_text(path, a) -> None:
    a = np.asarray(a)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(format(x, ".17g") for x in row) + "\n")
