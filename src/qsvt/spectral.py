"""Classical spectral side: SVD, A = A0 A0^dagger as its eigenvalues on
the input's Schmidt index, the threshold operator, vectorized
quantum-state embeddings, and the exact exponentials of A as the phases
of that diagonal.

Work whose size is the rank r (singular values, weights and the checks
on them) runs on Python floats, each array converted once with
``tolist()``, in lists or loops: for a handful of values a NumPy call
costs more in dispatch than in arithmetic, and so does a generator
expression's frame per element.  Matrices and states stay in NumPy.  The
Python expressions do the same IEEE operations in the same order, so
results are bit-identical to the NumPy forms.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, FullyThresholdedError, ValidationError
from .sim import _norm, check_positive

RANK_TOL = 1e-9
DEGENERACY_TOL = 1e-9
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Singular triples of a p x q input: sigma strictly descending,
    u/v with orthonormal columns."""

    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: int
    q: int

    def __post_init__(self) -> None:
        check_sigma(np.asarray(self.sigma, dtype=float).tolist())
        r = len(self.sigma)
        if self.u.shape != (self.p, r) or self.v.shape != (self.q, r):
            raise ValidationError("u/v shapes do not match (p, q, rank)")
        eye = _identity(r)
        for name, m in (("u", self.u), ("v", self.v)):
            err = np.abs(_adjoint(m) @ m - eye).max()
            if not err <= ORTHO_TOL:  # NaN fails too
                raise ValidationError(f"{name} columns not orthonormal ({err:.3e})")

    @property
    def rank(self) -> int:
        return len(self.sigma)


@functools.lru_cache(maxsize=8)
def _identity(r: int) -> np.ndarray:
    """The r x r identity, read-only, made once per rank for the frames'
    orthonormality checks."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix: of a real one its transpose,
    a view; only a complex one is conjugated, which copies."""
    return m.conj().T if m.dtype.kind == "c" else m.T


def real_vector(name: str, values) -> np.ndarray:
    """``values`` as a 1-D float array; what NumPy cannot read as one,
    such as a string that is not a number, is rejected."""
    try:
        vec = np.asarray(values, dtype=float)
        if vec.ndim == 1:
            return vec
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must be a vector of real numbers, got {values!r}")


def check_sigma(sigma: Sequence[float]) -> None:
    """Singular-value contract on Python floats: non-empty, finite,
    positive and strictly descending.  Written so that NaN fails."""
    for s in sigma or (math.nan,):  # empty fails as NaN does; no value past a failure is read
        if not (math.isfinite(s) and s > 0):
            raise ValidationError(f"sigma must be non-empty, finite and positive, got {sigma}")
    for hi, lo in zip(sigma, sigma[1:]):
        if not hi > lo:
            raise ValidationError(f"sigma must be strictly descending, got {sigma}")


def check_gaps(sigma: Sequence[float]) -> None:
    """Near-equal singular values, a gap below ``DEGENERACY_TOL`` relative
    to sigma_1, are rejected: the alpha theory assumes a strict spectrum
    and singular bases are non-unique under degeneracy."""
    gap = min([(hi - lo) / sigma[0] for hi, lo in zip(sigma, sigma[1:])], default=math.inf)
    if gap < DEGENERACY_TOL:
        raise DegenerateSpectrumError(f"near-equal singular values (min relative gap {gap:.3e})")


def decompose(a0) -> SpectralData:
    """SVD with rank truncation at ``RANK_TOL * sigma_1``, the one rank
    tolerance of the package; the rank-truncated reconstruction must
    match the input to the same relative tolerance, at any scale of the
    input.  Single-precision input is decomposed in double, as the
    tolerances assume.  The retained singular values must pass
    :func:`check_gaps`.
    """
    try:
        a = np.asarray(a0)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"input matrix must be rectangular: {exc}") from None
    if a.dtype.kind not in "biufc":  # strings, objects: not numbers to decompose
        raise ValidationError(f"input matrix must hold numbers, got dtype {a.dtype}")
    a = a.astype(np.promote_types(a.dtype, np.float64), copy=False)
    if a.ndim != 2 or a.size == 0:
        raise ValidationError("input must be a non-empty 2-D matrix")
    top = float(np.abs(a).max())  # NaN if any entry is NaN
    if not top < math.inf:
        raise ValidationError("input matrix has non-finite entries")
    if not top > 0:
        raise ValidationError("input matrix is zero")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    values = s.tolist()
    cut = RANK_TOL * values[0]
    r = len([v for v in values if v > cut])
    check_gaps(values[:r])
    if r < len(values):  # else s and u are the SVD's fresh C-ordered arrays, kept as they are
        s, u = s[:r].copy(), u[:, :r].copy()
    vt = vh[:r].T  # v, one copy in row order: conjugated on the way if complex
    data = SpectralData(
        sigma=s,
        u=u,
        v=np.conjugate(vt, order="C") if vt.dtype.kind == "c" else vt.copy(),
        p=a.shape[0],
        q=a.shape[1],
    )
    # both sides over the largest entry, so no square leaves the float
    # range at any scale of the input; NaN fails
    recon = (data.u * data.sigma) @ _adjoint(data.v)
    if not _norm((a - recon) / top) <= RANK_TOL * _norm(a / top):
        raise ValidationError("rank-truncated reconstruction out of tolerance")
    return data


def check_threshold(tau, sigma_max: float) -> float:
    """Threshold contract: tau < sigma_1, with tau as
    :func:`sim.check_positive` returns it, a finite positive Python float."""
    tau = check_positive("threshold", tau)
    if tau >= sigma_max:
        raise FullyThresholdedError(
            f"threshold {tau!r} >= largest singular value {sigma_max!r}"
        )
    return tau


def shrunk_values(spec: SpectralData, tau: float) -> np.ndarray:
    """Per-triple shrinkage (sigma_k - tau)_+."""
    return np.maximum(spec.sigma - tau, 0.0)


def gram(spec: SpectralData) -> np.ndarray:
    """A = A0 A0^dagger = sum sigma_k^2 u_k u_k^dagger as its eigenvalues on
    the input's Schmidt index k, where A is diagonal: sigma_k^2 for k < r
    in descending order and 0 for the rest of the d labels, d = pad_dim(r)
    but at least 2, as phase estimation acts on this register and needs a
    qubit even at rank one.  The isometry |k> -> |u_k>|conj(v_k)> carries
    this diagonal to A on the data register, which is all that the circuit
    touches of it."""
    values = np.zeros(pad_dim(max(spec.rank, 2)))
    values[: spec.rank] = spec.sigma**2
    return values


def classical_svt(spec: SpectralData, tau: float) -> np.ndarray:
    """Threshold operator: S = sum (sigma_k - tau)_+ u_k v_k^dagger."""
    tau = check_threshold(tau, float(spec.sigma[0]))
    return (spec.u * shrunk_values(spec, tau)) @ _adjoint(spec.v)


def pad_dim(d: int) -> int:
    """Next power of two at or above d."""
    return 1 << max(int(d) - 1, 0).bit_length()


def embed(spec: SpectralData, weights) -> np.ndarray:
    """sum_k w_k (u_k x conj(v_k)) as the flattened pad_dim(p) x pad_dim(q)
    grid, u and v padded independently so the result factors as a
    (log2 pad(p) + log2 pad(q))-qubit register; padded amplitudes are
    exactly zero.  Not normalized, and ``weights`` is not checked."""
    grid = np.zeros((pad_dim(spec.p), pad_dim(spec.q)), dtype=complex)
    grid[: spec.p, : spec.q] = (spec.u * weights) @ _adjoint(spec.v)
    return grid.reshape(-1)


def to_state(spec: SpectralData, weights) -> np.ndarray:
    """Unit amplitude vector sum_k w_k (u_k x conj(v_k)), normalized, in
    :func:`embed`'s layout."""
    w = real_vector("weights", weights)
    if w.shape != spec.sigma.shape:
        raise ValidationError("one weight per singular triple required")
    ws = w.tolist()
    if not all(math.isfinite(x) and x >= 0 for x in ws):
        raise ValidationError(f"weights must be finite and non-negative, got {ws}")
    if not any(x > 0 for x in ws):
        raise ValidationError("at least one weight must be positive")
    vec = embed(spec, w)
    nrm = _norm(vec)
    # squares that underflow sum to 0 and ones that overflow to inf; NaN fails too
    if not 0 < nrm < math.inf:
        raise ValidationError(f"weights {ws} give amplitudes whose norm is {nrm}")
    return vec / nrm


def herm_exp(eigenvalues, t: float) -> np.ndarray:
    """exp(i A t) of an A that is diagonal on its register, given as its
    eigenvalues ``lam`` in label order, as :func:`gram` returns them: the
    phases exp(i lam t), the diagonal of the unitary.  No matrix is made;
    phase estimation checks the angles."""
    return np.exp(1j * t * real_vector("eigenvalues", eigenvalues))


def load_matrix_text(path) -> np.ndarray:
    """Read the plain-text matrix format: first line "p q", then p rows
    of q whitespace-separated decimal numbers."""
    with open(path) as fh:
        try:
            header = fh.readline().split()
            body = [line.split() for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise ValidationError(f"matrix file is not text: {exc}") from None
    if len(header) != 2:
        raise ValidationError("matrix file must start with a 'p q' line")
    try:
        p, q = int(header[0]), int(header[1])
        a = np.array([[float(x) for x in row] for row in body], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"malformed matrix file: {exc}") from None
    if a.shape != (p, q):
        raise ValidationError(f"matrix body {a.shape} does not match header ({p}, {q})")
    return a
