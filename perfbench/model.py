"""Classical model of the threshold circuit, used to check simulator output.

For eigenvalue lam_k = sigma_k^2 the phase estimation leaves register C
in sum_c a_k(c)|c> with |a_k(c)|^2 = w_k(c), the Fejer kernel around
phi_k = lam_k t0 T / 2 pi.  The oracle and the Ry cascade put
sin(alpha y_c) on the ancilla's |1> branch, where y_c is the oracle's code
for label c (0 for labels outside the encoding).  Undoing the phase
estimation projects each branch back onto C = 0 with amplitude
sum_c w_k(c) f(y_c).  Everything follows from those sums in O(r 2^t),
without a state vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9


@dataclass(frozen=True)
class Prediction:
    p_sim: float
    triple_amplitudes: np.ndarray
    residual_mass: float


def label_weights(lam: np.ndarray, t0: float, t_bits: int) -> np.ndarray:
    """w[k, c]: probability that phase estimation writes label c for lam_k."""
    size = 1 << t_bits
    d = lam[:, None] * t0 * size / (2.0 * np.pi) - np.arange(size)[None, :]
    den = size * np.sin(np.pi * d / size)
    safe = np.where(d == 0.0, 1.0, den)
    return np.where(d == 0.0, 1.0, (np.sin(np.pi * d) / safe) ** 2)


def predict(sigma, labels, y_codes, alpha: float, t0: float, t_bits: int) -> Prediction:
    """What the simulator must report for a spectrum, its oracle codes and alpha."""
    sigma = np.asarray(sigma, dtype=float)
    y = np.zeros(1 << t_bits)
    y[np.asarray(labels, dtype=int)] = y_codes
    w = label_weights(sigma**2, t0, t_bits)
    weight = sigma**2 / np.sum(sigma**2)
    sin_sum = w @ np.sin(alpha * y)
    cos_sum = w @ np.cos(alpha * y)
    return Prediction(
        p_sim=float(weight @ (w @ np.sin(alpha * y) ** 2)),
        triple_amplitudes=sigma * sin_sum,
        residual_mass=float(1.0 - weight @ (sin_sum**2 + cos_sum**2)),
    )


def triple_basis(u: np.ndarray, v: np.ndarray, du: int, dv: int) -> np.ndarray:
    """Rows are the padded, flattened u_k (x) conj(v_k) of the data register."""
    p, q = u.shape[0], v.shape[0]
    basis = np.zeros((u.shape[1], du, dv), dtype=complex)
    basis[:, :p, :q] = np.einsum("ik,jk->kij", u, v.conj())
    return basis.reshape(u.shape[1], -1)


def mismatches(result, u, v, du: int, dv: int, t0: float) -> list[str]:
    """Differences above TOL between a SimulationResult and the model.

    u, v are the singular vectors of the input (columns), du, dv the
    padded register dimensions, t0 the phase-estimation step.
    """
    pred = predict(result.sigma, result.labels, result.y_codes, result.alpha, t0, result.t_bits)
    basis = triple_basis(u, v, du, dv)
    b_pred = pred.triple_amplitudes @ basis / np.sqrt(np.sum(result.sigma**2) * pred.p_sim)
    checks = {
        "p_sim": abs(result.p_sim - pred.p_sim),
        "triple_amplitudes": float(np.max(np.abs(result.triple_amplitudes - pred.triple_amplitudes))),
        "residual_mass": abs(result.residual_mass - pred.residual_mass),
        "b_state": float(np.linalg.norm(result.b_state - b_pred)),
    }
    return [f"{name} off the model by {err:.3e}" for name, err in checks.items() if not err <= TOL]
