from fractions import Fraction

import numpy as np
import pytest

from qsvt import spectral
from qsvt.errors import DegenerateSpectrumError, FullyThresholdedError, ValidationError
from qsvt.harness import random_lowrank


def test_decompose_diagonal():
    data = spectral.decompose(np.diag([3.0, 2.0]))
    assert np.allclose(data.sigma, [3, 2])
    assert np.allclose(np.abs(data.u), np.eye(2))
    assert np.allclose(np.abs(data.v), np.eye(2))


def test_decompose_construct_then_recover():
    a0 = random_lowrank(4, 5, 2, seed=11, sigma=(2.0, 1.0))
    data = spectral.decompose(a0)
    assert data.rank == 2
    assert np.abs(data.sigma - np.array([2.0, 1.0])).max() < 1e-9


def test_decompose_rank_one_outer_product():
    x = np.array([1.0, 2.0, 2.0])
    y = np.array([3.0, 4.0])
    data = spectral.decompose(np.outer(x, y))
    assert data.rank == 1
    assert data.sigma[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y))


def test_decompose_rejects_zero_matrix():
    with pytest.raises(ValidationError, match="zero"):
        spectral.decompose(np.zeros((2, 2)))


def test_decompose_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        spectral.decompose(np.eye(3))


def test_gram_eigenvalues_of_reference_instance():
    a0 = random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0))
    a = spectral.gram(spectral.decompose(a0))
    eigvals = np.sort(np.linalg.eigvalsh(a))
    assert np.allclose(eigvals, [1.0, 4.0], atol=1e-9)


def test_gram_rank_one():
    data = spectral.decompose(np.outer([1.0, 0.0], [0.0, 2.0]))
    a = spectral.gram(data)
    assert np.allclose(a, [[4.0, 0.0], [0.0, 0.0]])


def test_gram_trace_equals_n1():
    a0 = random_lowrank(5, 4, 3, seed=3)
    data = spectral.decompose(a0)
    assert np.trace(spectral.gram(data)) == pytest.approx(np.sum(data.sigma**2))


def test_classical_svt_shrinks_singular_values():
    a0 = random_lowrank(3, 3, 2, seed=5, sigma=(2.0, 1.0))
    s = spectral.classical_svt(spectral.decompose(a0), 0.5)
    shrunk = np.linalg.svd(s, compute_uv=False)
    assert np.allclose(shrunk[:2], [1.5, 0.5], atol=1e-10)


def test_classical_svt_drops_to_rank_one():
    a0 = random_lowrank(3, 4, 2, seed=6, sigma=(2.0, 1.0))
    s = spectral.classical_svt(spectral.decompose(a0), 1.5)
    shrunk = np.linalg.svd(s, compute_uv=False)
    assert shrunk[0] == pytest.approx(0.5)
    assert abs(shrunk[1]) < 1e-12


def test_classical_svt_small_tau_limit():
    a0 = random_lowrank(3, 3, 2, seed=8, sigma=(2.0, 1.0))
    s = spectral.classical_svt(spectral.decompose(a0), 1e-12)
    assert np.abs(s - a0).max() < 1e-10


def test_classical_svt_rejects_tau_out_of_range():
    data = spectral.decompose(random_lowrank(3, 3, 2, seed=8, sigma=(2.0, 1.0)))
    with pytest.raises(ValidationError):
        spectral.classical_svt(data, -0.1)
    with pytest.raises(FullyThresholdedError):
        spectral.classical_svt(data, 2.5)


def test_check_threshold_rejects_a_tau_that_is_not_a_real_number():
    for tau in (None, "0.5", 0.5j, [0.5]):
        with pytest.raises(ValidationError, match="real number"):
            spectral.check_threshold(tau, 2.0)
    for tau in (0.5, 1, np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
        spectral.check_threshold(tau, 2.0)


def test_shrunk_values_match_elementwise_max():
    data = spectral.decompose(random_lowrank(4, 4, 3, seed=9))
    tau = 0.4 * data.sigma[0]
    assert np.array_equal(
        spectral.shrunk_values(data, tau), np.maximum(data.sigma - tau, 0.0)
    )


def test_thresholding_idempotent():
    # decomposing the thresholded output and reconstructing changes nothing
    data = spectral.decompose(random_lowrank(4, 4, 3, seed=10, sigma=(3.0, 2.0, 1.0)))
    s = spectral.classical_svt(data, 0.7)
    redata = spectral.decompose(s)
    recon = (redata.u * redata.sigma) @ redata.v.conj().T
    assert np.abs(recon - s).max() < 1e-10


def test_to_state_sigma_weights():
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    vec = spectral.to_state(data, data.sigma)
    assert len(vec) == 8  # u padded to 2, v padded to 4
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    # amplitude on each padded triple is sigma_k / sqrt(N1)
    for k, want in [(0, 2 / np.sqrt(5)), (1, 1 / np.sqrt(5))]:
        basis = spectral.to_state(data, np.eye(2)[k])
        assert abs(np.vdot(basis, vec)) == pytest.approx(want, abs=1e-12)


def test_to_state_shrunk_weights():
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    vec = spectral.to_state(data, spectral.shrunk_values(data, 0.5))
    basis0 = spectral.to_state(data, [1, 0])
    assert abs(np.vdot(basis0, vec)) == pytest.approx(1.5 / np.sqrt(2.5), abs=1e-12)


def test_to_state_single_triple_and_padding_zero():
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    vec = spectral.to_state(data, [1.0, 0.0])
    grid = vec.reshape(2, 4)
    assert np.allclose(grid[:, 3], 0.0)  # padded column exactly zero
    expected = np.outer(data.u[:, 0], data.v[:, 0])
    assert np.abs(grid[:, :3] - expected).max() < 1e-12


def test_to_state_rejects_zero_weights():
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    with pytest.raises(ValidationError):
        spectral.to_state(data, [0.0, 0.0])


def test_partial_trace_roundtrip_reproduces_gram():
    data = spectral.decompose(random_lowrank(3, 5, 3, seed=12))
    vec = spectral.to_state(data, data.sigma)
    du, dv = spectral.pad_dim(data.p), spectral.pad_dim(data.q)
    m = vec.reshape(du, dv)
    rho = m @ m.conj().T  # reduced density matrix over the u factor
    a = spectral.gram(data)
    padded = np.zeros((du, du), dtype=complex)
    padded[: data.p, : data.p] = a / np.trace(a)
    assert np.abs(rho - padded).max() < 1e-9


def test_herm_exp_zero_time_identity():
    a = np.array([[2.0, 1.0], [1.0, -1.0]])
    assert np.allclose(spectral.herm_exp(a, 0.0), np.eye(2), atol=1e-12)


def test_herm_exp_integer_phases():
    u = spectral.herm_exp(np.diag([4.0, 1.0]), 2 * np.pi)
    assert np.allclose(u, np.eye(2), atol=1e-10)


def test_herm_exp_scalar_phases():
    u = spectral.herm_exp(np.diag([4.0, 1.0]), 2 * np.pi / 8)
    assert np.allclose(np.diag(u), [np.exp(1j * np.pi), np.exp(1j * np.pi / 4)])


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermitian"):
        spectral.herm_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_herm_exp_group_property():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(3, 3))
    a = a + a.T
    left = spectral.herm_exp(a, 0.7) @ spectral.herm_exp(a, 0.4)
    right = spectral.herm_exp(a, 1.1)
    assert np.abs(left - right).max() < 1e-9


def test_pad_dim():
    assert [spectral.pad_dim(d) for d in (1, 2, 3, 4, 5, 6, 8, 9)] == [
        1, 2, 4, 4, 8, 8, 8, 16,
    ]


def test_matrix_text_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    a = np.array([[1.5, -2.0, 0.25], [0.0, 3.0, -1.0]])
    spectral.save_matrix_text(path, a)
    b = spectral.load_matrix_text(path)
    assert np.array_equal(a, b)


def test_matrix_text_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n")
    with pytest.raises(ValidationError):
        spectral.load_matrix_text(path)


def test_matrix_text_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    # a header that is not two integers, a non-numeric entry, a ragged body
    for text in ("2 x\n1 2\n3 4\n", "2\n1 2\n3 4\n", "2 2\n1 a\n3 4\n", "2 2\n1 2\n3\n"):
        path.write_text(text)
        with pytest.raises(ValidationError):
            spectral.load_matrix_text(path)
