import math
from fractions import Fraction

import numpy as np
import pytest

from qsvt import spectral
from qsvt.errors import DegenerateSpectrumError, FullyThresholdedError, ValidationError
from qsvt.harness import example_matrix, random_lowrank

from gates import eigh_exp, from_eigenpairs, u_pairs


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


def test_decompose_rejects_input_that_is_not_numbers():
    # strings reached np.isfinite, which raised a bare TypeError
    for a0 in (np.array([["a", "b"]]), [["1", "2"], ["3", "4"]],
               np.array([[1.0, None]], dtype=object)):
        with pytest.raises(ValidationError, match="must hold numbers"):
            spectral.decompose(a0)
    # ragged rows raised NumPy's bare ValueError
    with pytest.raises(ValidationError, match="must be rectangular"):
        spectral.decompose([[1, 2], [3]])


@pytest.mark.parametrize("a0", [[3.0, 1.0], 2.0, np.zeros((0, 3)), np.zeros((2, 0)),
                                np.ones((2, 2, 2))])
def test_decompose_rejects_input_that_is_not_a_non_empty_matrix(a0):
    with pytest.raises(ValidationError, match="^input must be a non-empty 2-D matrix$"):
        spectral.decompose(a0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0)])
def test_decompose_rejects_non_finite_entries(bad):
    a0 = example_matrix().astype(type(bad))
    a0[1, 2] = bad
    with pytest.raises(ValidationError, match="^input matrix has non-finite entries"):
        spectral.decompose(a0)


def test_spectral_data_rejects_columns_that_are_not_orthonormal():
    # a NaN entry passed the check (NaN > tol is False), and herm_exp of the
    # gram then returned NaN matrices
    data = spectral.decompose(example_matrix())
    with_nan = {name: getattr(data, name).copy() for name in ("u", "v")}
    for m in with_nan.values():
        m[0, 0] = math.nan
    skewed = [("u", data.u * [1.0, 1.1]), ("v", data.v + data.v[:, ::-1] * 0.1),
              ("u", with_nan["u"]), ("v", with_nan["v"])]
    for name, bad in skewed:
        fields = {"sigma": data.sigma, "u": data.u, "v": data.v, "p": 2, "q": 3, name: bad}
        with pytest.raises(ValidationError, match=f"^{name} columns not orthonormal"):
            spectral.SpectralData(**fields)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_spectral_data_rejects_a_frame_off_orthonormal_at_every_rank(r, kind):
    # each frame's Gram matrix, adjoint times frame, against the identity
    # of its rank: a real frame's adjoint is its transpose, a complex
    # frame's its conjugate transpose
    a0 = random_lowrank(5, 6, r, [r, 4])
    if kind == "complex":  # unit phases on the columns keep the singular values
        a0 = a0 * np.exp(1j * np.linspace(0.3, 2.9, 6))
    data = spectral.decompose(a0)
    assert data.u.dtype.kind == data.v.dtype.kind == {"real": "f", "complex": "c"}[kind]
    for name in ("u", "v"):
        frame = getattr(data, name)
        with_nan = frame.copy()
        with_nan[-1, -1] = math.nan
        for bad in (frame * (1.0 + 1e-6), with_nan):
            fields = {"sigma": data.sigma, "u": data.u, "v": data.v, "p": 5, "q": 6, name: bad}
            with pytest.raises(ValidationError, match=f"^{name} columns not orthonormal"):
                spectral.SpectralData(**fields)
    spectral.SpectralData(data.sigma, data.u, data.v, 5, 6)


def test_the_orthonormality_identity_is_read_only_and_made_once_per_rank():
    eye = spectral._identity(3)
    assert spectral._identity(3) is eye and np.array_equal(eye, np.eye(3))
    with pytest.raises(ValueError, match="read-only"):
        eye[0, 1] = 1.0


def test_the_adjoint_of_a_real_frame_is_its_transpose_view():
    frame = spectral.decompose(example_matrix()).v
    assert np.shares_memory(spectral._adjoint(frame), frame)
    assert np.array_equal(spectral._adjoint(frame), frame.T)
    complex_frame = frame * 1j
    adjoint = spectral._adjoint(complex_frame)
    assert not np.shares_memory(adjoint, complex_frame)
    assert np.array_equal(adjoint, complex_frame.conj().T)


def test_spectral_data_rejects_factors_whose_shapes_do_not_match():
    data = spectral.decompose(example_matrix())
    for fields in ({"p": 3}, {"q": 2}, {"u": data.u[:, :1]}, {"v": data.v.T}):
        with pytest.raises(ValidationError, match=r"^u/v shapes do not match \(p, q, rank\)$"):
            spectral.SpectralData(**{"sigma": data.sigma, "u": data.u, "v": data.v,
                                     "p": 2, "q": 3, **fields})


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160, 1e-300])
def test_decompose_reconstruction_check_holds_at_every_scale(scale):
    # the 9e-10 values fall under the rank cut, and dropping them misses the
    # input by more than its tolerance: at 1e160 the norms squared to inf
    # (with an overflow warning) and at 1e-160 an absolute slack of 1e-12
    # passed it
    with pytest.raises(ValidationError, match="^rank-truncated reconstruction out of tolerance"):
        spectral.decompose(scale * np.diag([1.0, 9e-10, 9e-10]))
    assert spectral.decompose(scale * random_lowrank(5, 4, 3, seed=13)).rank == 3


def test_decompose_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        spectral.decompose(np.eye(3))


@pytest.mark.parametrize("dtype, phase", [(np.float32, 1.0), (np.complex64, np.exp(0.3j))],
                         ids=["float32", "complex64"])
def test_decompose_computes_single_precision_input_in_double(dtype, phase):
    a0 = (phase * example_matrix()).astype(dtype)
    got = spectral.decompose(a0)
    want = spectral.decompose(a0.astype(np.result_type(dtype, np.float64)))
    for name in ("sigma", "u", "v"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.abs(got.sigma - [2.0, 1.0]).max() < 1e-6


def test_gram_eigenvalues_of_reference_instance():
    a0 = random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0))
    values = spectral.gram(spectral.decompose(a0))
    assert values.shape == (2,) and values.dtype == float
    assert np.allclose(values, [4.0, 1.0], atol=1e-9)


def test_gram_rank_one():
    # rank one, padded to a qubit: A = diag(4, 0)
    data = spectral.decompose(np.outer([1.0, 0.0], [0.0, 2.0]))
    assert np.array_equal(spectral.gram(data), [4.0, 0.0])


def test_gram_trace_equals_n1():
    a0 = random_lowrank(5, 4, 3, seed=3)
    data = spectral.decompose(a0)
    assert np.sum(spectral.gram(data)) == pytest.approx(np.sum(data.sigma**2))


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_gram_on_the_schmidt_index_is_what_the_isometry_carries_to_b(r):
    # A on the index k is diagonal: sigma_k^2, and 0 on the padding to
    # d = pad(max(r, 2)), so E is diag(exp(i sigma^2 t)) padded with 1;
    # |k> -> u_k (x) conj(v_k) carries it to E on B_u beside the identity
    # on B_v, E on B_u exponentiated densely by eigh
    spec = spectral.decompose(random_lowrank(6, 5, r, seed=r, sigma=(6.0, 4.0, 3.0, 2.0, 1.0)[:r]))
    values = spectral.gram(spec)
    d = spectral.pad_dim(max(r, 2))
    assert np.array_equal(values, np.r_[spec.sigma**2, np.zeros(d - r)])
    iso = np.stack([spectral.embed(spec, row) for row in np.eye(r)], axis=1)
    a_u = from_eigenpairs(u_pairs(spec))
    for t in (0.7, -2.0):
        e = spectral.herm_exp(values, t)
        assert np.abs(e - np.r_[np.exp(1j * t * spec.sigma**2), np.ones(d - r)]).max() <= 1e-15
        e_b = np.kron(eigh_exp(a_u, t), np.eye(spectral.pad_dim(spec.q)))
        assert np.abs(e_b @ iso - iso * e[:r]).max() <= 1e-12


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
    # a bool is not a threshold, though Python counts it a number
    for tau in (None, "0.5", 0.5j, [0.5], True, np.True_):
        with pytest.raises(ValidationError, match="real number"):
            spectral.check_threshold(tau, 2.0)
    # a threshold of any real type comes back as the Python float
    for tau in (0.5, 1, np.float64(0.5), np.float32(0.5), np.float16(0.5), Fraction(1, 2)):
        checked = spectral.check_threshold(tau, 2.0)
        assert type(checked) is float and checked == tau


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


@pytest.mark.parametrize("weights", [[1.0], [1.0, 0.5, 0.25]])
def test_to_state_rejects_a_weight_count_other_than_the_rank(weights):
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    with pytest.raises(ValidationError, match="^one weight per singular triple required$"):
        spectral.to_state(data, weights)


def test_to_state_of_shrunk_values_is_the_threshold_operator():
    # the fidelity recheck's target: S = sum (sigma_k - tau)_+ u_k v_k^dagger
    # padded into B's grid and normalised, to the bit
    for a0, tau in [(example_matrix(), 0.5),
                    (random_lowrank(3, 4, 2, seed=5, sigma=(3.1, 2.2)), 0.93),
                    (random_lowrank(16, 2, 1, seed=5, sigma=(2.0,)), 0.5)]:
        spec = spectral.decompose(a0)
        grid = np.zeros((spectral.pad_dim(spec.p), spectral.pad_dim(spec.q)), dtype=complex)
        grid[: spec.p, : spec.q] = spectral.classical_svt(spec, tau)
        vec = grid.reshape(-1)
        got = spectral.to_state(spec, spectral.shrunk_values(spec, tau))
        assert got.tobytes() == (vec / np.linalg.norm(vec)).tobytes()


def test_to_state_rejects_a_norm_outside_the_float_range():
    # a positive weight of sigma_1 * 2^-52 at scale 1e-150: the amplitudes'
    # squares sum to 0, which was a division by zero and NaNs
    spec = spectral.decompose(example_matrix() * 1e-150)
    tau = float(spec.sigma[0]) * (1 - 2.0**-52)
    with pytest.raises(ValidationError, match="whose norm is 0.0$"):
        spectral.to_state(spec, spectral.shrunk_values(spec, tau))
    # squares that overflow: the division by inf returned a zero vector
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="whose norm is inf$"):
        spectral.to_state(spec, [1e200, 1e199])


@pytest.mark.parametrize("values", [[math.nan, 1.0], [math.inf, 1.0], [2.0, math.nan]])
def test_non_finite_sigma_and_weights_are_rejected(values):
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    with pytest.raises(ValidationError, match="^sigma must be non-empty, finite"):
        spectral.SpectralData(sigma=np.array(values), u=data.u, v=data.v, p=2, q=3)
    with pytest.raises(ValidationError, match="^weights must be finite"):
        spectral.to_state(data, values)


def test_check_sigma_stops_at_the_first_failure():
    # the NaN fails the first check, so the string past it is never read:
    # the failure is the check's ValidationError, not math.isfinite's TypeError
    with pytest.raises(ValidationError, match=r"^sigma must be non-empty, finite and positive,"
                                              r" got \(nan, 'a'\)$"):
        spectral.check_sigma((math.nan, "a"))


@pytest.mark.parametrize("weights", [["a", "b"], [1 + 1j, 2]])
def test_to_state_rejects_weights_that_are_not_real_numbers(weights):
    # NumPy's bare ValueError and TypeError reached the caller
    data = spectral.decompose(random_lowrank(2, 3, 2, seed=7, sigma=(2.0, 1.0)))
    with pytest.raises(ValidationError, match="^weights must be a vector of real numbers"):
        spectral.to_state(data, weights)


def test_decompose_rejects_an_overflowing_spectrum():
    # the SVD's sigma_1 overflows to inf, so no value passes the rank cut
    with pytest.raises(ValidationError, match="^sigma must be non-empty"):
        spectral.decompose(np.full((2, 2), 1e308))


def test_partial_trace_roundtrip_reproduces_gram():
    data = spectral.decompose(random_lowrank(3, 5, 3, seed=12))
    vec = spectral.to_state(data, data.sigma)
    du, dv = spectral.pad_dim(data.p), spectral.pad_dim(data.q)
    m = vec.reshape(du, dv)
    rho = m @ m.conj().T  # reduced density matrix over the u factor
    a = from_eigenpairs(u_pairs(data))  # on the padded u-register
    assert np.abs(rho - a / np.trace(a)).max() < 1e-9


def test_herm_exp_zero_time_identity():
    e = spectral.herm_exp([2.0, -1.0, 0.0], 0.0)
    assert e.dtype == complex and np.array_equal(e, np.ones(3))


def test_herm_exp_integer_phases():
    u = spectral.herm_exp([4.0, 1.0], 2 * np.pi)
    assert np.allclose(u, np.ones(2), atol=1e-10)


def test_herm_exp_scalar_phases():
    u = spectral.herm_exp([4.0, 1.0], 2 * np.pi / 8)
    assert np.allclose(u, [np.exp(1j * np.pi), np.exp(1j * np.pi / 4)])


def test_herm_exp_group_property():
    rng = np.random.default_rng(15)
    lam = rng.normal(size=3)
    left = spectral.herm_exp(lam, 0.7) * spectral.herm_exp(lam, 0.4)
    right = spectral.herm_exp(lam, 1.1)
    assert np.abs(left - right).max() < 1e-9


@pytest.mark.parametrize(
    "a0",
    [
        random_lowrank(4, 4, 4, seed=1, sigma=(3.0, 2.0, 1.5, 0.5)),
        random_lowrank(2, 8, 2, seed=2),
        random_lowrank(16, 2, 1, seed=5, sigma=(2.0,)),
        random_lowrank(64, 1, 1, seed=6, sigma=(1.7,)),
        random_lowrank(8, 8, 3, seed=3),
        random_lowrank(5, 3, 2, seed=4, sigma=(2.5, 0.8)),
    ],
    ids=["square", "wide", "tall-16x2", "tall-64x1", "rank-deficient", "p-not-power-of-two"],
)
def test_herm_exp_of_gram_matches_the_eigh_exponential_of_a0_a0_dagger(a0):
    # the reference exponentiates the padded matrix A0 A0^dagger by eigh;
    # the phases on the Schmidt index, carried by the padded u, give it as
    # I + U diag(phase - 1) U^dagger
    spec = spectral.decompose(a0)
    du = spectral.pad_dim(spec.p)
    a = np.zeros((du, du))
    a[: spec.p, : spec.p] = a0 @ a0.T
    u = np.zeros((du, spec.rank))
    u[: spec.p] = spec.u
    for t in (0.3, 1.0, 2.0 * np.pi / 8, 5.0):
        for sign in (1.0, -1.0):
            phases = spectral.herm_exp(spectral.gram(spec), sign * t)
            assert phases.shape == (spectral.pad_dim(max(spec.rank, 2)),)
            assert np.array_equal(phases[spec.rank :], np.ones(len(phases) - spec.rank))
            e = np.eye(du) + (u * (phases[: spec.rank] - 1.0)) @ u.T
            assert np.abs(e - eigh_exp(a, sign * t)).max() <= 1e-12


def test_herm_exp_rejects_eigenvalues_that_are_not_a_vector():
    # the eigenpairs (values, vectors) of a dense A, a matrix, a string
    for values in (([1.0], np.eye(2)), [[1.0]], np.eye(2), "a", ["a"]):
        with pytest.raises(ValidationError, match="^eigenvalues must be a vector of real numbers"):
            spectral.herm_exp(values, 1.0)


def test_pad_dim():
    assert [spectral.pad_dim(d) for d in (1, 2, 3, 4, 5, 6, 8, 9)] == [
        1, 2, 4, 4, 8, 8, 8, 16,
    ]


def test_matrix_text_roundtrip(tmp_path):
    # the fixture format of the tests: 17 significant digits read back exactly
    path = tmp_path / "m.txt"
    a = np.array([[1.5, -2.0, 0.25], [0.0, 3.0, -1.0]])
    np.savetxt(path, a, fmt="%.17g", header="2 3", comments="")
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
    # bytes that do not decode, in the header or in the body
    for data in (b"2 2\xff\n1 0\n0 1\n", b"2 2\n1 0\n0 \xff1\n"):
        path.write_bytes(data)
        with pytest.raises(ValidationError, match="not text"):
            spectral.load_matrix_text(path)
