import itertools
import linecache
import math
import sys

import numpy as np
import pytest

from qsvt import alpha as alpha_mod
from qsvt import harness, pipeline, sim, spectral
from qsvt.errors import FullyThresholdedError, ValidationError

REFERENCE = alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], 0.5)
ALPHA_REF = 2.0944


def random_profile(seed, max_rank=6):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, max_rank + 1))
    sigma = np.sort(np.exp(rng.uniform(np.log(0.2), np.log(5.0), r)))[::-1]
    for i in range(1, r):
        if sigma[i] > sigma[i - 1] * (1 - 1e-6):
            sigma[i] = sigma[i - 1] * (1 - 1e-3)
    tau = float(rng.uniform(0.05, 0.9) * sigma[0])
    return alpha_mod.SpectrumProfile.from_sigma_tau(sigma, tau)


def test_profile_reference_values():
    assert REFERENCE.y == (0.75, 0.5)
    assert REFERENCE.n1 == pytest.approx(5.0)
    assert REFERENCE.n2 == pytest.approx(2.5)


def test_profile_rejects_thresholded_top():
    with pytest.raises(FullyThresholdedError):
        alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], 2.0)


def test_profile_rejects_non_descending():
    with pytest.raises(ValidationError):
        alpha_mod.SpectrumProfile(sigma=(1.0, 2.0), y=(0.5, 0.25))


@pytest.mark.parametrize("sigma", [[], [math.nan, 1.0], [math.inf, 1.0], [2.0, math.nan],
                                   ["a"], 2.0, [[2.0, 1.0]]])
def test_profile_rejects_empty_or_non_finite_sigma(sigma):
    with pytest.raises(ValidationError, match="^sigma (and y )?must be"):
        alpha_mod.SpectrumProfile.from_sigma_tau(sigma, 0.5)


@pytest.mark.parametrize("y, match", [
    ((1.0, 0.5), r"must lie in \[0, 1\)"),
    ((0.5, -0.25), r"must lie in \[0, 1\)"),
    ((math.nan, 0.5), r"must lie in \[0, 1\)"),
    ((1.5, "a"), r"must lie in \[0, 1\)"),  # the first failure decides: "a" is not read
    ((0.5, 0.5), "first shrinkage gap must be strict"),
    ((0.25, 0.5), "first shrinkage gap must be strict"),
])
def test_profile_rejects_fractions_outside_0_1_or_a_first_gap_that_is_not_strict(y, match):
    with pytest.raises(ValidationError, match=match):
        alpha_mod.SpectrumProfile(sigma=(2.0, 1.0), y=y)


def test_profile_rejects_unequal_lengths_and_stops_at_the_first_bad_sigma():
    with pytest.raises(ValidationError, match="^sigma and y must be equal-length and non-empty$"):
        alpha_mod.SpectrumProfile(sigma=(2.0, 1.0), y=(0.5,))
    # the NaN fails first, so the string past it is never read: the
    # check's ValidationError, not a TypeError
    with pytest.raises(ValidationError, match="^sigma must be non-empty, finite and positive"):
        alpha_mod.SpectrumProfile(sigma=(math.nan, "a"), y=(0.5, 0.25))


def test_profile_names_tau_over_sigma_when_y_rounds_to_one():
    # y_1 = 1 - 1e-17 is 1.0: named as a fraction outside [0, 1) that the
    # caller never gave
    with pytest.raises(ValidationError, match=(
            r"^tau / sigma_1 = 1e-17 is below float resolution:"
            r" y_1 = 1 - tau / sigma_1 rounds to 1$")):
        alpha_mod.SpectrumProfile.from_sigma_tau([1.0, 0.5], 1e-17)
    # the sigma checks come first, as they do in the constructor
    with pytest.raises(ValidationError, match="^sigma must be strictly descending"):
        alpha_mod.SpectrumProfile.from_sigma_tau([1.0, 2.0], 1e-17)
    with pytest.raises(ValidationError, match=r"^shrinkage fractions must lie in \[0, 1\)$"):
        alpha_mod.SpectrumProfile(sigma=(1.0, 0.5), y=(1.0, 0.5))


def at(profile, a):
    """The solution at an explicit alpha, the one evaluator of P and F."""
    return alpha_mod.solution(profile, "explicit", a)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf, -math.inf, True, "1.2", None])
def test_solution_checks_alpha_before_any_sine(monkeypatch, a):
    def no_sine(x):
        raise AssertionError(f"sin({x!r}) evaluated before the alpha check")

    monkeypatch.setattr(math, "sin", no_sine)
    with pytest.raises(ValidationError, match="^alpha must be finite and positive, a real number"):
        at(REFERENCE, a)


def test_solution_takes_alpha_as_a_python_float():
    for a in (np.float32(2.0), np.float16(2.0), 2):
        got = at(REFERENCE, a)
        assert type(got.alpha) is float and got == at(REFERENCE, 2.0)


def test_profile_takes_tau_as_a_python_float():
    # a float32 tau made float32 shrinkage fractions; a bool ran as tau = 1
    for tau in (np.float32(0.5), np.float16(0.5)):
        profile = alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], tau)
        assert profile == REFERENCE and {type(y) for y in profile.y} == {float}
    with pytest.raises(ValidationError, match="real number"):
        alpha_mod.SpectrumProfile.from_sigma_tau([2.0, 1.0], True)


def test_probability_reference_value():
    # the published 4-digit value 0.9499 truncates the true 0.95000
    p = at(REFERENCE, ALPHA_REF).P
    assert p == pytest.approx(0.95, abs=1e-5)
    assert abs(p - 0.9499) < 2e-4


def test_probability_single_component_peak():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([3.0], 1.2)
    assert at(profile, np.pi / (2 * profile.y[0])).P == pytest.approx(1.0)


def test_fidelity_reference_value():
    f = at(REFERENCE, ALPHA_REF).F
    assert f == pytest.approx(0.9962, abs=1e-4)


def test_fidelity_single_component_is_one():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([3.0], 1.2)
    for a in (0.3, 1.0, 2.0):
        assert at(profile, a).F == pytest.approx(1.0)


def test_fidelity_small_alpha_limit():
    assert at(REFERENCE, 1e-6).F == pytest.approx(1.0, abs=1e-6)


def test_g_at_zero():
    assert alpha_mod.g_objective(REFERENCE, 0.0) == 0.0
    want = REFERENCE.n2 / math.sqrt(REFERENCE.n1 * REFERENCE.n2)
    assert alpha_mod.g_derivative(REFERENCE, 0.0) == pytest.approx(want)
    assert alpha_mod.g_derivative(REFERENCE, 0.0) > 0


def test_g_reference_value():
    g = alpha_mod.g_objective(REFERENCE, ALPHA_REF)
    assert g == pytest.approx(math.sqrt(0.9499) * 0.9962, abs=1e-3)


def test_g_equals_sqrt_p_times_f():
    rng = np.random.default_rng(40)
    for _ in range(20):
        a = float(rng.uniform(0.05, np.pi / REFERENCE.y[0]))
        g = alpha_mod.g_objective(REFERENCE, a)
        sol = at(REFERENCE, a)
        assert sol.G == g
        assert abs(g - math.sqrt(sol.P) * sol.F) < 1e-12


def test_alpha_intuitive_reference():
    sol = alpha_mod.resolve_alpha(REFERENCE, "intuitive")[0]
    assert sol.alpha == pytest.approx(np.pi / 1.5, abs=1e-12)
    assert sol.alpha == pytest.approx(2.0944, abs=1e-4)


def test_alpha_intuitive_small_tau_limit():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([2.0], 1e-9)
    sol = alpha_mod.resolve_alpha(profile, "intuitive")[0]
    assert sol.alpha == pytest.approx(np.pi / 2, rel=1e-8)


def test_alpha_intuitive_exactly_maximizes_rank_one():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([3.0], 1.0)
    sol = alpha_mod.resolve_alpha(profile, "intuitive")[0]
    grid = np.linspace(1e-6, np.pi / profile.y[0], 2001)
    gvals = [alpha_mod.g_objective(profile, a) for a in grid]
    assert sol.G >= max(gvals) - 1e-9


def test_alpha_taylor2_reference():
    sol = alpha_mod.resolve_alpha(REFERENCE, "taylor2")[0]
    assert sol.alpha == pytest.approx(math.sqrt(2 * 2.5 / 1.328125), abs=1e-12)
    assert sol.alpha == pytest.approx(1.9403, abs=1e-4)


def test_alpha_taylor2_single_component():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([4.0], 1.0)
    assert alpha_mod.resolve_alpha(profile, "taylor2")[0].alpha == pytest.approx(
        math.sqrt(2.0) / profile.y[0]
    )
    # a single survivor with a thresholded tail: F = 1 for both rules,
    # intuitive keeps the whole share sigma_1^2 / N1, taylor2 sin^2(sqrt 2)
    # of it
    tail = alpha_mod.SpectrumProfile.from_sigma_tau([4.0, 0.5], 1.0)
    share = 16.0 / 16.25
    s_int = alpha_mod.resolve_alpha(tail, "intuitive")[0]
    s_t2 = alpha_mod.resolve_alpha(tail, "taylor2")[0]
    assert s_int.P == pytest.approx(share, rel=0, abs=1e-12)
    sin2 = math.sin(math.sqrt(2.0)) ** 2
    assert s_t2.P == pytest.approx(share * sin2, rel=0, abs=1e-12)
    assert s_int.F == pytest.approx(1.0, rel=0, abs=1e-12)
    assert s_t2.F == pytest.approx(1.0, rel=0, abs=1e-12)


def test_alpha_taylor2_uniform_y_ignores_sigma():
    # (near-)equal shrinkage fractions: sigma weights cancel.  exactly
    # equal y would violate the strict first-gap invariant, so probe
    # the limit from just above it.
    eps = 1e-9
    p1 = alpha_mod.SpectrumProfile(sigma=(3.0, 1.0), y=(0.4 + eps, 0.4))
    p2 = alpha_mod.SpectrumProfile(sigma=(9.0, 2.0), y=(0.4 + eps, 0.4))
    a1 = alpha_mod.resolve_alpha(p1, "taylor2")[0].alpha
    a2 = alpha_mod.resolve_alpha(p2, "taylor2")[0].alpha
    assert a1 == pytest.approx(a2, rel=1e-6)
    assert a1 == pytest.approx(math.sqrt(2.0) / 0.4, rel=1e-6)


def test_alpha_taylor4_reference():
    # independent oracle: positive root of the truncated series
    # sum sigma^2 (y^2 - y^4 a^2/2 + y^6 a^4/24) = 0
    sig = np.array(REFERENCE.sigma)
    y = np.array(REFERENCE.y)
    coeffs = [
        np.sum(sig**2 * y**6) / 24.0,
        0.0,
        -np.sum(sig**2 * y**4) / 2.0,
        0.0,
        np.sum(sig**2 * y**2),
    ]
    roots = np.roots(coeffs)
    real_positive = sorted(
        r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0
    )
    sol = alpha_mod.resolve_alpha(REFERENCE, "taylor4")[0]
    assert sol.alpha == pytest.approx(real_positive[0], abs=1e-9)
    assert sol.alpha == pytest.approx(2.1976, abs=1e-3)


def test_alpha_taylor4_single_component_near_intuitive():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([4.0], 1.0)
    t4 = alpha_mod.resolve_alpha(profile, "taylor4")[0].alpha
    ref = np.pi / (2 * profile.y[0])
    assert abs(t4 - ref) / ref < 0.05


def negative_discriminant_profile():
    """One dominant fraction plus many small ones pushes b^2 below 4ac."""
    sigma = tuple([4.0] + list(np.linspace(3.99, 3.5, 30)))
    y = tuple([0.9] + list(np.linspace(0.15, 0.14, 30)))
    return alpha_mod.SpectrumProfile(sigma=sigma, y=y)


def test_alpha_taylor4_negative_discriminant_falls_back():
    profile = negative_discriminant_profile()
    with pytest.raises(ValidationError, match="discriminant"):
        alpha_mod._taylor4(profile)
    sol, note = alpha_mod.resolve_alpha(profile, "taylor4")
    assert sol.method == "taylor2"
    assert "taylor4" in note


def test_profile_rejects_all_thresholded_y():
    with pytest.raises(FullyThresholdedError):
        alpha_mod.SpectrumProfile(sigma=(2.0, 1.0), y=(0.0, 0.0))


def test_alpha_numeric_rank_one_finds_peak():
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([3.0], 1.0)
    sol = alpha_mod.resolve_alpha(profile, "numeric")[0]
    assert sol.alpha == pytest.approx(np.pi / (2 * profile.y[0]), abs=1e-12)


def test_alpha_numeric_beats_intuitive_on_reference():
    num = alpha_mod.resolve_alpha(REFERENCE, "numeric")[0]
    assert num.G >= alpha_mod.g_objective(REFERENCE, ALPHA_REF)


def test_alpha_numeric_first_order_condition():
    for seed in range(8):
        profile = random_profile(1000 + seed)
        sol = alpha_mod.resolve_alpha(profile, "numeric")[0]
        at_edge = sol.alpha == math.pi / profile.y[0]
        assert at_edge or abs(alpha_mod.g_derivative(profile, sol.alpha)) < 1e-12


def test_alpha_numeric_stops_at_the_edge_while_g_still_rises():
    # many small shrinkage fractions keep G' > 0 at pi / y_1, where the
    # concave bracket ends
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(
        [1.0] + list(np.linspace(0.93, 0.92, 30)), 0.9
    )
    edge = math.pi / profile.y[0]
    assert alpha_mod.g_derivative(profile, edge) > 0
    assert alpha_mod.resolve_alpha(profile, "numeric")[0].alpha == edge


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(41)
    checked = 0
    for seed in range(25):
        profile = random_profile(2000 + seed)
        for _ in range(2):
            a = float(rng.uniform(0.1, np.pi / profile.y[0]))
            h = 1e-6
            fd = (
                alpha_mod.g_objective(profile, a + h)
                - alpha_mod.g_objective(profile, a - h)
            ) / (2 * h)
            an = alpha_mod.g_derivative(profile, a)
            scale = max(abs(an), abs(fd), 1e-3)
            assert abs(an - fd) / scale < 1e-6
            checked += 1
    assert checked == 50


def test_derivative_positive_at_origin_for_all_profiles():
    for seed in range(30):
        profile = random_profile(3000 + seed)
        assert alpha_mod.g_derivative(profile, 0.0) > 0


def sweep_corpus_profiles(seed):
    """The profiles of the default sweep corpus, as the sweep builds them."""
    seen = []
    real = alpha_mod.resolve_alpha

    def capture(profile, method):
        seen.append(profile)
        return real(profile, method)

    cfg = harness.SweepConfig(methods=("intuitive",), seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alpha_mod, "resolve_alpha", capture)
        for index in range(cfg.n_instances):
            harness.run_sweep_instance(cfg, index)
    assert len(seen) == cfg.n_instances
    return seen


def test_numeric_dominates_closed_forms():
    # every closed form here lies in (0, pi / y_1], where G is strictly
    # concave and numeric's Newton search ends at its maximum
    profiles = [random_profile(4000 + seed) for seed in range(25)]
    profiles += sweep_corpus_profiles(0) + sweep_corpus_profiles(5)
    for i, profile in enumerate(profiles):
        num = alpha_mod.resolve_alpha(profile, "numeric")[0]
        for method in ("intuitive", "taylor2", "taylor4"):
            try:
                closed = alpha_mod.resolve_alpha(profile, method)[0]
            except (ValidationError, FullyThresholdedError):
                continue
            assert num.G >= closed.G, (i, method)


def reference_sums(profile, alpha):
    """N1, N2 and the sums of P, F/G and G' as zip/fsum formulas over
    every component, thresholded-out ones included."""
    pairs = list(zip(profile.sigma, profile.y))
    return (
        math.fsum(s * s for s in profile.sigma),
        math.fsum(s * s * v * v for s, v in pairs),
        math.fsum(s * s * math.sin(v * alpha) ** 2 for s, v in pairs),
        math.fsum(s * s * v * math.sin(v * alpha) for s, v in pairs),
        math.fsum(s * s * v * v * math.cos(v * alpha) for s, v in pairs),
    )


def reference_pfg(profile, alpha):
    """(P, F, G, G') from the reference sums."""
    n1, n2, nalpha, num, dnum = reference_sums(profile, alpha)
    scale = math.sqrt(n1 * n2)
    return nalpha / n1, num / math.sqrt(n2 * nalpha), num / scale, dnum / scale


def reference_closed_forms(profile):
    """The closed-form alphas; taylor4 is absent when its discriminant
    is negative."""
    pairs = list(zip(profile.sigma, profile.y))
    n2 = math.fsum(s * s * v * v for s, v in pairs)
    m4 = math.fsum(s * s * v**4 for s, v in pairs)
    m6 = math.fsum(s * s * v**6 for s, v in pairs)
    out = {"intuitive": math.pi / (2.0 * profile.y[0]), "taylor2": math.sqrt(2.0 * n2 / m4)}
    a, b = m6 / 24.0, m4 / 2.0
    disc = b * b - 4.0 * a * n2
    if disc >= 0:
        out["taylor4"] = math.sqrt((b - math.sqrt(disc)) / (2.0 * a))
    return out


GRID_POINTS = 1 << 12


def golden_max(f, lo, hi, tol=1e-8):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def reference_numeric(profile):
    """The quality bar for the numeric rule: the argmax of G on a 2^12
    grid and the closed forms as seeds, each refined by a golden-section
    search on the reference G to within 1e-8."""
    n1, n2 = reference_sums(profile, 0.0)[:2]
    grid = np.linspace(0.0, math.pi / profile.y[0], GRID_POINTS + 1)[1:]
    sig, yv = np.asarray(profile.sigma), np.asarray(profile.y)
    gvals = ((sig**2 * yv) @ np.sin(np.outer(yv, grid))) / math.sqrt(n1 * n2)
    cell = grid[1] - grid[0]

    def g(a):
        return reference_sums(profile, a)[3] / math.sqrt(n1 * n2)

    best = None
    seeds = [float(grid[int(np.argmax(gvals))])] + list(reference_closed_forms(profile).values())
    for seed in seeds:
        refined = golden_max(g, max(seed - cell, 1e-12), seed + cell)
        for a in (refined, seed):
            if best is None or g(a) > best[1]:
                best = (a, g(a))
    return best[0]


def reference_spectra():
    """(sigma, tau) of rank 1-6 spectra, many with thresholded-out (y = 0)
    components, plus the default sweep corpus at seed 0, whose tau is the
    corpus's fraction of sigma_1."""
    rng = np.random.default_rng(43)
    spectra = []
    for _ in range(150):
        r = int(rng.integers(1, 7))
        sigma = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(20.0), r)))[::-1]
        for i in range(1, r):
            sigma[i] = min(sigma[i], sigma[i - 1] * (1 - 1e-3))
        spectra.append((tuple(sigma.tolist()), float(rng.uniform(0.02, 0.95) * sigma[0])))
    frac = harness.SweepConfig.tau_frac
    spectra += [(p.sigma, frac * p.sigma[0]) for p in sweep_corpus_profiles(0)]
    return spectra


def reference_profiles():
    """The profiles of :func:`reference_spectra`."""
    profiles = [alpha_mod.SpectrumProfile.from_sigma_tau(s, t) for s, t in reference_spectra()]
    ranks = {len(p.sigma) for p in profiles}
    n_cut = sum(0.0 in p.y for p in profiles)
    assert ranks == set(range(1, 7)) and 100 <= n_cut <= len(profiles) - 50
    return profiles


def test_theory_matches_zip_fsum_reference_bit_for_bit():
    rng = np.random.default_rng(44)
    for profile in reference_profiles():
        assert (profile.n1, profile.n2) == reference_sums(profile, 0.0)[:2]
        edge = math.pi / profile.y[0]
        # G and G' are defined past the first lobe, where solution refuses alpha
        for a in map(float, rng.uniform(1e-3, 2 * edge, 3)):
            got = alpha_mod.g_objective(profile, a), alpha_mod.g_derivative(profile, a)
            assert got == reference_pfg(profile, a)[2:], (profile, a)
        for a in [*map(float, rng.uniform(1e-3, edge, 3)), edge]:
            sol = at(profile, a)
            assert (sol.P, sol.F, sol.G) == reference_pfg(profile, a)[:3], (profile, a)


def test_theory_stays_in_range_inside_the_lobe():
    # every sine in (0, pi]: no component's F term is negative
    rng = np.random.default_rng(45)
    for profile in reference_profiles():
        edge = math.pi / profile.y[0]
        for a in map(float, edge - rng.uniform(0.0, edge, 5)):  # in (0, edge]
            sol = at(profile, a)
            assert 0 < sol.P <= 1 + 1e-12 and 0 <= sol.F <= 1 + 1e-12 and sol.G >= 0, (profile, a)


def test_solution_refuses_an_alpha_past_the_lobe_and_takes_its_edge():
    # the edge pi / y_1 is the last alpha taken, with no slack past it:
    # on one sigma above tau, sin(y_1 alpha) is negative just past it, and
    # an alpha within 1e-9 / y_1 of the edge read F = -1
    lone = [alpha_mod.SpectrumProfile.from_sigma_tau(s, tau) for s, tau in (((3.0,), 1.0),
                                                                          ((2.0, 1.0), 1.5))]
    for profile in reference_profiles() + [beyond_the_lobe_profile()] + lone:
        edge = math.pi / profile.y[0]
        assert at(profile, edge).alpha == edge
        past = [(math.pi + 2e-9) / profile.y[0], math.nextafter(edge, math.inf)]
        if profile in lone:
            past.append((math.pi + 1e-10) / profile.y[0])
        for a in past:
            with pytest.raises(ValidationError,
                               match=r"exceeds pi \(sine no longer single-lobed\)$"):
                at(profile, a)


def test_resolve_alpha_matches_reference_bit_for_bit():
    for profile in reference_profiles():
        want = reference_closed_forms(profile)
        for method in ("intuitive", "taylor2", "taylor4"):
            sol, note = alpha_mod.resolve_alpha(profile, method)
            fallback = method not in want
            alpha = want["taylor2" if fallback else method]
            assert (sol.method, bool(note)) == ("taylor2" if fallback else method, fallback)
            assert sol.alpha == alpha, (profile, method)
            assert (sol.P, sol.F, sol.G) == reference_pfg(profile, alpha)[:3], (profile, method)


RULES = {
    "intuitive": alpha_mod._intuitive,
    "taylor2": alpha_mod._taylor2,
    "taylor4": alpha_mod._taylor4,
    "numeric": alpha_mod._numeric,
}


SOLUTION_FIELDS = ("method", "alpha", "P", "F", "G")


def field_reprs(sol):
    return [repr(getattr(sol, f)) for f in SOLUTION_FIELDS]


def test_resolve_alpha_is_solution_of_the_rule():
    assert alpha_mod.METHODS == tuple(RULES)  # the order of the `qsvt alpha` table
    fallbacks = 0
    for profile in reference_profiles() + [negative_discriminant_profile()]:
        for method, rule in RULES.items():
            sol, note = alpha_mod.resolve_alpha(profile, method)
            try:
                want = rule(profile)
            except ValidationError:
                assert method == "taylor4"
                fallbacks += 1
                want = alpha_mod._taylor2(profile)
                assert note == "taylor4 discriminant negative; used taylor2"
            else:
                assert want.method == method and note == ""
            # each rule returns the one constructor's solution at its alpha
            at_alpha = alpha_mod.solution(profile, want.method, want.alpha)
            assert field_reprs(want) == field_reprs(at_alpha), (profile, method)
            assert field_reprs(sol) == field_reprs(want), (profile, method)
    assert fallbacks == 1


def closed_form_solutions(profile):
    """The solutions of the closed forms that do not fail, in rule order."""
    out = []
    for method in ("intuitive", "taylor2", "taylor4"):
        try:
            out.append(RULES[method](profile))
        except ValidationError:
            pass
    return out


def test_lone_numeric_calls_no_closed_form():
    profiles = reference_profiles()[::5] + [negative_discriminant_profile()]
    want = [field_reprs(alpha_mod.resolve_alpha(p, "numeric")[0]) for p in profiles]

    def closed_form(profile):
        raise AssertionError("numeric called a closed-form rule")

    closed = dict.fromkeys(("intuitive", "taylor2", "taylor4"), closed_form)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alpha_mod, "_RULES", {**alpha_mod._RULES, **closed})
        for m in ("_intuitive", "_taylor2", "_taylor4"):
            mp.setattr(alpha_mod, m, closed_form)
        # equal new profiles: nothing an earlier call left on one answers
        again = [alpha_mod.SpectrumProfile(p.sigma, p.y) for p in profiles]
        got = [field_reprs(alpha_mod.resolve_alpha(p, "numeric")[0]) for p in again]
    assert got == want


def beyond_the_lobe_profile():
    """tau = 1, y_1 = 0.3 and 199 fractions just below 0.1: taylor2's
    alpha, 11.3358, lies past pi / y_1 = 10.4720, where G reads higher."""
    y = [0.3] + [0.1 * (1 - 1e-6 * k) for k in range(199)]
    return alpha_mod.SpectrumProfile.from_sigma_tau([1 / (1 - v) for v in y], 1.0)


BEYOND_THE_LOBE = r"^alpha \* y_1 = 3\.40074 exceeds pi \(sine no longer single-lobed\)$"


def test_numeric_stays_in_the_first_lobe_where_taylor2_leaves_it():
    profile = beyond_the_lobe_profile()
    edge = math.pi / profile.y[0]
    beyond = reference_closed_forms(profile)["taylor2"]
    assert beyond == pytest.approx(11.3358, abs=1e-4) and beyond > edge
    assert alpha_mod.g_objective(profile, beyond) == pytest.approx(0.86406, abs=1e-5)
    # taylor2's alpha times y_1 is 3.40074; taylor4 falls back to it
    for method in ("taylor2", "taylor4"):
        with pytest.raises(ValidationError, match=BEYOND_THE_LOBE):
            alpha_mod.resolve_alpha(profile, method)
    sol = alpha_mod.resolve_alpha(profile, "numeric")[0]
    assert sol.alpha == edge and sol.G == pytest.approx(0.83186, abs=1e-5)


def test_the_sweep_and_the_run_refuse_the_rules_past_the_lobe(monkeypatch):
    sigma = beyond_the_lobe_profile().sigma
    cfg = harness.SweepConfig(n_instances=1, shape=(200, 200), sigma=sigma, tau=1.0,
                              methods=alpha_mod.METHODS)
    records = {rec.alpha_method: rec for rec in harness.run_sweep(cfg)}
    for method in ("taylor2", "taylor4"):
        rec = records[method]
        assert "single-lobed" in rec.error and (rec.alpha, rec.p_analytic, rec.f_analytic) == (
            None, None, None)
    # the rules inside the lobe keep their records: the fields of their
    # solutions on the spectrum of instance 0's draw, and the values they had
    a0 = harness.random_lowrank(200, 200, 200, [0, 1], sigma=sigma)
    profile = alpha_mod.SpectrumProfile.from_sigma_tau(spectral.decompose(a0).sigma, 1.0)
    had = {"intuitive": (5.235987755982993, 0.25613441913883406, 0.9962518704217138),
           "numeric": (10.471975511965987, 0.7437320114342052, 0.9645852426029485)}
    for method, values in had.items():
        rec, sol = records[method], alpha_mod.resolve_alpha(profile, method)[0]
        got = (rec.alpha, rec.p_analytic, rec.f_analytic)
        assert list(map(repr, got)) == list(map(repr, (sol.alpha, sol.P, sol.F))) and not rec.error
        assert got == pytest.approx(values, rel=1e-13, abs=0)
    # a run on either rule is refused by the same check, before its state
    monkeypatch.setattr(sim, "new_state", lambda *args: pytest.fail("state made"))
    for method in ("taylor2", "taylor4"):
        with pytest.raises(ValidationError, match=BEYOND_THE_LOBE):
            pipeline.run_pipeline(pipeline.PipelineConfig(a0=a0, tau=1.0, alpha_method=method))


def test_alpha_table_shows_a_refused_rules_row(capsys):
    sigma = ",".join(map(repr, beyond_the_lobe_profile().sigma))
    assert harness.main(["alpha", "--sigma", sigma, "--tau", "1.0"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] and line.split()[0] in alpha_mod.METHODS]
    assert [row.split()[0] for row in rows] == list(alpha_mod.METHODS)
    reason = "[alpha * y_1 = 3.40074 exceeds pi (sine no longer single-lobed)]"
    for row in rows[1:3]:  # taylor2, taylor4
        assert row.split()[1:5] == ["-"] * 4 and row.endswith("  " + reason)
    assert float(rows[3].split()[4]) >= float(rows[0].split()[4])


def test_numeric_returns_the_peaks_solution_when_the_peak_wins():
    for profile in [REFERENCE] + reference_profiles()[::5]:
        sol = alpha_mod.resolve_alpha(profile, "numeric")[0]
        want = alpha_mod.solution(profile, "numeric", alpha_mod._peak(profile))
        assert all(closed.G <= want.G for closed in closed_form_solutions(profile))
        assert field_reprs(sol) == field_reprs(want), profile


def test_peak_bisects_when_a_newton_step_leaves_the_bracket(monkeypatch):
    # G'' scaled by 1e-3 makes each Newton step a thousand times too long:
    # every step leaves (lo, up), the bracket is bisected, and the search
    # ends on the bracket's width, not on a short step, at the same peak
    want = alpha_mod._peak(REFERENCE)
    assert want == 2.16399217782823
    fused, code = alpha_mod._slope_and_curvature, alpha_mod._peak.__code__

    def long_steps(profile, alpha):
        slope, curvature = fused(profile, alpha)
        return slope, 1e-3 * curvature

    monkeypatch.setattr(alpha_mod, "_slope_and_curvature", long_steps)
    ran = []

    def trace(frame, event, arg):
        if frame.f_code is code:
            if event in ("line", "return"):
                ran.append((event, linecache.getline(code.co_filename, frame.f_lineno).strip()))
            return trace
        return None

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        got = alpha_mod._peak(REFERENCE)
    finally:
        sys.settrace(outer)
    assert got == want
    assert ("line", "alpha = 0.5 * (lo + up)") in ran
    assert ran[-1] == ("return", "return alpha")


def test_unknown_alpha_method_rejected():
    with pytest.raises(ValidationError, match="unknown alpha method 'taylor3'"):
        alpha_mod.resolve_alpha(REFERENCE, "taylor3")


def test_numeric_meets_the_grid_and_golden_bar():
    for profile in reference_profiles() + sweep_corpus_profiles(5):
        bar = reference_numeric(profile)
        assert 0 < bar <= math.pi / profile.y[0]
        sol, note = alpha_mod.resolve_alpha(profile, "numeric")
        assert (sol.method, note) == ("numeric", "")
        assert sol.G >= reference_pfg(profile, bar)[2] - 1e-15, profile
        assert abs(sol.alpha - bar) <= 1e-6, profile
        assert (sol.P, sol.F, sol.G) == reference_pfg(profile, sol.alpha)[:3], profile


def test_numeric_cost_is_a_few_derivative_evaluations():
    # no grid, no bisection loop: the edge test's G' plus a handful of
    # Newton steps, each one fused G' and G'' evaluation
    calls = []

    def counting(real):
        def count(profile, alpha):
            calls.append(alpha)
            return real(profile, alpha)
        return count

    profiles = reference_profiles() + sweep_corpus_profiles(5)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("g_derivative", "_slope_and_curvature"):
            mp.setattr(alpha_mod, name, counting(getattr(alpha_mod, name)))
        for profile in profiles:
            calls.clear()
            alpha_mod.resolve_alpha(profile, "numeric")
            assert 1 <= len(calls) <= 8, (profile, len(calls))


def test_p_and_f_scale_invariant():
    rng = np.random.default_rng(42)
    for seed in range(10):
        sigma = np.sort(rng.uniform(0.5, 4.0, 3))[::-1]
        sigma[1] = min(sigma[1], sigma[0] * 0.99)
        sigma[2] = min(sigma[2], sigma[1] * 0.99)
        tau = 0.4 * sigma[0]
        c = float(rng.uniform(0.1, 10.0))
        base = alpha_mod.SpectrumProfile.from_sigma_tau(sigma, tau)
        scaled = alpha_mod.SpectrumProfile.from_sigma_tau(c * sigma, c * tau)
        for a in (0.7, 1.9):
            assert at(base, a).P == pytest.approx(at(scaled, a).P, rel=1e-12)
            assert at(base, a).F == pytest.approx(at(scaled, a).F, rel=1e-12)


def test_intuitive_vs_taylor2_medians_over_profiles():
    # the claim on this test's own corpus (sigma on [0.2, 5], tau in
    # 0.05-0.9 sigma_1), not the sweep's default corpus: same probability
    # within 0.02 of median, fidelity of the intuitive pick not worse by
    # more than 0.005
    p_int, f_int, p_t2, f_t2 = [], [], [], []
    for seed in range(120):
        profile = random_profile(5000 + seed)
        s_int = alpha_mod.resolve_alpha(profile, "intuitive")[0]
        s_t2, _ = alpha_mod.resolve_alpha(profile, "taylor2")
        p_int.append(s_int.P)
        f_int.append(s_int.F)
        p_t2.append(s_t2.P)
        f_t2.append(s_t2.F)
    assert abs(np.median(p_int) - np.median(p_t2)) <= 0.02
    assert np.median(f_int) >= np.median(f_t2) - 0.005


def test_alpha_solution_self_consistency_guard():
    # NaN passed a "> 1e-12" check
    for p, f, g in ((0.5, 0.5, 0.9), (math.nan, math.nan, math.nan), (0.25, 1.0, math.nan)):
        with pytest.raises(ValidationError, match="self-consistency"):
            alpha_mod.AlphaSolution("bogus", 1.0, p, f, g)


def test_profile_sums_must_stay_in_the_float_range():
    # N1 * N2 underflowed (a bare ZeroDivisionError in solution), N1
    # overflowed (P, F and G were nan), N1 and N2 underflowed (reported as
    # a fully thresholded spectrum, with sigma_1 > tau)
    for sigma, tau in (([2e-150, 1e-150], 5e-151), ([1e160, 1e159], 1e158),
                       ([1e-170, 1e-171], 1e-172)):
        with pytest.raises(ValidationError, match=r"^sums of sigma\^2 leave the float range"):
            alpha_mod.SpectrumProfile.from_sigma_tau(sigma, tau)


def test_solution_checks_the_divisor_it_uses():
    # N_alpha > 0 passed, then N2 * N_alpha underflowed: a bare ZeroDivisionError
    profile = alpha_mod.SpectrumProfile.from_sigma_tau([1e-75], 5e-76)
    with pytest.raises(ValidationError, match="^zero post-selection probability at this alpha"):
        alpha_mod.solution(profile, "explicit", 1e-80)
    assert alpha_mod.solution(profile, "explicit", 1.0).F == 1.0


def degenerate_taylor2_profile():
    """y_1^4 underflows to 0, so taylor2 fails; numeric does not."""
    return alpha_mod.SpectrumProfile(sigma=(1.0,), y=(1e-90,))


def resolved_repr(profile, method):
    """The repr of every field of the rule's solution and its note, or
    the failure's type and message."""
    try:
        sol, note = alpha_mod.resolve_alpha(profile, method)
    except ValidationError as exc:
        return (type(exc), str(exc))
    return tuple(repr(getattr(sol, f)) for f in ("method", "alpha", "P", "F", "G")) + (note,)


def test_rule_order_never_changes_a_result():
    profiles = reference_profiles()[::6] + sweep_corpus_profiles(3)[:10]
    profiles += [negative_discriminant_profile(), degenerate_taylor2_profile()]
    for profile in profiles:
        want = {m: resolved_repr(profile, m) for m in alpha_mod.METHODS}
        for order in itertools.permutations(alpha_mod.METHODS):
            for method in order + order + order[::-1]:
                assert resolved_repr(profile, method) == want[method], (profile, order, method)


def test_each_rules_g_is_g_objective_bit_for_bit():
    for profile in reference_profiles()[::10] + [negative_discriminant_profile()]:
        for method in alpha_mod.METHODS:
            sol = alpha_mod.resolve_alpha(profile, method)[0]
            assert repr(sol.G) == repr(alpha_mod.g_objective(profile, sol.alpha)), profile


def test_used_profile_keeps_equality_hash_and_repr():
    for profile in (REFERENCE, negative_discriminant_profile()):
        new = alpha_mod.SpectrumProfile(profile.sigma, profile.y)
        for method in alpha_mod.METHODS:
            alpha_mod.resolve_alpha(profile, method)
        assert profile == new and hash(profile) == hash(new) and repr(profile) == repr(new)


def test_taylor4_falls_back_naming_an_underflowing_leading_coefficient():
    # sum s^2 y^6 underflows to 0 where sum s^2 y^4 does not: the fallback
    # note names that failure, not a negative discriminant
    profile = alpha_mod.SpectrumProfile(sigma=(1.0,), y=(1e-55,))
    with pytest.raises(ValidationError, match="^degenerate leading coefficient"):
        alpha_mod._taylor4(profile)
    sol, note = alpha_mod.resolve_alpha(profile, "taylor4")
    assert sol == alpha_mod.resolve_alpha(profile, "taylor2")[0]
    # taylor2's sqrt(2 N2 / sum s^2 y^4) = sqrt(2) / y, where sin(y alpha) = sin(sqrt(2))
    peak = math.sin(math.sqrt(2.0))
    assert sol.method == "taylor2"
    assert sol.alpha == pytest.approx(math.sqrt(2.0) * 1e55, rel=1e-15)
    assert (sol.P, sol.F, sol.G) == pytest.approx((peak**2, 1.0, peak), rel=1e-15)
    assert note == ("taylor4 failed (degenerate leading coefficient in the order-4 solution);"
                    " used taylor2")


def test_kept_failure_falls_back_the_same_way_and_raises_afresh():
    profile = negative_discriminant_profile()
    first = alpha_mod.resolve_alpha(profile, "taylor4")
    for _ in range(3):
        assert alpha_mod.resolve_alpha(profile, "taylor4") == first
    assert first[0] == alpha_mod.resolve_alpha(profile, "taylor2")[0]
    assert first[1] == "taylor4 discriminant negative; used taylor2"
    # a rule that fails without a fallback raises a new exception each call
    profile = degenerate_taylor2_profile()
    raised = []
    for _ in range(3):
        with pytest.raises(ValidationError, match="^degenerate denominator") as info:
            alpha_mod.resolve_alpha(profile, "taylor2")
        raised.append(info.value)
    assert len({id(exc) for exc in raised}) == 3
    assert all(type(exc) is ValidationError for exc in raised)
    assert alpha_mod.resolve_alpha(profile, "numeric")[0].method == "numeric"
