"""Rotation-scale selection: the success probability P(alpha), the
fidelity F(alpha) against the exact threshold target, their combined
objective G = sqrt(P) * F, and four rules that choose alpha.

``solution(profile, method, alpha)`` checks alpha (``sim.check_positive``:
a real number, not a bool, finite and positive) and is the one evaluator
of P, F and G at a chosen alpha; an explicit alpha and every rule's
alpha reach it.  ``g_objective`` is G alone at an alpha, and
``g_derivative`` serves the numeric rule's search.

``resolve_alpha(profile, method)`` is the one way to apply a rule, and
``METHODS`` names the rules.  Its one fallback: a ValidationError from
the taylor4 rule or its solution (a negative discriminant) gives
taylor2's solution and a note; other failures propagate.

Each rule returns the solution of the alpha it picks, and no rule reads
another's.

For a spectrum sigma_1 > ... > sigma_r > 0 with shrinkage fractions
y_k = (1 - tau/sigma_k)_+:

    P(a) = sum sigma_k^2 sin^2(y_k a) / N1,          N1 = sum sigma_k^2
    F(a) = sum sigma_k^2 y_k sin(y_k a) / sqrt(N2 * N1 * P(a)),
                                                     N2 = sum sigma_k^2 y_k^2
    G(a) = sum sigma_k^2 y_k sin(y_k a) / sqrt(N1 * N2)
    G'(a) = sum sigma_k^2 y_k^2 cos(y_k a) / sqrt(N1 * N2)
    G''(a) = -sum sigma_k^2 y_k^3 sin(y_k a) / sqrt(N1 * N2)

On (0, pi / y_1] every y_k a lies in (0, pi], so G'' < 0: G is strictly
concave there and, as G'(0) > 0, peaks at pi / y_1 or at the root of G',
which the numeric rule finds by safeguarded Newton steps.  It looks no
further: past pi / y_1, sin(y_1 a) leaves its first lobe, which this
theory and the circuit's set-up rule both assume.

Sums use compensated (fsum) accumulation so large-rank profiles do not
lose precision.  N1, N2, sqrt(N1 * N2) and the per-component
coefficients are computed once per profile; components with y_k = 0 are
skipped, as they add exact zeros to every sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FullyThresholdedError, ValidationError
from .sim import check_positive
from .spectral import check_sigma, check_threshold, real_vector

# Newton on G' stops once its step is this many ulps of alpha or fewer
_STEP_ULPS = 4


@dataclass(frozen=True)
class SpectrumProfile:
    """Singular values (strictly descending) with their shrinkage
    fractions; the first fraction must be positive and strictly larger
    than the second.

    N1, N2, scale = sqrt(N1 * N2) and ``terms``, the coefficients
    (y, s^2, s^2 y, s^2 y^2) of each component with y > 0, are derived
    once at construction, and each must be finite and positive.  None
    of these enters equality, hash or repr."""

    sigma: tuple[float, ...]
    y: tuple[float, ...]
    n1: float = field(init=False, repr=False, compare=False)
    n2: float = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)
    terms: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.sigma) == 0 or len(self.sigma) != len(self.y):
            raise ValidationError("sigma and y must be equal-length and non-empty")
        check_sigma(self.sigma)
        if any(not 0 <= v < 1 for v in self.y):
            raise ValidationError("shrinkage fractions must lie in [0, 1)")
        if self.y[0] <= 0:
            raise FullyThresholdedError("largest singular value is thresholded out")
        if len(self.y) > 1 and self.y[0] <= self.y[1]:
            raise ValidationError("first shrinkage gap must be strict")
        pairs = zip(self.sigma, self.y)
        terms = tuple((v, s * s, s * s * v, s * s * v * v) for s, v in pairs if v > 0)
        n1 = math.fsum(s * s for s in self.sigma)
        n2 = math.fsum(s2y2 for _, _, _, s2y2 in terms)
        scale = math.sqrt(n1 * n2)
        # sigma^2 or N1 * N2 can leave the float range; written so that NaN fails
        if not all(0 < x < math.inf for x in (n1, n2, scale)):
            raise ValidationError(
                f"sums of sigma^2 leave the float range (N1 = {n1:.3g}, N2 = {n2:.3g},"
                f" sqrt(N1 * N2) = {scale:.3g}): rescale A and tau"
            )
        derived = {"n1": n1, "n2": n2, "scale": scale, "terms": terms}
        for name, value in derived.items():  # frozen: set once, here
            object.__setattr__(self, name, value)

    @classmethod
    def from_sigma_tau(cls, sigma, tau: float) -> "SpectrumProfile":
        sig = tuple(real_vector("sigma", sigma).tolist())
        tau = check_threshold(tau, sig[0] if sig else math.inf)  # empty: rejected below
        y = tuple(max(1.0 - tau / s, 0.0) for s in sig)
        if 1.0 in y:  # 1 - tau / sigma_k rounded to 1
            check_sigma(sig)  # first, as in __post_init__; then y_1 is the 1
            raise ValidationError(
                f"tau / sigma_1 = {tau / sig[0]:.3g} is below float resolution:"
                " y_1 = 1 - tau / sigma_1 rounds to 1"
            )
        return cls(sig, y)


def g_objective(profile: SpectrumProfile, alpha: float) -> float:
    num = math.fsum([c * math.sin(v * alpha) for v, _, c, _ in profile.terms])
    return num / profile.scale


def g_derivative(profile: SpectrumProfile, alpha: float) -> float:
    num = math.fsum([c * math.cos(v * alpha) for v, _, _, c in profile.terms])
    return num / profile.scale


@dataclass(frozen=True)
class AlphaSolution:
    method: str
    alpha: float
    P: float
    F: float
    G: float

    def __post_init__(self) -> None:
        if not abs(self.G - math.sqrt(self.P) * self.F) <= 1e-12:  # NaN fails
            raise ValidationError("G = sqrt(P) * F self-consistency check failed")


def solution(profile: SpectrumProfile, method: str, alpha: float) -> AlphaSolution:
    """P, F and G at ``alpha``, recorded under ``method``: the one
    constructor of a solution, for the four rules and an explicit alpha.
    Alpha is checked before any sine, and taken as a Python float; each
    component takes one sine."""
    alpha = check_positive("alpha", alpha)
    sines = [(s2, c, math.sin(v * alpha)) for v, s2, c, _ in profile.terms]
    nalpha = math.fsum([s2 * sn**2 for s2, _, sn in sines])
    root = math.sqrt(profile.n2 * nalpha)
    if not root > 0:  # N_alpha = 0, or N2 * N_alpha underflows
        raise ValidationError("zero post-selection probability at this alpha")
    num = math.fsum([c * sn for _, c, sn in sines])
    f = num / root
    return AlphaSolution(method, alpha, nalpha / profile.n1, f, num / profile.scale)


def _moment(profile: SpectrumProfile, power: int) -> float:
    """sum s^2 y^power."""
    return math.fsum([s2 * v**power for v, s2, _, _ in profile.terms])


def _intuitive(profile: SpectrumProfile) -> AlphaSolution:
    """Closed form pi / (2 y_1): puts the dominant component on the
    sine peak.  Needs only the largest singular value."""
    return solution(profile, "intuitive", math.pi / (2.0 * profile.y[0]))


def _taylor2(profile: SpectrumProfile) -> AlphaSolution:
    """Second-order series solution sqrt(2 sum s^2 y^2 / sum s^2 y^4)."""
    denom = _moment(profile, 4)
    if denom <= 0:
        raise ValidationError("degenerate denominator in the order-2 solution")
    return solution(profile, "taylor2", math.sqrt(2.0 * profile.n2 / denom))


def _taylor4(profile: SpectrumProfile) -> AlphaSolution:
    """Fourth-order series solution sqrt((b - sqrt(b^2 - 4ac)) / (2a))
    with a = sum s^2 y^6 / 24, b = sum s^2 y^4 / 2, c = sum s^2 y^2."""
    a = _moment(profile, 6) / 24.0
    b = _moment(profile, 4) / 2.0
    if a <= 0:
        raise ValidationError("degenerate leading coefficient in the order-4 solution")
    disc = b * b - 4.0 * a * profile.n2
    if disc < 0:
        raise ValidationError(
            "negative discriminant in the order-4 solution; fall back to taylor2"
        )
    return solution(profile, "taylor4", math.sqrt((b - math.sqrt(disc)) / (2.0 * a)))


def _g_curvature(profile: SpectrumProfile, alpha: float) -> float:
    num = math.fsum([-(c * v) * math.sin(v * alpha) for v, _, _, c in profile.terms])
    return num / profile.scale


def _peak(profile: SpectrumProfile) -> float:
    """pi / y_1 if G' >= 0 there, else the root of G' by Newton steps from
    the intuitive alpha, bisecting the sign bracket [lo, up] when a step
    leaves it."""
    lo, up = 0.0, math.pi / profile.y[0]
    if g_derivative(profile, up) >= 0:
        return up
    alpha = math.pi / (2.0 * profile.y[0])
    while True:
        slope = g_derivative(profile, alpha)
        step = slope / -_g_curvature(profile, alpha)
        tol = _STEP_ULPS * math.ulp(alpha)
        # tested before the bracket: at the root a zero step would leave
        # the open bracket and bisect down to the ulp
        if abs(step) <= tol:
            return alpha + step
        if slope > 0:
            lo = alpha
        else:
            up = alpha
        alpha += step
        if not lo < alpha < up:
            alpha = 0.5 * (lo + up)
        if up - lo <= tol:
            return alpha


def _numeric(profile: SpectrumProfile) -> AlphaSolution:
    """Maximizer of G over (0, pi / y_1], where G is strictly concave
    (see the module docstring): no alpha there scores higher."""
    return solution(profile, "numeric", _peak(profile))


_RULES = {"intuitive": _intuitive, "taylor2": _taylor2, "taylor4": _taylor4, "numeric": _numeric}
METHODS = tuple(_RULES)


def resolve_alpha(profile: SpectrumProfile, method: str) -> tuple[AlphaSolution, str]:
    """The solution of rule ``method`` and a note, empty unless taylor4
    fell back to taylor2.  ``_RULES`` is the only list of rules."""
    if method not in _RULES:
        raise ValidationError(f"unknown alpha method {method!r}")
    try:
        return _RULES[method](profile), ""
    except ValidationError:
        if method != "taylor4":
            raise
    return _taylor2(profile), "taylor4 discriminant negative; used taylor2"
