"""Rotation-scale selection: the success probability P(alpha), the
fidelity F(alpha) against the exact threshold target, their combined
objective G = sqrt(P) * F, and four rules that choose alpha.

``solution(profile, method, alpha)`` is the one evaluator of P, F and G at
a chosen alpha.  It checks alpha (``sim.check_positive``: a real number,
not a bool, finite and positive; then alpha <= pi / y_1, with no slack)
and refuses a P below ``sim.POST_SELECT_FLOOR``, as the run's post-select
would: at pi / y_1 on one sigma above tau, P is round-off.  Every alpha,
explicit or a rule's, reaches it, so the run, both sweeps and the ``qsvt
alpha`` table apply its lobe rule and P floor and no others.  ``g_objective``
is G alone at an alpha, and ``g_derivative`` is G' alone, which the numeric
rule's edge test at pi / y_1 reads; both are defined past pi / y_1 too.
Each Newton step of numeric takes G' and G'' in one pass.

``resolve_alpha(profile, method)`` is the one way to apply a rule, and
``METHODS`` names the rules.  Its one fallback: a ValidationError from
the taylor4 rule or its solution (a negative discriminant, or a leading
coefficient that underflows to 0) gives taylor2's solution and a note
that names the failure; other failures propagate.

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
theory assumes and ``solution`` refuses to leave.

Sums use compensated (fsum) accumulation so large-rank profiles do not
lose precision.  N1, N2, sqrt(N1 * N2) and the per-component
coefficients are computed once per profile; components with y_k = 0 are
skipped, as they add exact zeros to every sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FullyThresholdedError, ValidationError
from .sim import POST_SELECT_FLOOR, check_positive
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
        for v in self.y:  # the first failure decides: a non-number past it is not read
            if not 0 <= v < 1:
                raise ValidationError("shrinkage fractions must lie in [0, 1)")
        if self.y[0] <= 0:
            raise FullyThresholdedError("largest singular value is thresholded out")
        if len(self.y) > 1 and self.y[0] <= self.y[1]:
            raise ValidationError("first shrinkage gap must be strict")
        squares = [s * s for s in self.sigma]
        terms = tuple([(v, s2, s2 * v, s2 * v * v) for s2, v in zip(squares, self.y) if v > 0])
        n1 = math.fsum(squares)
        n2 = math.fsum([s2y2 for _, _, _, s2y2 in terms])
        scale = math.sqrt(n1 * n2)
        # sigma^2 or N1 * N2 can leave the float range; written so that NaN fails
        if not (0 < n1 < math.inf and 0 < n2 < math.inf and 0 < scale < math.inf):
            raise ValidationError(
                f"sums of sigma^2 leave the float range (N1 = {n1:.3g}, N2 = {n2:.3g},"
                f" sqrt(N1 * N2) = {scale:.3g}): rescale A and tau"
            )
        object.__setattr__(self, "n1", n1)  # frozen: set once, here
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_sigma_tau(cls, sigma, tau: float) -> "SpectrumProfile":
        sig = tuple(real_vector("sigma", sigma).tolist())
        tau = check_threshold(tau, sig[0] if sig else math.inf)  # empty: rejected below
        y = tuple([max(1.0 - tau / s, 0.0) for s in sig])
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
    Alpha is checked before any sine, and taken as a Python float; an
    alpha past pi / y_1, where sin(y_1 alpha) leaves its first lobe and F
    can go negative, is refused, and so is a P below the floor.  Numeric's
    edge is that same quotient, so it passes.  Each component takes one sine."""
    alpha = check_positive("alpha", alpha)
    if not alpha <= math.pi / profile.y[0]:
        raise ValidationError(f"alpha * y_1 = {alpha * profile.y[0]:.6g} exceeds pi"
                              " (sine no longer single-lobed)")
    weights, parts = [], []
    for v, s2, c, _ in profile.terms:
        sn = math.sin(v * alpha)
        weights.append(s2 * sn**2)
        parts.append(c * sn)
    nalpha = math.fsum(weights)
    root = math.sqrt(profile.n2 * nalpha)
    if not root > 0:  # N_alpha = 0, or N2 * N_alpha underflows
        raise ValidationError("zero post-selection probability at this alpha")
    p = nalpha / profile.n1
    if not p >= POST_SELECT_FLOOR:  # post-select's floor; at pi / y_1 on one term P is round-off
        raise ValidationError(f"post-selection probability {p:.3e} below floor"
                              f" {POST_SELECT_FLOOR:.3e} at this alpha")
    num = math.fsum(parts)
    return AlphaSolution(method, alpha, p, num / root, num / profile.scale)


def _intuitive(profile: SpectrumProfile) -> AlphaSolution:
    """Closed form pi / (2 y_1): puts the dominant component on the
    sine peak.  Needs only the largest singular value."""
    return solution(profile, "intuitive", math.pi / (2.0 * profile.y[0]))


def _taylor2(profile: SpectrumProfile) -> AlphaSolution:
    """Second-order series solution sqrt(2 sum s^2 y^2 / sum s^2 y^4)."""
    denom = math.fsum([s2 * v**4 for v, s2, _, _ in profile.terms])
    if denom <= 0:
        raise ValidationError("degenerate denominator in the order-2 solution")
    return solution(profile, "taylor2", math.sqrt(2.0 * profile.n2 / denom))


def _taylor4(profile: SpectrumProfile) -> AlphaSolution:
    """Fourth-order series solution sqrt((b - sqrt(b^2 - 4ac)) / (2a))
    with a = sum s^2 y^6 / 24, b = sum s^2 y^4 / 2, c = sum s^2 y^2."""
    fourth, sixth = [], []
    for v, s2, _, _ in profile.terms:
        fourth.append(s2 * v**4)
        sixth.append(s2 * v**6)
    a = math.fsum(sixth) / 24.0
    b = math.fsum(fourth) / 2.0
    if a <= 0:
        raise ValidationError("degenerate leading coefficient in the order-4 solution")
    disc = b * b - 4.0 * a * profile.n2
    if disc < 0:
        raise ValidationError(
            "negative discriminant in the order-4 solution; fall back to taylor2"
        )
    return solution(profile, "taylor4", math.sqrt((b - math.sqrt(disc)) / (2.0 * a)))


def _slope_and_curvature(profile: SpectrumProfile, alpha: float) -> tuple[float, float]:
    """G' and G'' at alpha in one pass: one cos and one sin per component."""
    slopes, curvatures = [], []
    for v, _, _, c in profile.terms:
        slopes.append(c * math.cos(v * alpha))
        curvatures.append(-(c * v) * math.sin(v * alpha))
    return math.fsum(slopes) / profile.scale, math.fsum(curvatures) / profile.scale


def _peak(profile: SpectrumProfile) -> float:
    """pi / y_1 if G' >= 0 there, else the root of G' by Newton steps from
    the intuitive alpha, bisecting the sign bracket [lo, up] when a step
    leaves it."""
    lo, up = 0.0, math.pi / profile.y[0]
    if g_derivative(profile, up) >= 0:
        return up
    alpha = math.pi / (2.0 * profile.y[0])
    while True:
        slope, curvature = _slope_and_curvature(profile, alpha)
        step = slope / -curvature
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
    fell back to taylor2, naming why.  ``_RULES`` is the only list of rules."""
    if method not in _RULES:
        raise ValidationError(f"unknown alpha method {method!r}")
    try:
        return _RULES[method](profile), ""
    except ValidationError as exc:
        if method != "taylor4":
            raise
        cause = "discriminant negative" if "discriminant" in str(exc) else f"failed ({exc})"
    return _taylor2(profile), f"taylor4 {cause}; used taylor2"
