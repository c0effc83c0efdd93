"""Probability calibrators for linear-model logits.

The centerpiece is the angular predictor: an interpolation between the
informative logit and pure Gaussian noise,

    u  ->  E_Z [ link( cos(theta) * u / sigma_norm + sin(theta) * Z ) ],

where theta is the (estimated) angle between the fitted and true weight
directions in the Sigma inner product. theta = 0 recovers the raw link
on normalized logits; theta = pi/2 collapses to the constant chance
value E[link(Z)].

Also here: the package's one Gaussian-expectation rule, `link_expectation`
(E[link(mean + scale Z)], whose rule the link's kind picks: the probit
identity E Phi(mu + s Z) = Phi(mu / sqrt(1+s^2)) for probit, the three
linear pieces for clipped-relu, 128-point Gauss-Hermite for sigmoid),
which the angular predictor, the chance value and each index of the
multi-index predictor evaluate through; the closed-form (slope, offset)
pair the probit identity induces for probit-family links;
Platt scaling on the holdout negative log-likelihood over the square
|slope|, |offset| <= 50 (projected damped Newton for the smooth families,
bounded simplex search for the kinked clipped-relu one); isotonic
regression by pool-adjacent-violators; and one frozen calibrator type per
kind (Uncalibrated, Angular, Platt, Isotonic, Chance), each callable on
logits, behind one `calibrate` that checks the logits and clips to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, roots_hermite

from ._blocks import row_tiles
from .errors import ContractError, DegenerateHoldout, DegenerateModel, FitError, _finite_array, _is_finite_real, _label_array
from .links import SIGMOID_PROBIT_BRIDGE, LinkFunction, _require_link  # noqa: F401  (re-exported)
from .mestimator import logistic_loss_derivatives

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_PROB_CLAMP = 1e-12
# Beyond |z| = 40, phi(z) underflows to 0 and Phi(z) rounds to exactly 0 or 1,
# so clamping standardized bounds there changes no value and keeps z * z finite.
_Z_SATURATED = 40.0
# Below s = -100 the probit curvature takes m + s from its asymptotic series:
# there the series' first omitted term is a relative 8162/s^10 < 1e-16, while
# the direct m + s loses a relative s^2 * eps to cancellation.
_MILLS_SERIES_FROM = 100.0
# Platt fits search |slope|, |offset| <= _PLATT_BOX; Newton converges when the
# projected gradient norm of the summed NLL reaches _PLATT_TOL.
_PLATT_BOX = 50.0
_PLATT_TOL = 1e-8
_PLATT_MAX_ITER = 100
# Gauss-Hermite nodes for the one link kind without a closed form, sigmoid
_GH_NODES = 128


@lru_cache(maxsize=16)
def _gh_points(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights rescaled so that sum(w * f(z)) = E f(Z), Z ~ N(0,1).

    scipy's rule stays finite at high degree, where numpy's overflows past
    ~380 nodes.
    """
    x, w = roots_hermite(nodes)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def _gauss_hermite_mean(link: LinkFunction, mean: np.ndarray, scale: float, nodes: int) -> np.ndarray:
    """E[link(mean + scale * Z)] for each entry of `mean`, of any shape, by the `nodes`-point rule.

    Entries are processed in element-wise tiles of at most
    `_blocks.TILE_FLOATS` floats, each entry's whole node sum inside one
    tile, so a value does not depend on the tiling.
    """
    z, weights = _gh_points(nodes)
    noise = z * scale
    flat = mean.ravel()
    out = np.empty(flat.size)
    for rows in row_tiles(flat.size, nodes):
        out[rows] = np.einsum("in,n->i", link(flat[rows, None] + noise), weights)
    return out.reshape(mean.shape)


def probit_closed_form(mu, s):
    """E Phi(mu + s Z) = Phi(mu / sqrt(1 + s^2)); vectorized, finite mu and s, s >= 0."""
    mu = _finite_array(mu, "probit mean mu")
    s = _finite_array(s, "noise scale s")
    if np.any(s < 0):
        raise ContractError("noise scale s must be nonnegative")
    return ndtr(mu / np.hypot(1.0, s))  # hypot: no s * s to overflow


def _clipped_linear_gaussian_mean(mu: np.ndarray, s: float):
    """E clip(mu + s Z, 0, 1) exactly, from truncated-normal first moments; s >= 0.

    The integrand is piecewise linear in Z, so the three pieces reduce to
    Phi/phi terms; a plain Gauss rule would converge only algebraically
    across the kinks (hundreds of nodes still leave ~1e-3 errors).
    """
    if s == 0.0:
        return np.clip(mu, 0.0, 1.0)
    # the expectation is exactly 0 at and below -40 s and 1 at and above 1 + 40 s: a clamp there moves no value
    bound = _Z_SATURATED * s
    if not math.isfinite(bound):
        raise ContractError(f"the clipped-relu noise scale |a| * scale is too large, got {s!r}")
    mu = np.clip(mu, -bound, 1.0 + bound)
    with np.errstate(over="ignore"):  # a tiny s saturates like any bound past 40
        lo = np.clip((0.0 - mu) / s, -_Z_SATURATED, _Z_SATURATED)
        hi = np.clip((1.0 - mu) / s, -_Z_SATURATED, _Z_SATURATED)
    density_lo = np.exp(-0.5 * lo * lo) / math.sqrt(2.0 * math.pi)
    density_hi = np.exp(-0.5 * hi * hi) / math.sqrt(2.0 * math.pi)
    return mu * (ndtr(hi) - ndtr(lo)) + s * (density_lo - density_hi) + (1.0 - ndtr(hi))


def _logits_and_labels(logits, labels, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """Matching nonempty 1-D float arrays of finite logits and 0/1 labels, or ContractError."""
    logits = _finite_array(logits, "logits")
    labels = _label_array(labels)
    if logits.ndim != 1 or logits.shape != labels.shape or logits.size == 0:
        raise ContractError(f"{caller} expects matching nonempty 1-D logits and labels")
    return logits, labels


def link_expectation(link: LinkFunction, mean, scale: float) -> np.ndarray:
    """E[link(mean + scale * Z)], Z ~ N(0, 1), for each entry of `mean`, clipped to [0, 1].

    The link's kind picks the rule: probit by the identity
    `probit_closed_form`, clipped-relu exactly by its three linear pieces,
    sigmoid by the `_GH_NODES`-point Gauss-Hermite rule. `scale` is a
    finite real >= 0.
    """
    _require_link(link)
    mean = np.atleast_1d(_finite_array(mean, "Gaussian-expectation means"))
    if not (_is_finite_real(scale) and scale >= 0):
        raise ContractError(f"Gaussian-expectation scale must be a finite real >= 0, got {scale!r}")
    scale = float(scale)  # a Python float product overflows to inf without a warning
    if link.kind == "probit":
        s = abs(link.a) * scale
        # an argument past the saturation bound gives Phi = 0 or 1 exactly, so a*mean + b
        # is clamped there, where it cannot overflow
        bound = _Z_SATURATED * math.hypot(1.0, s)
        with np.errstate(over="ignore"):
            mu = np.clip(link.a * mean + link.b, -bound, bound)
        out = probit_closed_form(mu, s)
    elif link.kind == "crelu":
        with np.errstate(over="ignore"):  # an overflowing argument saturates in the clamp
            mu = link.a * mean + link.b
        out = _clipped_linear_gaussian_mean(mu, abs(link.a) * scale)
    else:
        out = _gauss_hermite_mean(link, mean, scale, _GH_NODES)
    return np.clip(out, 0.0, 1.0)


def _checked_sigma_norm(sigma_norm) -> None:
    """ContractError unless sigma_norm is a finite real; DegenerateModel unless it is positive."""
    if not _is_finite_real(sigma_norm):
        raise ContractError(f"sigma_norm must be a finite real, got {sigma_norm!r}")
    if sigma_norm <= 0:
        raise DegenerateModel("sigma_norm must be positive")


def _checked_angle(theta, sigma_norm) -> float:
    """theta as a float clamped to [0, pi], after validating it as a real in [0, pi] and sigma_norm."""
    if not (_is_finite_real(theta) and -1e-12 <= theta <= math.pi + 1e-12):
        raise ContractError(f"theta must be a real in [0, pi], got {theta!r}")
    _checked_sigma_norm(sigma_norm)
    return min(max(float(theta), 0.0), math.pi)


def angular_predict(u, theta: float, sigma_norm: float, link: LinkFunction):
    """Evaluate the angular predictor at logits u (scalar or array).

    Monotone nondecreasing in u whenever the link is nondecreasing and
    theta < pi/2; constant at theta = pi/2. Exact for probit and
    clipped-relu links (see `link_expectation`).
    """
    theta = _checked_angle(theta, sigma_norm)
    u = _finite_array(u, "logits")
    with np.errstate(over="ignore"):  # an overflowing mean saturates like the largest finite one
        mean = np.clip(math.cos(theta) * u / sigma_norm, -np.finfo(float).max, np.finfo(float).max)
    out = link_expectation(link, mean, math.sin(theta))
    return float(out[0]) if u.ndim == 0 else out


def theoretical_AB(theta: float, sigma_norm: float, a: float, b: float) -> tuple[float, float]:
    """The (slope, offset) pair at which a probit-family Platt map equals
    the angular predictor exactly.

    slope  = cos(theta) / (sigma_norm * sqrt(1 + a^2 sin^2(theta)))
    offset = (b/a) * (1 / sqrt(1 + a^2 sin^2(theta)) - 1)
    """
    if not (_is_finite_real(a) and _is_finite_real(b)):
        raise ContractError(f"link parameters must be finite reals, got a={a!r}, b={b!r}")
    if a == 0:
        raise ContractError("link slope a must be nonzero")
    theta = _checked_angle(theta, sigma_norm)
    sin_theta = math.sin(theta)
    # at shrink = 1 the offset is a signed zero, spelled out: a * a or b / a may overflow there
    shrink = math.sqrt(1.0 + a * a * sin_theta**2) if sin_theta else 1.0
    offset = (b / a) * (1.0 / shrink - 1.0) if shrink != 1.0 else math.copysign(0.0, b / a)
    return math.cos(theta) / (sigma_norm * shrink), offset


def chance_value(link: LinkFunction) -> float:
    """The non-informative constant E[link(Z)], Z ~ N(0,1)."""
    return float(link_expectation(link, 0.0, 1.0)[0])


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------


def _probit_curvature(s, m):
    """m (m + s), the curvature of -log Phi at s, which lies in (0, 1); m = phi(s)/Phi(s).

    As s -> -inf, m ~ -s and m + s cancels, so below -_MILLS_SERIES_FROM the
    curvature is x r + r^2 with x = -s, r = m + s and x r from the asymptotic
    series 1 - 2/x^2 + 10/x^4 - 74/x^6 + 706/x^8; that sum never rounds above 1.
    """
    tail = s <= -_MILLS_SERIES_FROM
    inv = 1.0 / np.where(tail, -s, _MILLS_SERIES_FROM)
    u = inv * inv
    xr = 1.0 - u * (2.0 - u * (10.0 - u * (74.0 - 706.0 * u)))
    r = inv * xr
    return np.where(tail, xr + r * r, m * (m + s))


def _platt_pointwise(kind: str, t: np.ndarray, y: np.ndarray):
    """Per-point NLL value/gradient/curvature in the pre-squash argument t."""
    if kind == "sigmoid":
        return logistic_loss_derivatives(y, t)
    if kind == "probit":
        # inverse Mills ratio phi(s)/Phi(s) through the scaled complementary
        # error function, which neither cancels nor overflows as s -> -inf
        def mills(s):
            return _SQRT_2_OVER_PI / erfcx(-s / math.sqrt(2.0))

        value = -y * log_ndtr(t) - (1.0 - y) * log_ndtr(-t)
        m_pos, m_neg = mills(t), mills(-t)
        grad = -y * m_pos + (1.0 - y) * m_neg
        curv = y * _probit_curvature(t, m_pos) + (1.0 - y) * _probit_curvature(-t, m_neg)
        return value, grad, curv
    # crelu: linear region contributes Bernoulli NLL curvature, flats nothing
    p = np.clip(t, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    value = -y * np.log(p) - (1.0 - y) * np.log(1.0 - p)
    inside = (t > 0.0) & (t < 1.0)
    grad = np.where(inside, -y / p + (1.0 - y) / (1.0 - p), 0.0)
    curv = np.where(inside, y / p**2 + (1.0 - y) / (1.0 - p) ** 2, 0.0)
    return value, grad, curv


_PROBE_DIRECTIONS = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float
)
_PROBE_STEPS = (1e-2, 1e-4, 1e-6, 1e-8)
# Doubling from 1e-10 * scale, 64 tries reach ~1e9 * scale: any finite
# Hessian is diagonally dominant long before that.
_MAX_JITTER_TRIES = 64


def _probe_descent(objective, params, obj):
    """Best improving neighbor of params along fixed directions, or None."""
    best = None
    for rel in _PROBE_STEPS:
        step = rel * max(1.0, float(np.max(np.abs(params))))
        for direction in _PROBE_DIRECTIONS:
            cand = np.clip(params + step * direction, -_PLATT_BOX, _PLATT_BOX)
            cand_obj = objective(cand)
            if np.isfinite(cand_obj) and cand_obj < obj and (best is None or cand_obj < best[1]):
                best = (cand, cand_obj)
    return best


def _platt_newton(objective, nll_parts, logits, a):
    """Projected damped Newton for the smooth (convex) Platt families."""
    params = np.array([1.0, 0.0])
    obj = objective(params)

    def projected_grad_norm(p, grad):
        pg = grad.copy()
        at_hi = (p >= _PLATT_BOX) & (grad < 0)
        at_lo = (p <= -_PLATT_BOX) & (grad > 0)
        pg[at_hi | at_lo] = 0.0
        return float(np.linalg.norm(pg))

    def newton_system(p):
        """Gradient and Hessian of the summed NLL in (slope, offset)."""
        _, grad_t, curv_t = nll_parts(p)
        grad = np.array([a * float(grad_t @ logits), a * float(np.sum(grad_t))])
        h11 = a * a * float(curv_t @ (logits * logits))
        h12 = a * a * float(curv_t @ logits)
        h22 = a * a * float(np.sum(curv_t))
        return grad, np.array([[h11, h12], [h12, h22]])

    for _ in range(_PLATT_MAX_ITER):
        if not np.isfinite(obj):
            raise FitError("Platt objective became non-finite")
        grad, hess = newton_system(params)
        if projected_grad_norm(params, grad) <= _PLATT_TOL:
            return params
        jitter = 0.0
        scale = max(abs(hess[0, 0]), abs(hess[1, 1]), 1.0)
        for _ in range(_MAX_JITTER_TRIES):
            try:
                step = np.linalg.solve(hess + jitter * np.eye(2), -grad)
                if np.all(np.isfinite(step)):
                    break
            except np.linalg.LinAlgError:
                pass
            jitter = max(2.0 * jitter, 1e-10 * scale)
        else:
            raise FitError("Platt Newton system has no finite solution (non-finite curvature)")
        t = 1.0
        for _ in range(60):
            cand = np.clip(params + t * step, -_PLATT_BOX, _PLATT_BOX)
            cand_obj = objective(cand)
            if np.isfinite(cand_obj) and cand_obj < obj:
                params, obj = cand, cand_obj
                break
            t *= 0.5
        else:
            break  # no decrease at any step size: numerically stationary

    grad, hess = newton_system(params)
    pnorm = projected_grad_norm(params, grad)
    if pnorm <= _PLATT_TOL:
        return params
    # A stalled line search on a smooth strictly convex objective means the
    # remaining improvement is below float64 resolution; accept when the
    # Newton decrement confirms it (summed NLLs make _PLATT_TOL unreachable
    # for very large holdouts even though the parameters are exact).
    if hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[0, 1] > 0:
        decrement = 0.5 * float(grad @ np.linalg.solve(hess, grad))
        if decrement <= 64.0 * np.finfo(float).eps * (1.0 + abs(obj)):
            return params
    raise FitError(
        f"Platt Newton did not converge (projected gradient norm {pnorm:.3e} > {_PLATT_TOL:g})"
    )


def _platt_kinked(objective):
    """Simplex search for the clipped-relu family, whose NLL has kinks and
    near-vertical log walls; convergence means no probed descent direction."""
    from scipy.optimize import minimize  # here, not at module level: it slows every CLI start

    params = np.array([1.0, 0.0])
    obj = objective(params)
    for _ in range(4):
        result = minimize(
            objective,
            params,
            method="Nelder-Mead",
            bounds=[(-_PLATT_BOX, _PLATT_BOX)] * 2,
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000, "maxfev": 4000},
        )
        cand = np.clip(result.x, -_PLATT_BOX, _PLATT_BOX)
        cand_obj = objective(cand)
        if np.isfinite(cand_obj) and cand_obj < obj:
            params, obj = cand, cand_obj
        improved = _probe_descent(objective, params, obj)
        if improved is None:
            return params
        params, obj = improved
    raise FitError("Platt simplex search kept finding descent directions; no stable optimum")


def platt_fit(logits: np.ndarray, labels: np.ndarray, family: LinkFunction) -> tuple[float, float]:
    """Fit (slope, offset) minimizing the holdout NLL of u -> family(slope*u + offset).

    The search is constrained to the square |slope|, |offset| <= 50.
    Sigmoid and probit families have smooth convex objectives and use
    projected damped Newton, converging when the projected gradient norm
    of the summed NLL drops to 1e-8 within 100 iterations. The
    clipped-relu family is only piecewise smooth (its optimum can sit at a
    kink where the gradient jumps), so it uses a bounded simplex search
    instead and declares convergence when no probed direction improves
    the objective.
    """
    _require_link(family)
    logits, labels = _logits_and_labels(logits, labels, "platt_fit")
    if np.all(labels == labels[0]):
        raise DegenerateHoldout("holdout labels are all identical; slope is unidentifiable")

    a, b = family.a, family.b

    def nll_parts(p):
        t = a * (p[0] * logits + p[1]) + b
        return _platt_pointwise(family.kind, t, labels)

    def objective(p) -> float:
        return float(np.sum(nll_parts(p)[0]))

    # Candidates past the float range evaluate to inf or nan (a probit Mills
    # ratio at t = -inf divides by erfcx(inf) = 0), which both searches
    # reject and on which Newton fails with FitError.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family.kind == "crelu":
            params = _platt_kinked(objective)
        else:
            params = _platt_newton(objective, nll_parts, logits, a)
    return float(params[0]), float(params[1])


# ---------------------------------------------------------------------------
# Isotonic regression
# ---------------------------------------------------------------------------


def _pav_nondecreasing(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted least-squares nondecreasing fit by pool-adjacent-violators."""
    level_value: list[float] = []
    level_weight: list[float] = []
    level_len: list[int] = []
    for v, w in zip(values, weights):
        cur_v, cur_w, cur_len = float(v), float(w), 1
        while level_value and level_value[-1] > cur_v:
            pv, pw = level_value.pop(), level_weight.pop()
            cur_v = (pv * pw + cur_v * cur_w) / (pw + cur_w)
            cur_w += pw
            cur_len += level_len.pop()
        level_value.append(cur_v)
        level_weight.append(cur_w)
        level_len.append(cur_len)
    return np.repeat(level_value, level_len)


# ---------------------------------------------------------------------------
# Calibrators: one frozen type per kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uncalibrated:
    """The raw link on the logit."""

    link: LinkFunction

    def __post_init__(self):
        _require_link(self.link)

    def __call__(self, u):
        return self.link(u)

    def params(self) -> dict:
        return {"kind": "uncalibrated", "link": self.link.label()}


@dataclass(frozen=True)
class Angular:
    """The angular predictor (`angular_predict`) at a fixed angle."""

    theta: float
    sigma_norm: float
    link: LinkFunction

    def __post_init__(self):
        object.__setattr__(self, "theta", _checked_angle(self.theta, self.sigma_norm))
        _require_link(self.link)

    def __call__(self, u):
        return angular_predict(u, self.theta, self.sigma_norm, self.link)

    def params(self) -> dict:
        return {"kind": "angular", "theta": self.theta, "sigma_norm": self.sigma_norm, "link": self.link.label()}


@dataclass(frozen=True)
class Platt:
    """u -> family(slope * u + offset), as fitted by `platt_fit`; slope and offset are finite reals, kept as floats."""

    slope: float
    offset: float
    family: LinkFunction

    def __post_init__(self):
        if not (_is_finite_real(self.slope) and _is_finite_real(self.offset)):
            raise ContractError(f"Platt slope and offset must be finite reals, got {self.slope!r} and {self.offset!r}")
        _require_link(self.family)
        object.__setattr__(self, "slope", float(self.slope))
        object.__setattr__(self, "offset", float(self.offset))

    def __call__(self, u):
        with np.errstate(over="ignore"):  # an overflowing argument squashes to 0 or 1
            return self.family(self.slope * u + self.offset)

    def params(self) -> dict:
        return {"kind": "platt", "slope": self.slope, "offset": self.offset, "family": self.family.label()}


@dataclass(frozen=True, eq=False)
class Isotonic:
    """Left-closed step map from `isotonic_fit`; equal only to itself, never by its arrays."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breakpoints = _finite_array(self.breakpoints, "isotonic breakpoints")
        values = _finite_array(self.values, "isotonic values")
        if breakpoints.ndim != 1 or breakpoints.shape != values.shape or breakpoints.size == 0:
            raise ContractError("isotonic calibrator needs matching nonempty breakpoints/values")
        if np.any(np.diff(breakpoints) <= 0):
            raise ContractError("isotonic breakpoints must be strictly increasing")
        if np.any(np.diff(values) < 0) or values.min() < 0 or values.max() > 1:
            raise ContractError("isotonic values must be nondecreasing within [0, 1]")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)

    def __call__(self, u):
        idx = np.searchsorted(self.breakpoints, u, side="right") - 1
        return self.values[np.clip(idx, 0, self.values.size - 1)]

    def params(self) -> dict:
        """Large step maps are abbreviated to their value range."""
        out = {"kind": "isotonic", "n_blocks": int(self.breakpoints.size)}
        if self.breakpoints.size <= 64:
            out["breakpoints"] = [float(v) for v in self.breakpoints]
            out["values"] = [float(v) for v in self.values]
        else:
            out["value_range"] = [float(self.values[0]), float(self.values[-1])]
        return out


@dataclass(frozen=True)
class Chance:
    """The constant non-informative prediction `chance_value(link)`."""

    link: LinkFunction
    value: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "value", chance_value(self.link))

    def __call__(self, u):
        return np.full(np.shape(u), self.value)

    def params(self) -> dict:
        return {"kind": "chance", "value": self.value, "link": self.link.label()}


Calibrator = Union[Uncalibrated, Angular, Platt, Isotonic, Chance]


def isotonic_fit(logits: np.ndarray, labels: np.ndarray) -> Isotonic:
    """Least-squares nondecreasing fit of labels against logits.

    Exactly tied logits are pooled (weighted by multiplicity) before
    running pool-adjacent-violators, so the result is a function of the
    logit value. Prediction is the step function constant on blocks,
    left-closed, extended constantly beyond the extreme breakpoints. Only
    the first logit of each level (a maximal run of one fitted value) is
    kept as a breakpoint, so the calibrator holds one entry per level.
    """
    logits, labels = _logits_and_labels(logits, labels, "isotonic_fit")
    unique, inverse, counts = np.unique(logits, return_inverse=True, return_counts=True)
    means = np.bincount(inverse, weights=labels) / counts
    fitted = _pav_nondecreasing(means, counts.astype(np.float64))
    starts = np.flatnonzero(np.diff(fitted, prepend=-np.inf))
    return Isotonic(unique[starts], fitted[starts])


def calibrate(cal: Calibrator, u):
    """Map logits to probabilities under any calibrator; vectorized."""
    u = _finite_array(u, "logits")
    out = np.clip(cal(np.atleast_1d(u)), 0.0, 1.0)
    return float(out[0]) if u.ndim == 0 else out
