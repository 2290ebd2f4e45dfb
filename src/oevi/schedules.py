"""Closed-form stepsize policies (gamma_t, lambda_t, theta_t) and their validator.

Each solver variant has one or more named policies.  A policy produces the
per-iteration triple (gamma_t, lambda_t, theta_t): gamma is the stepsize,
lambda the operator-extrapolation weight, and theta the aggregation weight
used by the convergence analysis and the weighted-average outputs.  theta can
grow geometrically and overflow double precision long before 10^4 iterations,
so policies expose log(theta) and the validator works in log space
throughout (an absolute difference of log values is a relative difference of
the underlying quantities).

The validator checks, per policy, exactly the side conditions its convergence
guarantee requires.  Conditions that involve lambda_t at t = 1 are vacuous,
because runs start with x_0 = x_1 and the first extrapolation difference is
identically zero; they are checked from t = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .geometry import in_range

_EPS = np.finfo(float).eps
_ROOT_MAX = math.sqrt(np.finfo(float).max)  # the largest constant whose square is a double

# Condition identifiers (validator report keys).
COUPLING = "coupling"                      # theta_{t+1} gamma_{t+1} lambda_{t+1} = theta_t gamma_t * b
EXTRAP_DET = "extrap_weight_det"           # theta_{t-1} >= 4 L^2  theta_t gamma_t^2 lambda_t^2
EXTRAP_PLAIN = "extrap_weight_plain"       # theta_{t-1} >= 9 L^2  theta_t gamma_t^2 lambda_t^2
EXTRAP_STOCH = "extrap_weight_stoch"       # theta_{t-1} >= 16 L^2 theta_t gamma_t^2 lambda_t^2
EXTRAP_BLOCK = "extrap_weight_block"       # theta_{t-1} >= 4 Lbar^2  theta_t gamma_t^2 lambda_t^2
EXTRAP_BLOCK_MVI = "extrap_weight_block_mvi"  # theta_{t-1} >= 16 Lbar^2 theta_t gamma_t^2 lambda_t^2
THETA_GROWTH = "theta_growth"              # theta_t <= theta_{t-1} (1 + 2 mu gamma_{t-1})
THETA_GROWTH_BLOCK = "theta_growth_block"  # theta_t (1 + 2 mu (b-1) gamma_t / b) <= theta_{t-1} (1 + 2 mu gamma_{t-1})
FINAL_DET = "final_step_det"               # L^2 gamma_k^2 <= 1/2
FINAL_STOCH = "final_step_stoch"           # 8 L^2 gamma_k^2 <= 1
FINAL_BLOCK = "final_step_block"           # 4 L^2 gamma_k^2 <= 1
WEIGHT_ORDER = "weight_ordering"           # theta_{t-1} gamma_{t-1} b >= theta_t gamma_t (b-1)
THETA_NONINC = "theta_nonincreasing"
THETA_NONDEC = "theta_nondecreasing"


@dataclass
class ScheduleTable:
    """Vectorized policy values for t = 1..k.

    Arrays are indexed by t; index 0 holds the t = 0 "prehistory" values
    (theta_0 and gamma_0 evaluated from the same formulas) that first-step
    side conditions refer to.  ``epoch_start[t]`` marks iterations where a
    restart policy resets its local index (lambda_t = 0 there, and the
    coupling identity is intentionally not claimed).
    """

    gamma: np.ndarray
    lam: np.ndarray
    log_theta: np.ndarray
    batch: np.ndarray
    epoch_start: np.ndarray

    def theta(self, t: int) -> float:
        """theta_t = exp(log theta_t), or inf once log theta_t exceeds 700
        (exp overflows a double just below 710)."""
        lt = float(self.log_theta[t])
        return math.inf if lt > 700.0 else math.exp(lt)


class Schedule:
    """Base class: a named policy, evaluated for t = 0..k by ``table(k)``."""

    name: str = ""
    conditions: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    # constants the policy was built from (used by the validator and bounds)
    L: float = math.nan
    mu: float = 0.0
    sigma: float = 0.0
    V1: float = math.nan
    b: int = 1
    Lbar: float = math.nan

    def table(self, k: int) -> ScheduleTable:
        raise NotImplementedError

    def _set_constants(self, *, mu_le_L: bool = False, **constants: float):
        """Store each named constant as a float after checking that it is
        positive and finite, and with ``mu_le_L`` that mu does not exceed L."""
        for name, value in constants.items():
            setattr(self, name, float(in_range(name, value)))
        if mu_le_L:
            in_range("mu", self.mu, high=self.L)


def _table(k: int, gamma, lam, log_theta, epoch_start=None) -> ScheduleTable:
    """Table for t = 0..k from scalars or length-(k+1) arrays.  lambda_0 is
    undefined (nan), one sample is drawn per step from t = 1 on, and by
    default no step restarts an epoch."""
    tab = ScheduleTable(
        gamma=np.full(k + 1, gamma, dtype=float),
        lam=np.full(k + 1, lam, dtype=float),
        log_theta=np.full(k + 1, log_theta, dtype=float),
        batch=np.ones(k + 1, dtype=int),
        epoch_start=np.zeros(k + 1, dtype=bool) if epoch_start is None else epoch_start,
    )
    tab.lam[0] = np.nan
    tab.batch[0] = 0
    return tab


def _const_table(k: int, gamma: float, lam: float, log_ratio: float) -> ScheduleTable:
    """Table for policies with constant gamma, lambda and theta_t = exp(t * log_ratio)."""
    return _table(k, gamma, lam, np.arange(k + 1, dtype=float) * log_ratio)


def _decreasing(mu: float, t0: float, t):
    """Decreasing-policy stepsize gamma_t = 1/(mu (t0 + t - 1)) and weight
    theta_t = (t + t0 + 1)(t + t0), elementwise in t."""
    return 1.0 / (mu * (t0 + t - 1.0)), (t + t0 + 1.0) * (t + t0)


def _coupled_lam(gamma: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """lambda_t = theta_{t-1} gamma_{t-1} / (theta_t gamma_t) for t = 1..len-1."""
    return (theta[:-1] * gamma[:-1]) / (theta[1:] * gamma[1:])


class OEGsmviSchedule(Schedule):
    """Linear-rate policy for generalized strongly monotone problems:
    gamma = 1/(2L), lambda = (mu/L + 1)^-1, theta_t = (mu/L + 1)^t."""

    name = "OE-GSMVI"
    conditions = (COUPLING, EXTRAP_DET, THETA_GROWTH, FINAL_DET)

    def __init__(self, L: float, mu: float):
        self._set_constants(L=L, mu=mu, mu_le_L=True)

    def table(self, k):
        return _const_table(k, 1.0 / (2.0 * self.L), self.L / (self.mu + self.L),
                            math.log1p(self.mu / self.L))


class OEGmviSchedule(Schedule):
    """Merely (generalized) monotone problems: gamma = 1/(3L), lambda = theta = 1."""

    name = "OE-GMVI"
    conditions = (COUPLING, EXTRAP_PLAIN)

    def __init__(self, L: float):
        self._set_constants(L=L)

    def table(self, k):
        return _const_table(k, 1.0 / (3.0 * self.L), 1.0, 0.0)


class OEMviSchedule(Schedule):
    """Monotone problems, averaged output: gamma = 1/(2L), lambda = theta = 1."""

    name = "OE-MVI"
    conditions = (COUPLING, EXTRAP_DET, FINAL_DET, THETA_NONINC)

    def __init__(self, L: float):
        self._set_constants(L=L)

    def table(self, k):
        return _const_table(k, 1.0 / (2.0 * self.L), 1.0, 0.0)


class SoeDecreasingSchedule(Schedule):
    """Stochastic strongly monotone problems, horizon-free decreasing stepsizes:
    t0 = 4L/mu, gamma_t = 1/(mu (t0 + t - 1)), theta_t = (t + t0 + 1)(t + t0),
    lambda_t = theta_{t-1} gamma_{t-1} / (theta_t gamma_t)."""

    name = "SOE-1"
    conditions = (COUPLING, EXTRAP_STOCH, THETA_GROWTH, FINAL_STOCH)

    def __init__(self, L: float, mu: float):
        self._set_constants(L=L, mu=mu, mu_le_L=True)
        self.t0 = 4.0 * self.L / self.mu

    def table(self, k):
        gamma, theta = _decreasing(self.mu, self.t0, np.arange(k + 1, dtype=float))
        return _table(k, gamma, np.r_[np.nan, _coupled_lam(gamma, theta)], np.log(theta))


class SoeConstantSchedule(Schedule):
    """Stochastic strongly monotone problems with a known horizon k:
    constant gamma = min{1/(4L), q log(k)/(mu k)} with
    q = 1 + log(mu^2 V1 / sigma^2)/log(k), theta_t = (2 mu gamma + 1)^t,
    lambda = 1/(2 mu gamma + 1).

    q is clamped below at 1e-3 so gamma stays positive when the noise
    dominates mu^2 V1; the validator reports the clamp as a note.
    """

    name = "SOE-2"
    conditions = (COUPLING, EXTRAP_STOCH, THETA_GROWTH, FINAL_STOCH)
    Q_FLOOR = 1e-3

    def __init__(self, L: float, mu: float, sigma: float, V1: float, k: int):
        self._set_constants(L=L, mu=mu, sigma=sigma, V1=V1, mu_le_L=True)
        for key in ("mu", "sigma"):  # q squares both
            in_range(key, getattr(self, key), high=_ROOT_MAX)
        self.k = int(in_range("k", k, 2, closed=True))
        q = 1.0 + math.log(self.mu**2 * self.V1 / self.sigma**2) / math.log(self.k)
        self.q_clamped = q < self.Q_FLOOR
        self.q = max(q, self.Q_FLOOR)
        if self.q_clamped:
            self.notes = (f"q = {q:.3e} clamped to {self.Q_FLOOR}",)
        self.gamma = min(1.0 / (4.0 * self.L), self.q * math.log(self.k) / (self.mu * self.k))

    def table(self, k):
        r = 2.0 * self.mu * self.gamma + 1.0
        return _const_table(k, self.gamma, 1.0 / r, math.log1p(2.0 * self.mu * self.gamma))


class SoeRestartSchedule(Schedule):
    """Epoch-restarted decreasing stepsizes (optimal stochastic GSMVI rate).

    Epoch s has length k_s = ceil(max{(2 sqrt(2) - 1) t0 + 4,
    2^(s+6) sigma^2/(mu^2 V1)}); within an epoch the decreasing policy runs on
    the local index, with lambda = 0 on the first step of each epoch.  The
    noise ratio sigma^2/(mu^2 V1) may be replaced by a user estimate
    (``noise_ratio``), defaulting to the supplied sigma and V1.  Every epoch
    length up to epoch 8, the last any caller reads, must be finite.
    """

    name = "SOE-3"
    conditions = (COUPLING, EXTRAP_STOCH, THETA_GROWTH, FINAL_STOCH)

    def __init__(self, L: float, mu: float, sigma: float = 1.0, V1: float = 1.0,
                 noise_ratio: float | None = None):
        self._set_constants(L=L, mu=mu, sigma=sigma, V1=V1, mu_le_L=True)
        self.t0 = float(in_range("4 L / mu", 4.0 * self.L / self.mu, high=np.finfo(float).max / 2))
        self.noise_ratio = float(in_range("noise_ratio", (
            noise_ratio if noise_ratio is not None
            else self.sigma**2 / (self.mu**2 * self.V1)), high=np.finfo(float).max / 2**14))

    def epoch_length(self, s: int) -> int:
        base = (2.0 * math.sqrt(2.0) - 1.0) * self.t0 + 4.0
        return int(math.ceil(max(base, 2.0 ** (s + 6) * self.noise_ratio)))

    def epoch_ends(self, num: int) -> list[int]:
        """Cumulative iteration counts K_1..K_num (epoch boundaries)."""
        return list(accumulate(self.epoch_length(s) for s in range(1, num + 1)))

    def table(self, k):
        gamma = np.empty(k + 1)
        lam = np.empty(k + 1)
        log_theta = np.empty(k + 1)
        epoch_start = np.zeros(k + 1, dtype=bool)
        # prehistory from the first epoch's local formulas at local index 0
        gamma[0], theta0 = _decreasing(self.mu, self.t0, 0.0)
        log_theta[0] = math.log(theta0)
        start, s = 0, 1
        while start < k:
            stop = min(start + self.epoch_length(s), k)
            g, th = _decreasing(self.mu, self.t0, np.arange(1, stop - start + 1, dtype=float))
            sl = slice(start + 1, stop + 1)
            gamma[sl], lam[sl], log_theta[sl] = g, np.r_[0.0, _coupled_lam(g, th)], np.log(th)
            epoch_start[start + 1] = True
            start, s = stop, s + 1
        return _table(k, gamma, lam, log_theta, epoch_start)


class SoeGmviSchedule(Schedule):
    """Stochastic merely-monotone problems with horizon k: gamma = 1/(4L),
    lambda = theta = 1, mini-batch m = k + 1 per step."""

    name = "SOE-4"
    conditions = (COUPLING, EXTRAP_STOCH, FINAL_STOCH, THETA_NONDEC)

    def __init__(self, L: float, k: int):
        self._set_constants(L=L)
        self.k = int(in_range("k", k, 1, closed=True))

    def table(self, k):
        tab = _const_table(k, 1.0 / (4.0 * self.L), 1.0, 0.0)
        tab.batch[1:] = self.k + 1
        return tab


class SoeMviSchedule(Schedule):
    """Stochastic monotone problems, tail-averaged output: gamma_t = 1/(L sqrt(t)),
    theta = 1, lambda_t = gamma_{t-1}/gamma_t (coupling identity), lambda_1 = 0.

    The stepsize-squared extrapolation condition of the underlying guarantee
    cannot hold at small t for this stepsize (16 L^2 gamma_{t-1}^2 = 16/(t-1)
    exceeds 1 for t <= 16), so the validated set is the coupling identity,
    theta monotonicity, and the final-step bound.
    """

    name = "SOE-MVI"
    conditions = (COUPLING, THETA_NONINC, FINAL_STOCH)

    def __init__(self, L: float):
        self._set_constants(L=L)

    def table(self, k):
        t = np.arange(k + 1, dtype=float)
        with np.errstate(divide="ignore"):
            gamma = 1.0 / (self.L * np.sqrt(t))
        gamma[0] = np.nan
        # lambda_1 = 0 is a deliberate restart-style first step
        return _table(k, gamma, np.r_[np.nan, 0.0, gamma[1:-1] / gamma[2:]], 0.0,
                      epoch_start=t == 1)


class SboeGsmviSchedule(Schedule):
    """Block policy for strongly monotone problems: gamma = 1/(2 Lbar b),
    lambda = (b + 2 (b-1) mu gamma)/(1 + 2 mu gamma),
    theta_t = ((1 + 2 mu gamma)/(1 + 2 mu gamma (b-1)/b))^t."""

    name = "SBOE-GSMVI"
    conditions = (COUPLING, EXTRAP_BLOCK, THETA_GROWTH_BLOCK, WEIGHT_ORDER, FINAL_BLOCK)

    def __init__(self, Lbar: float, b: int, mu: float, L: float | None = None):
        self._set_constants(Lbar=Lbar, mu=mu)
        self.b = int(in_range("b", b, 1, closed=True))
        # full-operator Lipschitz constant, used only by the final-step check
        self._set_constants(L=self.Lbar * math.sqrt(self.b) if L is None else L)
        self.gamma = 1.0 / (2.0 * self.Lbar * self.b)

    def _log_ratio(self):
        g = self.gamma
        return math.log1p(2.0 * self.mu * g) - math.log1p(2.0 * self.mu * g * (self.b - 1) / self.b)

    def table(self, k):
        g = self.gamma
        lam = (self.b + 2.0 * (self.b - 1) * self.mu * g) / (1.0 + 2.0 * self.mu * g)
        return _const_table(k, g, lam, self._log_ratio())


class SboeMviSchedule(Schedule):
    """Block policy for monotone problems: gamma = 1/(4 Lbar b), lambda = b, theta = 1."""

    name = "SBOE-MVI"
    conditions = (COUPLING, EXTRAP_BLOCK_MVI, WEIGHT_ORDER, FINAL_BLOCK, THETA_NONINC)

    def __init__(self, Lbar: float, b: int, L: float | None = None):
        self._set_constants(Lbar=Lbar)
        self.b = int(in_range("b", b, 1, closed=True))
        self._set_constants(L=self.Lbar * math.sqrt(self.b) if L is None else L)

    def table(self, k):
        return _const_table(k, 1.0 / (4.0 * self.Lbar * self.b), float(self.b), 0.0)


class SaSchedule(Schedule):
    """Stochastic-approximation baseline (no extrapolation).

    With ``parity_offset`` (default) the stepsize is gamma_t = 1/(mu (t + t0)),
    t0 = 4L/mu, matching the decreasing extrapolation policy's scale from the
    first step.  Without it, gamma_t = 1/(mu t): the textbook Robbins-Monro
    policy, whose huge early steps are the classic weakness the benchmark
    comparisons exhibit.
    """

    name = "SA"
    conditions = ()
    notes = ("baseline policy; no side conditions claimed",)

    def __init__(self, L: float, mu: float, parity_offset: bool = True):
        self._set_constants(L=L, mu=mu)
        self.parity_offset = parity_offset
        self.t0 = 4.0 * self.L / self.mu if parity_offset else 0.0
        if not parity_offset:
            self.name = "SA-RM"
            self.notes = ("classic Robbins-Monro stepsize; no side conditions claimed",)

    def table(self, k):
        t = np.arange(k + 1, dtype=float)
        with np.errstate(divide="ignore"):
            gamma = 1.0 / (self.mu * (t + self.t0))
        if not self.parity_offset:
            gamma[0] = np.nan
        # every step restarts: the baseline never claims the coupling identity
        return _table(k, gamma, 0.0, 0.0, epoch_start=t > 0)


@dataclass(frozen=True)
class Policy:
    """One named policy: ``build`` makes its schedule from the keyword
    constants of ``make_schedule``, ``source`` says where a run's operator
    values come from: ``"exact"`` (the operator itself), ``"oracle"``
    (mini-batch estimates) or ``"block"`` (one randomly drawn block per step),
    and ``reads`` names the overrides besides L that its schedule, run or bound
    check reads; the harness refuses any other."""

    build: Callable[..., Schedule]
    source: str
    reads: tuple[str, ...] = ()


def _horizon(name: str, k: int | None) -> int:
    if k is None:
        raise ValueError(f"{name} needs the horizon k")
    return k


# Every policy, by the name the harness and the CLI speak.  SA-RM is the
# no-offset classic Robbins-Monro baseline used by the qualitative comparisons.
POLICIES: dict[str, Policy] = {
    "OE-GSMVI": Policy(lambda L, mu, **_: OEGsmviSchedule(L, mu), "exact", ("mu",)),
    "OE-GMVI": Policy(lambda L, **_: OEGmviSchedule(L), "exact"),
    "OE-MVI": Policy(lambda L, **_: OEMviSchedule(L), "exact"),
    "SOE-1": Policy(lambda L, mu, **_: SoeDecreasingSchedule(L, mu), "oracle",
                    ("m", "mu", "sigma")),
    "SOE-2": Policy(lambda L, mu, sigma, V1, k, **_: SoeConstantSchedule(
        L, mu, sigma, V1, _horizon("SOE-2", k)), "oracle", ("m", "mu", "sigma", "V1")),
    # the noise ratio sigma^2/(mu^2 V1) is rarely known; the default harness
    # estimate is 1 (override with an honest value when checking the
    # epoch-halving bound), so V1 is never read
    "SOE-3": Policy(lambda L, mu, sigma, V1, noise_ratio, **_: SoeRestartSchedule(
        L, mu, sigma if sigma > 0 else 1.0, V1,
        noise_ratio=noise_ratio if noise_ratio is not None else 1.0), "oracle",
        ("m", "mu", "sigma", "noise_ratio")),
    "SOE-4": Policy(lambda L, k, **_: SoeGmviSchedule(L, _horizon("SOE-4", k)), "oracle",
                    ("m", "sigma")),
    "SOE-MVI": Policy(lambda L, **_: SoeMviSchedule(L), "oracle", ("m", "sigma")),
    "SBOE-GSMVI": Policy(lambda L, mu, b, Lbar, **_: SboeGsmviSchedule(Lbar, b, mu, L=L),
                         "block", ("mu",)),
    "SBOE-MVI": Policy(lambda L, b, Lbar, **_: SboeMviSchedule(Lbar, b, L=L), "block"),
    "SA": Policy(lambda L, mu, **_: SaSchedule(L, mu), "oracle", ("m", "mu")),
    "SA-RM": Policy(lambda L, mu, **_: SaSchedule(L, mu, parity_offset=False), "oracle",
                    ("m", "mu")),
}
POLICY_NAMES = tuple(POLICIES)


def check_constants(*, b: int = 1, **constants) -> None:
    """The range of every constant ``make_schedule`` takes, read by its policy or not:
    b >= 1, mu and sigma >= 0, the others > 0, all finite; None is not checked."""
    in_range("b", b, 1, closed=True)
    for key, value in constants.items():
        if value is not None:
            in_range(key, value, closed=key in ("mu", "sigma"))


def make_schedule(
    name: str,
    *,
    L: float,
    mu: float = 0.0,
    sigma: float = 0.0,
    V1: float = 1.0,
    k: int | None = None,
    b: int = 1,
    Lbar: float | None = None,
    noise_ratio: float | None = None,
) -> Schedule:
    """Build a policy by its CLI name from problem constants.

    ``k`` is required by horizon-dependent policies (SOE-2, SOE-4); block
    policies use ``Lbar`` (defaulting to L) and ``b``.  A constant out of its
    range (``check_constants``, then the policy's own) raises ``ValueError``.
    """
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}")
    check_constants(L=L, mu=mu, sigma=sigma, V1=V1, b=b, Lbar=Lbar, noise_ratio=noise_ratio)
    return POLICIES[name].build(L=L, mu=mu, sigma=sigma, V1=V1, k=k, b=b,
                                Lbar=L if Lbar is None else Lbar, noise_ratio=noise_ratio)


# ---------------------------------------------------------------------------
# Validator
# ---------------------------------------------------------------------------


@dataclass
class ConditionResult:
    name: str
    passed: bool
    first_violation_t: int | None = None
    worst_violation: float = 0.0


@dataclass
class ValidationReport:
    policy: str
    results: dict[str, ConditionResult] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def summary(self) -> str:
        lines = [f"policy {self.policy}: {'PASS' if self.passed else 'FAIL'}"]
        for r in self.results.values():
            if r.passed:
                lines.append(f"  {r.name}: pass")
            else:
                lines.append(
                    f"  {r.name}: FAIL at t={r.first_violation_t} "
                    f"(violation {r.worst_violation:.3e})"
                )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# relative slack of the log-space inequalities
_SLACK = 1e-10

# theta_{t-1} >= coef lip^2 theta_t gamma_t^2 lambda_t^2: (coef, lip is Lbar rather than L)
_EXTRAP = {EXTRAP_DET: (4.0, False), EXTRAP_PLAIN: (9.0, False), EXTRAP_STOCH: (16.0, False),
           EXTRAP_BLOCK: (4.0, True), EXTRAP_BLOCK_MVI: (16.0, True)}

# coef L^2 gamma_k^2 <= bound: (coef, bound)
_FINAL = {FINAL_DET: (1.0, 0.5), FINAL_STOCH: (8.0, 1.0), FINAL_BLOCK: (4.0, 1.0)}


def _first_bad(margin, ts, name: str, tol) -> ConditionResult:
    """The condition fails at ts[i] where margin[i] > tol; margin is the
    (log-space) violation size, reported at its largest."""
    mask = margin > tol
    if not np.any(mask):
        return ConditionResult(name, True)
    idx = int(np.argmax(mask))
    return ConditionResult(name, False, int(ts[idx]), float(np.max(margin[mask])))


def validate(
    schedule: Schedule,
    k: int,
    *,
    L: float | None = None,
    mu: float | None = None,
    Lbar: float | None = None,
) -> ValidationReport:
    """Check the policy's own side conditions for t = 1..k.

    ``L``, ``mu`` and ``Lbar`` replace the schedule's own constants, so a
    schedule built from tuned constants can be checked at the true ones; a
    k below 1, or an L whose square overflows a float, raises ``ValueError``.
    Inequalities are verified in log space with a fixed relative slack of
    1e-10 (an absolute slack on log values).  The coupling identity is
    checked to 1e-12 relative, widened by the floating-point rounding floor
    of the log values when theta leaves double range.  Conditions weighted by
    lambda_t are vacuous at t = 1 (x_0 = x_1 makes the first extrapolation
    term zero) and are checked from t = 2; restart boundaries, where
    lambda_t = 0, are exempt from the coupling identity by construction.
    """
    in_range("k", k, 1, closed=True)
    L = float(in_range("L", schedule.L if L is None else L, high=_ROOT_MAX))
    mu = schedule.mu if mu is None else float(mu)
    b = schedule.b
    Lbar = (schedule.Lbar if not math.isnan(schedule.Lbar) else L) if Lbar is None else float(Lbar)

    tab = schedule.table(k)
    report = ValidationReport(policy=schedule.name, notes=schedule.notes)
    ts = np.arange(k + 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        log_gamma = np.log(tab.gamma)
        log_lam = np.log(tab.lam)
    log_tg = tab.log_theta + log_gamma

    for cond in schedule.conditions:
        if cond == COUPLING:
            # evaluated for t = 1..k-1 on the pair (t, t+1); skip restarts
            lhs = log_tg[2:] + log_lam[2:]
            rhs = log_tg[1:-1] + math.log(b)
            diff = np.where(tab.epoch_start[2:], -np.inf, np.abs(lhs - rhs))
            tol = np.maximum(1e-12, 32 * _EPS * np.maximum(np.abs(lhs), np.abs(rhs)))
            result = _first_bad(diff, ts[1:-1], cond, tol)
        elif cond in _EXTRAP:
            coef, block = _EXTRAP[cond]
            # theta_{t-1} >= coef * lip^2 * theta_t gamma_t^2 lambda_t^2, t >= 2
            rhs = (math.log(coef) + 2.0 * math.log(Lbar if block else L) + tab.log_theta[2:]
                   + 2.0 * log_gamma[2:] + 2.0 * log_lam[2:])
            rhs = np.where(np.isnan(rhs), -np.inf, rhs)  # lambda = 0 at restarts
            result = _first_bad(rhs - tab.log_theta[1:-1], ts[2:], cond, _SLACK)
        elif cond in (THETA_GROWTH, THETA_GROWTH_BLOCK):
            lhs = tab.log_theta[1:]
            if cond == THETA_GROWTH_BLOCK:
                lhs = lhs + np.log1p(2.0 * mu * (b - 1) * tab.gamma[1:] / b)
            rhs = tab.log_theta[:-1] + np.log1p(2.0 * mu * tab.gamma[:-1])
            result = _first_bad(lhs - rhs, ts[1:], cond, _SLACK)
        elif cond == WEIGHT_ORDER:
            lhs = log_tg[:-1] + math.log(b)
            rhs = log_tg[1:] + (math.log(b - 1) if b > 1 else -np.inf)
            result = _first_bad(rhs - lhs, ts[1:], cond, _SLACK)
        elif cond in _FINAL:
            coef, bound = _FINAL[cond]
            value = coef * L**2 * float(tab.gamma[k]) ** 2
            result = _first_bad(np.array([value - bound]), [k], cond, bound * _SLACK)
        elif cond in (THETA_NONINC, THETA_NONDEC):
            diff = np.diff(tab.log_theta[1:])
            result = _first_bad(diff if cond == THETA_NONINC else -diff, ts[2:], cond, _SLACK)
        else:
            raise ValueError(f"unknown condition {cond!r}")
        report.results[cond] = result
    return report
