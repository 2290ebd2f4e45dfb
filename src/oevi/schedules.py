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

import numpy as np

_EPS = np.finfo(float).eps

# Condition identifiers (validator report keys).
COUPLING = "coupling"                      # theta_{t+1} gamma_{t+1} lambda_{t+1} = theta_t gamma_t * scale
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

    k: int
    gamma: np.ndarray
    lam: np.ndarray
    log_theta: np.ndarray
    batch: np.ndarray
    epoch_start: np.ndarray


class Schedule:
    """Base class: a named policy with scalar and vectorized evaluation."""

    name: str = ""
    conditions: tuple[str, ...] = ()
    coupling_scale: float = 1.0
    notes: tuple[str, ...] = ()

    # constants the policy was built from (used by the validator and bounds)
    L: float = math.nan
    mu: float = 0.0
    sigma: float = 0.0
    V1: float = math.nan
    b: int = 1
    Lbar: float = math.nan

    def triple(self, t: int) -> tuple[float, float, float]:
        """(gamma_t, lambda_t, theta_t) for a single iteration t >= 1."""
        tab = self.table(t)
        return float(tab.gamma[t]), float(tab.lam[t]), float(math.exp(tab.log_theta[t]))

    def table(self, k: int) -> ScheduleTable:
        raise NotImplementedError

    def epoch_of(self, t: int) -> tuple[int, int]:
        """(epoch index, local iteration index); trivial for non-restart policies."""
        return 1, t


def _const_table(k: int, gamma: float, lam: float, log_ratio: float) -> ScheduleTable:
    """Table for policies with constant gamma, lambda and theta_t = exp(t * log_ratio)."""
    t = np.arange(k + 1, dtype=float)
    tab = ScheduleTable(
        k=k,
        gamma=np.full(k + 1, gamma),
        lam=np.full(k + 1, lam),
        log_theta=t * log_ratio,
        batch=np.ones(k + 1, dtype=int),
        epoch_start=np.zeros(k + 1, dtype=bool),
    )
    tab.lam[0] = np.nan
    tab.batch[0] = 0
    return tab


def _decreasing(mu: float, t0: float, t):
    """Decreasing-policy stepsize gamma_t = 1/(mu (t0 + t - 1)) and weight
    theta_t = (t + t0 + 1)(t + t0), elementwise in t."""
    return 1.0 / (mu * (t0 + t - 1.0)), (t + t0 + 1.0) * (t + t0)


def _coupled_lam(gamma: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """lambda_t = theta_{t-1} gamma_{t-1} / (theta_t gamma_t) for t = 1..len-1."""
    return (theta[:-1] * gamma[:-1]) / (theta[1:] * gamma[1:])


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


class OEGsmviSchedule(Schedule):
    """Linear-rate policy for generalized strongly monotone problems:
    gamma = 1/(2L), lambda = (mu/L + 1)^-1, theta_t = (mu/L + 1)^t."""

    name = "OE-GSMVI"
    conditions = (COUPLING, EXTRAP_DET, THETA_GROWTH, FINAL_DET)

    def __init__(self, L: float, mu: float):
        _require_positive(L=L, mu=mu)
        if mu > L:
            raise ValueError("mu cannot exceed L")
        self.L, self.mu = float(L), float(mu)

    def triple(self, t):
        # r**t is exact for small integer ratios, where exp(t log r) is not
        r = self.mu / self.L + 1.0
        return 1.0 / (2.0 * self.L), 1.0 / r, r**t

    def table(self, k):
        return _const_table(k, 1.0 / (2.0 * self.L), self.L / (self.mu + self.L),
                            math.log1p(self.mu / self.L))


class OEGmviSchedule(Schedule):
    """Merely (generalized) monotone problems: gamma = 1/(3L), lambda = theta = 1."""

    name = "OE-GMVI"
    conditions = (COUPLING, EXTRAP_PLAIN)

    def __init__(self, L: float):
        _require_positive(L=L)
        self.L = float(L)

    def table(self, k):
        return _const_table(k, 1.0 / (3.0 * self.L), 1.0, 0.0)


class OEMviSchedule(Schedule):
    """Monotone problems, averaged output: gamma = 1/(2L), lambda = theta = 1."""

    name = "OE-MVI"
    conditions = (COUPLING, EXTRAP_DET, FINAL_DET, THETA_NONINC)

    def __init__(self, L: float):
        _require_positive(L=L)
        self.L = float(L)

    def table(self, k):
        return _const_table(k, 1.0 / (2.0 * self.L), 1.0, 0.0)


class SoeDecreasingSchedule(Schedule):
    """Stochastic strongly monotone problems, horizon-free decreasing stepsizes:
    t0 = 4L/mu, gamma_t = 1/(mu (t0 + t - 1)), theta_t = (t + t0 + 1)(t + t0),
    lambda_t = theta_{t-1} gamma_{t-1} / (theta_t gamma_t)."""

    name = "SOE-1"
    conditions = (COUPLING, EXTRAP_STOCH, THETA_GROWTH, FINAL_STOCH)

    def __init__(self, L: float, mu: float):
        _require_positive(L=L, mu=mu)
        if mu > L:
            raise ValueError("mu cannot exceed L")
        self.L, self.mu = float(L), float(mu)
        self.t0 = 4.0 * self.L / self.mu

    def table(self, k):
        gamma, theta = _decreasing(self.mu, self.t0, np.arange(k + 1, dtype=float))
        lam = np.empty(k + 1)
        lam[0] = np.nan
        lam[1:] = _coupled_lam(gamma, theta)
        tab = ScheduleTable(
            k=k, gamma=gamma, lam=lam, log_theta=np.log(theta),
            batch=np.ones(k + 1, dtype=int), epoch_start=np.zeros(k + 1, dtype=bool),
        )
        tab.batch[0] = 0
        return tab


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
        _require_positive(L=L, mu=mu, sigma=sigma, V1=V1)
        if mu > L:
            raise ValueError("mu cannot exceed L")
        if k < 2:
            raise ValueError("the constant policy needs k >= 2")
        self.L, self.mu, self.sigma, self.V1 = float(L), float(mu), float(sigma), float(V1)
        self.k = int(k)
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
    (``noise_ratio``), defaulting to the supplied sigma and V1.
    """

    name = "SOE-3"
    conditions = (COUPLING, EXTRAP_STOCH, THETA_GROWTH, FINAL_STOCH)

    def __init__(self, L: float, mu: float, sigma: float = 1.0, V1: float = 1.0,
                 noise_ratio: float | None = None):
        _require_positive(L=L, mu=mu, sigma=sigma, V1=V1)
        if mu > L:
            raise ValueError("mu cannot exceed L")
        self.L, self.mu, self.sigma, self.V1 = float(L), float(mu), float(sigma), float(V1)
        self.t0 = 4.0 * self.L / self.mu
        self.noise_ratio = (
            float(noise_ratio) if noise_ratio is not None
            else self.sigma**2 / (self.mu**2 * self.V1)
        )
        self._lengths: list[int] = []
        self._ends: list[int] = []

    def epoch_length(self, s: int) -> int:
        base = (2.0 * math.sqrt(2.0) - 1.0) * self.t0 + 4.0
        return int(math.ceil(max(base, 2.0 ** (s + 6) * self.noise_ratio)))

    def _extend_epochs(self, t: int):
        while not self._ends or self._ends[-1] < t:
            s = len(self._lengths) + 1
            ks = self.epoch_length(s)
            self._lengths.append(ks)
            self._ends.append((self._ends[-1] if self._ends else 0) + ks)

    def epoch_of(self, t: int) -> tuple[int, int]:
        if t < 1:
            raise ValueError("t must be >= 1")
        self._extend_epochs(t)
        s = int(np.searchsorted(self._ends, t))
        start = 0 if s == 0 else self._ends[s - 1]
        return s + 1, t - start

    def epoch_ends(self, num: int) -> list[int]:
        """Cumulative iteration counts K_1..K_num (epoch boundaries)."""
        while len(self._ends) < num:
            self._extend_epochs((self._ends[-1] if self._ends else 0) + 1)
        return self._ends[:num]

    def table(self, k):
        self._extend_epochs(k)
        gamma = np.empty(k + 1)
        lam = np.empty(k + 1)
        log_theta = np.empty(k + 1)
        epoch_start = np.zeros(k + 1, dtype=bool)
        # prehistory from the first epoch's local formulas at local index 0
        gamma[0], theta0 = _decreasing(self.mu, self.t0, 0.0)
        lam[0] = np.nan
        log_theta[0] = math.log(theta0)
        start = 0
        for ks in self._lengths:
            if start >= k:
                break
            stop = min(start + ks, k)
            g, th = _decreasing(self.mu, self.t0, np.arange(1, stop - start + 1, dtype=float))
            lm = np.empty_like(g)
            lm[0] = 0.0
            lm[1:] = _coupled_lam(g, th)
            sl = slice(start + 1, stop + 1)
            gamma[sl], lam[sl], log_theta[sl] = g, lm, np.log(th)
            epoch_start[start + 1] = True
            start = stop
        tab = ScheduleTable(
            k=k, gamma=gamma, lam=lam, log_theta=log_theta,
            batch=np.ones(k + 1, dtype=int), epoch_start=epoch_start,
        )
        tab.batch[0] = 0
        return tab


class SoeGmviSchedule(Schedule):
    """Stochastic merely-monotone problems with horizon k: gamma = 1/(4L),
    lambda = theta = 1, mini-batch m = k + 1 per step."""

    name = "SOE-4"
    conditions = (COUPLING, EXTRAP_STOCH, FINAL_STOCH, THETA_NONDEC)

    def __init__(self, L: float, k: int):
        _require_positive(L=L)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.L = float(L)
        self.k = int(k)

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
        _require_positive(L=L)
        self.L = float(L)

    def table(self, k):
        t = np.arange(k + 1, dtype=float)
        with np.errstate(divide="ignore"):
            gamma = 1.0 / (self.L * np.sqrt(t))
        lam = np.empty(k + 1)
        lam[0] = np.nan
        lam[1] = 0.0
        if k >= 2:
            lam[2:] = gamma[1:-1] / gamma[2:]
        gamma[0] = np.nan
        tab = ScheduleTable(
            k=k, gamma=gamma, lam=lam, log_theta=np.zeros(k + 1),
            batch=np.ones(k + 1, dtype=int),
            epoch_start=np.zeros(k + 1, dtype=bool),
        )
        # lambda_1 = 0 is a deliberate restart-style first step
        tab.epoch_start[1] = True
        tab.batch[0] = 0
        return tab


class SboeGsmviSchedule(Schedule):
    """Block policy for strongly monotone problems: gamma = 1/(2 Lbar b),
    lambda = (b + 2 (b-1) mu gamma)/(1 + 2 mu gamma),
    theta_t = ((1 + 2 mu gamma)/(1 + 2 mu gamma (b-1)/b))^t."""

    name = "SBOE-GSMVI"
    conditions = (COUPLING, EXTRAP_BLOCK, THETA_GROWTH_BLOCK, WEIGHT_ORDER, FINAL_BLOCK)

    def __init__(self, Lbar: float, b: int, mu: float, L: float | None = None):
        _require_positive(Lbar=Lbar, mu=mu)
        if b < 1:
            raise ValueError("b must be >= 1")
        self.Lbar = float(Lbar)
        self.b = int(b)
        self.mu = float(mu)
        # full-operator Lipschitz constant, used only by the final-step check
        self.L = float(L) if L is not None else self.Lbar * math.sqrt(self.b)
        self.coupling_scale = float(self.b)
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
        _require_positive(Lbar=Lbar)
        if b < 1:
            raise ValueError("b must be >= 1")
        self.Lbar = float(Lbar)
        self.b = int(b)
        self.L = float(L) if L is not None else self.Lbar * math.sqrt(self.b)
        self.coupling_scale = float(self.b)

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
        _require_positive(L=L, mu=mu)
        self.L, self.mu = float(L), float(mu)
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
        lam = np.zeros(k + 1)
        lam[0] = np.nan
        tab = ScheduleTable(
            k=k, gamma=gamma, lam=lam, log_theta=np.zeros(k + 1),
            batch=np.ones(k + 1, dtype=int),
            epoch_start=np.ones(k + 1, dtype=bool),  # never claims the coupling identity
        )
        tab.epoch_start[0] = False
        tab.batch[0] = 0
        return tab


# CLI policy names (the harness speaks these).  SA-RM is the no-offset
# classic Robbins-Monro baseline used by the qualitative comparisons.
POLICY_NAMES = (
    "OE-GSMVI", "OE-GMVI", "OE-MVI",
    "SOE-1", "SOE-2", "SOE-3", "SOE-4", "SOE-MVI",
    "SBOE-GSMVI", "SBOE-MVI", "SA", "SA-RM",
)


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
    policies use ``Lbar`` (defaulting to L) and ``b``.
    """
    if name == "OE-GSMVI":
        return OEGsmviSchedule(L, mu)
    if name == "OE-GMVI":
        return OEGmviSchedule(L)
    if name == "OE-MVI":
        return OEMviSchedule(L)
    if name == "SOE-1":
        return SoeDecreasingSchedule(L, mu)
    if name == "SOE-2":
        if k is None:
            raise ValueError("SOE-2 needs the horizon k")
        return SoeConstantSchedule(L, mu, sigma, V1, k)
    if name == "SOE-3":
        # the noise ratio sigma^2/(mu^2 V1) is rarely known; the default
        # harness estimate is 1 (override with an honest value when checking
        # the epoch-halving bound)
        return SoeRestartSchedule(L, mu, sigma if sigma > 0 else 1.0, V1,
                                  noise_ratio=noise_ratio if noise_ratio is not None else 1.0)
    if name == "SOE-4":
        if k is None:
            raise ValueError("SOE-4 needs the horizon k")
        return SoeGmviSchedule(L, k)
    if name == "SOE-MVI":
        return SoeMviSchedule(L)
    if name == "SBOE-GSMVI":
        return SboeGsmviSchedule(Lbar if Lbar is not None else L, b, mu, L=L)
    if name == "SBOE-MVI":
        return SboeMviSchedule(Lbar if Lbar is not None else L, b, L=L)
    if name == "SA":
        return SaSchedule(L, mu)
    if name == "SA-RM":
        return SaSchedule(L, mu, parity_offset=False)
    raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}")


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


def _first_bad(mask: np.ndarray, ts: np.ndarray, margin: np.ndarray, name: str) -> ConditionResult:
    """mask True where the condition FAILS; margin is the (log-space) violation size."""
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
    b: int | None = None,
    Lbar: float | None = None,
    slack: float = 1e-10,
) -> ValidationReport:
    """Check the policy's own side conditions for t = 1..k.

    Inequalities are verified in log space with relative slack ``slack``
    (an absolute slack on log values).  The coupling identity is checked to
    1e-12 relative, widened by the floating-point rounding floor of the log
    values when theta leaves double range.  Conditions weighted by lambda_t
    are vacuous at t = 1 (x_0 = x_1 makes the first extrapolation term zero)
    and are checked from t = 2; restart boundaries, where lambda_t = 0, are
    exempt from the coupling identity by construction.
    """
    L = schedule.L if L is None else float(L)
    mu = schedule.mu if mu is None else float(mu)
    b = schedule.b if b is None else int(b)
    Lbar = (schedule.Lbar if not math.isnan(schedule.Lbar) else L) if Lbar is None else float(Lbar)

    tab = schedule.table(k)
    report = ValidationReport(policy=schedule.name, notes=schedule.notes)
    ts = np.arange(k + 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        log_gamma = np.log(tab.gamma)
        log_lam = np.log(tab.lam)

    for cond in schedule.conditions:
        if cond == COUPLING:
            # evaluated for t = 1..k-1 on the pair (t, t+1); skip restarts
            lhs = tab.log_theta[2:] + log_gamma[2:] + log_lam[2:]
            rhs = tab.log_theta[1:-1] + log_gamma[1:-1] + math.log(schedule.coupling_scale)
            keep = ~tab.epoch_start[2:]
            diff = np.abs(lhs - rhs)
            tol = np.maximum(1e-12, 32 * _EPS * np.maximum(np.abs(lhs), np.abs(rhs)))
            mask = (diff > tol) & keep
            report.results[cond] = _first_bad(mask, ts[1:-1], diff, cond)
        elif cond in (EXTRAP_DET, EXTRAP_PLAIN, EXTRAP_STOCH, EXTRAP_BLOCK, EXTRAP_BLOCK_MVI):
            coef = {EXTRAP_DET: 4.0, EXTRAP_PLAIN: 9.0, EXTRAP_STOCH: 16.0,
                    EXTRAP_BLOCK: 4.0, EXTRAP_BLOCK_MVI: 16.0}[cond]
            lip = Lbar if cond in (EXTRAP_BLOCK, EXTRAP_BLOCK_MVI) else L
            # theta_{t-1} >= coef * lip^2 * theta_t gamma_t^2 lambda_t^2, t >= 2
            lhs = tab.log_theta[1:-1]
            rhs = (math.log(coef) + 2.0 * math.log(lip) + tab.log_theta[2:]
                   + 2.0 * log_gamma[2:] + 2.0 * log_lam[2:])
            rhs = np.where(np.isnan(rhs), -np.inf, rhs)  # lambda = 0 at restarts
            margin = rhs - lhs
            mask = margin > slack
            report.results[cond] = _first_bad(mask, ts[2:], margin, cond)
        elif cond == THETA_GROWTH:
            lhs = tab.log_theta[1:]
            rhs = tab.log_theta[:-1] + np.log1p(2.0 * mu * tab.gamma[:-1])
            margin = lhs - rhs
            mask = margin > slack
            report.results[cond] = _first_bad(mask, ts[1:], margin, cond)
        elif cond == THETA_GROWTH_BLOCK:
            lhs = tab.log_theta[1:] + np.log1p(2.0 * mu * (b - 1) * tab.gamma[1:] / b)
            rhs = tab.log_theta[:-1] + np.log1p(2.0 * mu * tab.gamma[:-1])
            margin = lhs - rhs
            mask = margin > slack
            report.results[cond] = _first_bad(mask, ts[1:], margin, cond)
        elif cond == WEIGHT_ORDER:
            lhs = tab.log_theta[:-1] + log_gamma[:-1] + math.log(b)
            rhs = tab.log_theta[1:] + log_gamma[1:] + (math.log(b - 1) if b > 1 else -np.inf)
            margin = rhs - lhs
            mask = margin > slack
            report.results[cond] = _first_bad(mask, ts[1:], margin, cond)
        elif cond in (FINAL_DET, FINAL_STOCH, FINAL_BLOCK):
            coef, bound = {FINAL_DET: (1.0, 0.5), FINAL_STOCH: (8.0, 1.0),
                           FINAL_BLOCK: (4.0, 1.0)}[cond]
            value = coef * L**2 * float(tab.gamma[k]) ** 2
            ok = value <= bound * (1.0 + slack)
            report.results[cond] = ConditionResult(cond, ok, None if ok else k,
                                                   0.0 if ok else value - bound)
        elif cond in (THETA_NONINC, THETA_NONDEC):
            diff = np.diff(tab.log_theta[1:])
            margin = diff if cond == THETA_NONINC else -diff
            mask = margin > slack
            report.results[cond] = _first_bad(mask, ts[2:], margin, cond)
        else:
            raise ValueError(f"unknown condition {cond!r}")
    return report
