"""Small-noise asymptotics: calls, implied vol limits, Asian options,
first-exit probabilities, and binary barrier options.

All quantities are leading-order exponential decay rates (and, for the
implied volatility, the limit itself); vanishing corrections are not modeled.
The Asian option is a constrained path problem, solved by an exterior
quadratic penalty with geometric continuation on the penalty weight,
followed by a feasibility polish along the found ray.  Its gradient is
reverse mode through the functional (``ratefn.phi_vjp``) and the
constraint, the trapezoid average of exp(phi), whose value and gradient
come together from one method, ``shortfall_and_grad``.  The first stage is
a multistart (``ratefn.minimize_multistart``); each later stage is one
start of ``ratefn.lbfgs_batch``, warm from the stage before.

Exits need no penalty.  A face {a.x >= c} of the shifted domain is reached
by the deadline iff a.phi_j >= c at some window node t_j, and the infimum of
the energy over a union is the minimum of the infima.  Given the volatility
control f, phi_j is affine in l, so the cheapest l that reaches the face at
t_j costs a closed form in f.  Each face is therefore one multistart over f
alone of ``ratefn.ExitFaceObjective``, the minimum over the window nodes of
that cost plus the energy of f, on the grid cut at the last window node; it
is exact on the grid for any drift, any m and any face.  Each face reports
``exit_time``, its best node t_j, after which both controls are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionError,
    DimensionError,
    DomainError,
    UnsupportedDomainError,
    UnsupportedFormError,
    require_number,
)
from .paths import Control, TimeGrid
from .ratefn import (
    DEFAULT_TERMINAL_STEPS,
    RESTART_KEYS,
    ExitFaceObjective,
    ModelSpec,
    RateResult,
    _single_or_batch,
    exit_window,
    inf_tail_result,
    lbfgs_batch,
    minimize_multistart,
    phi_batch,
    phi_vjp,
)

PENALTY_STAGES = 6
PENALTY_START = 10.0
PENALTY_FACTOR = 10.0
PENALTY_MAXITER = 400
FEASIBILITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# exit domains
# ---------------------------------------------------------------------------


def _vector(value, what: str) -> np.ndarray:
    """A number or a flat list of numbers as a 1-D float vector; DomainError
    for anything else."""
    try:
        vec = np.atleast_1d(np.asarray(value))
    except ValueError:  # a ragged list
        vec = None
    if vec is None or vec.ndim != 1 or vec.dtype.kind not in "iuf":
        raise DomainError(f"{what} must be a number or a list of numbers, got {value!r}")
    return vec.astype(float)


@dataclass
class ExitDomain:
    """Axis-aligned box or half-space; the supported open-set class."""

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    normal: np.ndarray | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.kind not in ("box", "half_space"):
            raise UnsupportedDomainError(f"unsupported domain kind {self.kind!r}")
        if self.kind == "box":
            if self.lower is None or self.upper is None:
                raise UnsupportedDomainError("box domain needs lower and upper")
            self.lower = _vector(self.lower, "box lower")
            self.upper = _vector(self.upper, "box upper")
            if self.lower.shape != self.upper.shape:
                raise DimensionError("box bounds must have equal shapes")
            if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
                raise DomainError("box bounds must not be NaN")
            if np.any(self.lower >= self.upper):
                raise UnsupportedDomainError("box must have lower < upper")
        else:
            if self.normal is None or self.offset is None:
                raise UnsupportedDomainError("half_space needs normal and offset")
            self.normal = _vector(self.normal, "half_space normal")
            self.offset = float(require_number(self.offset, "half_space offset"))
            if not (np.all(np.isfinite(self.normal)) and math.isfinite(self.offset)):
                raise DomainError("half_space normal and offset must be finite")
            norm = float(np.linalg.norm(self.normal))
            if norm == 0.0:
                raise UnsupportedDomainError("half_space normal must be nonzero")
            self.normal = self.normal / norm
            self.offset /= norm

    @property
    def dim(self) -> int:
        return self.lower.size if self.kind == "box" else self.normal.size

    def faces(self) -> list[tuple[np.ndarray, float]]:
        """(a, c) pairs with the domain on the side a.x < c; unit normals."""
        if self.kind == "half_space":
            return [(self.normal, self.offset)]
        out = []
        m = self.dim
        for i in range(m):
            e = np.zeros(m)
            if np.isfinite(self.upper[i]):
                e_up = e.copy()
                e_up[i] = 1.0
                out.append((e_up, float(self.upper[i])))
            if np.isfinite(self.lower[i]):
                e_lo = e.copy()
                e_lo[i] = -1.0
                out.append((e_lo, -float(self.lower[i])))
        if not out:
            raise UnsupportedDomainError("box has no finite faces")
        return out

    def shifted_faces(self, x0) -> list[tuple[np.ndarray, float]]:
        """(a, c - a.x0): the faces with the start point x0 at the origin."""
        return [(a, c - float(a @ x0)) for a, c in self.faces()]

    def strictly_outside(self, x) -> bool:
        x = np.asarray(x, float)
        return any(float(a @ x) - c > 0.0 for a, c in self.faces())

    def log_image(self) -> "ExitDomain":
        """Componentwise-log image of a domain in the positive orthant."""
        if self.kind == "box":
            if np.any(self.upper <= 0.0) or np.any(self.lower < 0.0):
                raise DomainError("price-space box must lie in the positive orthant")
            with np.errstate(divide="ignore"):
                lo = np.where(self.lower > 0.0, np.log(self.lower), -np.inf)
            return ExitDomain("box", lower=lo, upper=np.log(self.upper))
        nz = np.nonzero(self.normal)[0]
        if nz.size != 1:
            raise UnsupportedDomainError(
                "price-space half_space must be axis-aligned to map through log"
            )
        i = nz[0]
        a_i = self.normal[i]
        bound = self.offset / a_i
        m = self.normal.size
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        if a_i > 0:  # domain side is s_i < bound
            if bound <= 0.0:
                raise DomainError("price-space half_space must intersect the orthant")
            hi[i] = math.log(bound)
        else:  # domain side is s_i > bound
            if bound <= 0.0:
                raise UnsupportedDomainError(
                    "half_space covers the whole positive orthant; no barrier"
                )
            lo[i] = math.log(bound)
        return ExitDomain("box", lower=lo, upper=hi)

    def to_json_obj(self) -> dict:
        if self.kind == "box":
            return {
                "kind": "box",
                "lower": self.lower.tolist(),
                "upper": self.upper.tolist(),
            }
        return {
            "kind": "half_space",
            "normal": self.normal.tolist(),
            "offset": self.offset,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "ExitDomain":
        return ExitDomain(
            obj["kind"],
            lower=obj.get("lower"),
            upper=obj.get("upper"),
            normal=obj.get("normal"),
            offset=obj.get("offset"),
        )


@dataclass
class AsymptoteReport:
    quantity: str
    rate: float
    limit_value: float | None = None
    minimizer_f: Control | None = None
    minimizer_l: Control | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rates are nonnegative")

    def to_json_obj(self) -> dict:
        from .paths import control_to_json_obj

        return {
            "quantity": self.quantity,
            "rate": self.rate,
            "limit_value": self.limit_value,
            "minimizer_f": (
                control_to_json_obj(self.minimizer_f) if self.minimizer_f else None
            ),
            "minimizer_l": (
                control_to_json_obj(self.minimizer_l) if self.minimizer_l else None
            ),
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# terminal-payoff asymptotics
# ---------------------------------------------------------------------------


def _require_assumption_b(model: ModelSpec, what: str):
    if not model.assumption_b:
        raise AssumptionError(
            f"{what} needs the exponential-integrability declaration "
            "(model.assumption_b); the obligation is documented, not checked"
        )


def _restarts(res: RateResult) -> dict:
    """Per-restart values, iterations and gradient evaluations of the final
    terminal-rate solve."""
    return {k: res.diagnostics[k] for k in RESTART_KEYS}


def call_asymptote(
    model: ModelSpec, strike: float, horizon: float, n_steps: int | None = None, **kwargs
) -> AsymptoteReport:
    """Exponential decay rate of the small-noise call price."""
    if model.m != 1:
        raise UnsupportedFormError("call asymptotics are for m = 1 models")
    if not 0.0 < strike < math.inf:
        raise DomainError(f"strike must be positive and finite, got {strike}")
    _require_assumption_b(model, "the call asymptote")
    s0 = float(model.s0[0])
    if not model.sigma_positive and strike <= s0 * math.exp(model.r * horizon):
        raise DomainError(
            "models with vanishing volatility support the call asymptote only "
            f"for strikes above s0*exp(r*T) = {s0 * math.exp(model.r * horizon):.6g}"
        )
    grid = TimeGrid(horizon, n_steps or DEFAULT_TERMINAL_STEPS)
    k = math.log(strike / s0)
    rate, res = inf_tail_result(model, k, grid=grid, **kwargs)
    return AsymptoteReport(
        quantity="call",
        rate=rate,
        minimizer_f=res.minimizer_f,
        diagnostics={
            "log_moneyness": k,
            "argmin_x": res.diagnostics.get("argmin_x"),
            "converged": res.converged,
            **_restarts(res),
        },
    )


def implied_vol_limit(
    model: ModelSpec, k: float, horizon: float, n_steps: int | None = None, **kwargs
) -> AsymptoteReport:
    """Small-noise implied volatility limit at positive log-moneyness."""
    if model.m != 1:
        raise UnsupportedFormError("implied vol limit is for m = 1 models")
    if abs(float(model.s0[0]) - 1.0) > 1e-12 or model.r != 0.0:
        raise UnsupportedFormError("implied vol limit uses the s0 = 1, r = 0 normalization")
    if k <= 0:
        raise DomainError("log-moneyness must be positive")
    _require_assumption_b(model, "the implied vol limit")
    grid = TimeGrid(horizon, n_steps or DEFAULT_TERMINAL_STEPS)
    rate, res = inf_tail_result(model, k, grid=grid, **kwargs)
    if rate <= 0.0:
        # degenerate: zero rate makes the limit blow up
        return AsymptoteReport(
            quantity="implied_vol",
            rate=0.0,
            limit_value=math.inf,
            minimizer_f=res.minimizer_f,
            diagnostics={"degenerate": True, **_restarts(res)},
        )
    limit = k / math.sqrt(2.0 * horizon * rate)
    return AsymptoteReport(
        quantity="implied_vol",
        rate=rate,
        limit_value=limit,
        minimizer_f=res.minimizer_f,
        diagnostics={"degenerate": False, "converged": res.converged, **_restarts(res)},
    )


# ---------------------------------------------------------------------------
# constrained path problems
# ---------------------------------------------------------------------------


class _AsianProblem:
    """Energy of a joint (l, f) control pair plus the penalized Asian
    constraint: the trapezoid average of exp(phi) reaches the moneyness."""

    def __init__(self, model: ModelSpec, grid: TimeGrid, moneyness):
        self.model = model
        self.grid = grid
        self.dim = 2 * grid.n_steps * model.m
        self.mu = PENALTY_START
        self.moneyness = float(moneyness)
        # trapezoid weights of the time average
        self.weights = np.full(grid.n_steps + 1, grid.dt / grid.horizon)
        self.weights[[0, -1]] *= 0.5

    def split(self, z):
        z = np.asarray(z, float)
        l, f = np.split(z, 2, axis=-1)
        shape = z.shape[:-1] + (self.grid.n_steps, self.model.m)
        return l.reshape(shape), f.reshape(shape)

    def energies(self, z):
        l, f = self.split(z)
        dt = self.grid.dt
        return 0.5 * dt * (np.sum(l**2, axis=(-1, -2)) + np.sum(f**2, axis=(-1, -2)))

    def shortfall_and_grad(self, phi):
        """Over a batch of functional paths phi, the shortfall (positive when
        the constraint is violated) and its gradient in phi."""
        ex = np.exp(phi[..., 0])
        grad = np.zeros(phi.shape)
        grad[..., 0] = -self.weights * ex
        return self.moneyness - np.sum(self.weights * ex, axis=-1), grad

    def violation_batch(self, z):
        phi = phi_batch(self.model, self.grid, *self.split(z))
        return np.maximum(0.0, self.shortfall_and_grad(phi)[0])

    def value(self, z):
        return float(self.energies(z) + self.mu * self.violation_batch(z) ** 2)

    def value_and_grad(self, z):
        """(value, gradient) at one point z of shape (dim,), or arrays of
        both at a batch of points (..., dim)."""
        z = np.asarray(z, float)
        phi, pullback = phi_vjp(self.model, self.grid, *self.split(z))
        short, short_phi = self.shortfall_and_grad(phi)
        viol = np.maximum(short, 0.0)
        value = self.energies(z) + self.mu * viol**2
        l_bar, f_bar = pullback((2.0 * self.mu * viol)[..., None, None] * short_phi)
        lead = z.shape[:-1]
        grad = self.grid.dt * z + np.concatenate(
            [l_bar.reshape(lead + (-1,)), f_bar.reshape(lead + (-1,))], axis=-1
        )
        return _single_or_batch(z, value, grad)


def _penalty_continuation(problem: _AsianProblem, restarts: int, seed: int):
    """Increase the penalty weight geometrically, warm-starting every stage.

    Returns (z, info): the multistart's per-restart values, iteration
    counts and stop reasons, the stop reason of each later stage
    (``stage_stops``), and iteration, gradient-evaluation and
    evaluation-round totals over all stages (each later stage is one start,
    one point per round).
    """
    problem.mu = PENALTY_START
    z, info = minimize_multistart(
        problem, problem.dim, problem.grid, 2 * problem.model.m,
        restarts=restarts, seed=seed, maxiter=PENALTY_MAXITER,
    )
    info = {k: info[k] for k in ("iterations",) + RESTART_KEYS}
    info["stage_stops"] = []
    for _ in range(PENALTY_STAGES - 1):
        problem.mu *= PENALTY_FACTOR
        (res,), rounds = lbfgs_batch(problem, [z], PENALTY_MAXITER)
        z = res.x
        info["iterations"] += res.iterations
        info["gradient_evaluations"] += res.evaluations
        info["evaluation_rounds"] += rounds
        info["stage_stops"].append(res.stop)
    return z, info


def _polish_to_feasibility(problem: _AsianProblem, z):
    """Scale the found ray to exact constraint activity by bisection.

    The zero path must be infeasible.  Returns (z_polished, shortfall), with
    shortfall <= 0 meaning feasible.
    """
    base = np.asarray(z, float)

    def short(lam):
        return float(problem.violation_batch(lam * base))

    s1 = short(1.0)
    if s1 > 0.0:  # infeasible: scale the ray up to reach the constraint
        lo, hi = 1.0, 2.0
        while short(hi) > 0.0:
            hi *= 2.0
            if hi > 1024.0:
                return base, s1
    else:  # feasible: shrink toward the boundary to shed surplus energy
        lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if short(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return hi * base, short(hi)


def _no_solve() -> dict:
    """The solve diagnostics of a zero path that already meets its
    constraint: zero iterations, no restarts, no gradient evaluations."""
    return {"iterations": 0, "restart_values": [], "restart_iterations": [],
            "restart_stops": [], "gradient_evaluations": 0, "evaluation_rounds": 0}


def _solve_constrained(problem: _AsianProblem, restarts: int, seed: int):
    """Least-energy control pair meeting the constraint: the zero path when it
    already does, else penalty continuation and the feasibility polish.

    Returns (z, shortfall, info); info holds the solve diagnostics, all zero
    or empty for the zero path.
    """
    zero = np.zeros(problem.dim)
    if problem.violation_batch(zero) <= 0.0:
        return zero, 0.0, {**_no_solve(), "stage_stops": []}
    z, info = _penalty_continuation(problem, restarts, seed)
    z, shortfall = _polish_to_feasibility(problem, z)
    return z, shortfall, info


def _exit_face(model: ModelSpec, grid: TimeGrid, face, deadline: float, restarts: int, seed: int):
    """The least-energy exit through one face: (l_dots, f_dots, info), from
    one multistart of ``ratefn.ExitFaceObjective`` on the grid cut at the
    last window node, skipped when the zero path already exits.  Both
    controls are zero after the best node t_j; info holds the solve
    diagnostics (empty for the zero path) and ``exit_time`` t_j."""
    last = int(np.flatnonzero(exit_window(grid, deadline))[-1])
    cut = grid if last == grid.n_steps else TimeGrid(last * grid.dt, last)
    objective = ExitFaceObjective(model, cut, face, deadline)
    x = np.zeros(last * model.m)
    if objective.value(x) == 0.0:
        info = {**_no_solve(), "converged": True}
    else:
        x, info = minimize_multistart(objective, x.size, cut, model.m, restarts=restarts, seed=seed)
        info = {k: info[k] for k in ("iterations", "converged") + RESTART_KEYS}
    node, l_first = objective.exit_pair(x)
    l_dots, f_dots = np.zeros((2, grid.n_steps, model.m))
    l_dots[:node] = l_first
    f_dots[:node] = x.reshape(last, model.m)[:node]
    return l_dots, f_dots, {"exit_time": float(grid.nodes[node]), **info}


def asian_asymptote(
    model: ModelSpec,
    strike: float,
    horizon: float,
    n_steps: int | None = None,
    restarts: int = 4,
    seed: int = 0,
) -> AsymptoteReport:
    """Decay rate of the small-noise Asian call through the constrained
    path problem on the running average of the price path."""
    if model.m != 1:
        raise UnsupportedFormError("Asian asymptotics are for m = 1 models")
    if not 0.0 < strike < math.inf:
        raise DomainError(f"strike must be positive and finite, got {strike}")
    _require_assumption_b(model, "the Asian asymptote")
    s0 = float(model.s0[0])
    if not model.sigma_positive:
        threshold = (
            s0 * (math.exp(model.r * horizon) - 1.0) / (model.r * horizon)
            if model.r > 0
            else s0
        )
        if strike <= threshold:
            raise DomainError(
                f"vanishing-volatility models support Asian asymptotics only for "
                f"strikes above {threshold:.6g}"
            )
    grid = TimeGrid(horizon, n_steps or DEFAULT_TERMINAL_STEPS)
    moneyness = strike / s0
    problem = _AsianProblem(model, grid, moneyness)
    z, shortfall, info = _solve_constrained(problem, restarts, seed)
    converged = shortfall <= FEASIBILITY_TOL
    rate = float(problem.energies(z))
    l_dots, f_dots = problem.split(z)
    return AsymptoteReport(
        quantity="asian",
        rate=rate,
        minimizer_f=Control(grid, f_dots),
        minimizer_l=Control(grid, l_dots),
        diagnostics={
            "moneyness": moneyness,
            "converged": bool(converged),
            "shortfall": shortfall,
            **info,
        },
    )


def exit_asymptote(
    model: ModelSpec,
    domain: ExitDomain,
    deadline: float,
    horizon: float | None = None,
    n_steps: int | None = None,
    restarts: int = 4,
    seed: int = 0,
) -> AsymptoteReport:
    """Decay rate of the probability that the log-price leaves the domain
    by the deadline: the least rate over the faces of the shifted domain,
    one ``ratefn.ExitFaceObjective`` solve each.  Each face reports its rate,
    whether its solve converged, its solve diagnostics and ``exit_time``,
    the window node where its least-energy path reaches the face."""
    if domain.dim != model.m:
        raise DimensionError("domain dimension must equal m")
    horizon = float(horizon if horizon is not None else deadline)
    if not 0.0 < deadline <= horizon + 1e-12:
        raise DomainError("deadline must lie in (0, horizon]")
    if domain.strictly_outside(model.x0):
        raise DomainError("the start point must not lie outside the domain")
    grid = TimeGrid(horizon, n_steps or DEFAULT_TERMINAL_STEPS)
    faces = domain.shifted_faces(model.x0)
    solves = [_exit_face(model, grid, face, deadline, restarts, seed) for face in faces]
    per_face = [
        {"face": idx, "rate": 0.5 * grid.dt * float(np.sum(l_dots**2) + np.sum(f_dots**2)), **info}
        for idx, (l_dots, f_dots, info) in enumerate(solves)
    ]
    # the least rate among the converged faces, else among all of them
    candidates = [i for i, face in enumerate(per_face) if face["converged"]] or range(len(faces))
    best = min(candidates, key=lambda i: per_face[i]["rate"])
    l_dots, f_dots, info = solves[best]
    return AsymptoteReport(
        quantity="exit_prob",
        rate=per_face[best]["rate"],
        minimizer_f=Control(grid, f_dots),
        minimizer_l=Control(grid, l_dots),
        diagnostics={"converged": info["converged"], "best_face": best, "faces": per_face, **info},
    )


def barrier_asymptote(
    model: ModelSpec,
    price_domain: ExitDomain,
    horizon: float,
    n_steps: int | None = None,
    **kwargs,
) -> AsymptoteReport:
    """Decay rate of a binary knock-in barrier price: the price-space domain
    is mapped through the componentwise log and the exit problem is solved at
    the full horizon.  The discount prefactor does not affect the rate and is
    reported separately."""
    log_domain = price_domain.log_image()
    if log_domain.strictly_outside(model.x0):
        raise DomainError("spot must not start outside the barrier domain")
    report = exit_asymptote(
        model, log_domain, deadline=horizon, horizon=horizon, n_steps=n_steps, **kwargs
    )
    report.quantity = "barrier"
    report.diagnostics["discount_prefactor"] = math.exp(-model.r * horizon)
    return report
