"""Closed parameter loops, multi-step evolution, and loop diagnostics.

A schedule is a list of walk parameters tracing a closed circle in the
(phi, theta1) plane around (or away from) the EP. Two evolution engines run
the same schedule through one step / renormalize / record loop and differ only
in the control frame of a step: evolve_full applies the closed-form step
operator u_step(p_n) = C_n (I (x) M_n) C_n^-1, rebuilding the control pair at
every step; evolve_simplified applies C_0 (I (x) M_n) C_0^-1, with the control
pair frozen at the loop endpoint. Diagnostics cover per-step eigenbasis
weights (sheet tracking), the step-to-step drift of the control operator, and
a small-N schedule optimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import max_abs
from .metrics import BELL_LABELS, Classification, bell_index, bell_state, classify, density_matrix
from .spectrum import eigensystem
from .walk import WalkParams, control_operator, u_step, walk_operator_closed

DIRECTIONS = ("cw", "ccw")

# classification targets around Loop 1: the direction, not the input, picks
# the output within each invariant block {zeta1, zeta2} / {zeta3, zeta4}
CHIRAL_TARGETS = {
    ("cw", 1): 2, ("cw", 2): 2, ("cw", 3): 3, ("cw", 4): 3,
    ("ccw", 1): 1, ("ccw", 2): 1, ("ccw", 3): 4, ("ccw", 4): 4,
}


@dataclass(frozen=True)
class LoopSchedule:
    steps: tuple[WalkParams, ...]
    direction: str
    label: str

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


def direction_sign(direction: str) -> float:
    """+1 for counter-clockwise, -1 for clockwise."""
    return 1.0 if _check_direction(direction) == "ccw" else -1.0


def equal_phases(n_steps: int, direction: str) -> np.ndarray:
    """Equally spaced loop phases t_n = sign*2*pi*n/N - pi/2, n = 0..N-1."""
    if n_steps < 1:
        raise ConfigError(f"schedule needs at least 1 step, got {n_steps}")
    n = np.arange(n_steps)
    return direction_sign(direction) * 2 * math.pi * n / n_steps - math.pi / 2


def schedule_from_phases(
    phases,
    direction: str,
    radius: float = 0.2,
    theta1_center: float = -0.4,
    label: str = "custom",
) -> LoopSchedule:
    """Schedule tracing phi = radius*cos(t), theta1 = radius*sin(t) + center (other knobs default)."""
    _check_direction(direction)
    steps = tuple(
        WalkParams(theta1=radius * math.sin(t) + theta1_center, phi=radius * math.cos(t))
        for t in np.asarray(phases, dtype=float)
    )
    if not steps:
        raise ConfigError("schedule needs at least 1 step")
    return LoopSchedule(steps=steps, direction=direction, label=label)


def loop1_schedule(n_steps: int, direction: str) -> LoopSchedule:
    """EP-enclosing circle: radius 0.2 around theta1 = -0.4, start (0, -0.6)."""
    return schedule_from_phases(
        equal_phases(n_steps, direction), direction, radius=0.2, theta1_center=-0.4, label="loop1"
    )


def loop2_schedule(n_steps: int, direction: str) -> LoopSchedule:
    """EP-avoiding circle: radius 0.1 around theta1 = -0.5, same start point."""
    return schedule_from_phases(
        equal_phases(n_steps, direction), direction, radius=0.1, theta1_center=-0.5, label="loop2"
    )


def bell_eigenstate(label, p: WalkParams) -> np.ndarray:
    """The normalized right eigenstate of u_step(p) nearest the given Bell state.

    Labeling by overlap rather than by eigenvalue index is stable across the
    square-root branch cut at phi = 0, where index labels swap but the
    physical rays do not.
    """
    target = bell_state(label)
    es = eigensystem(p)
    best, best_f = None, -1.0
    for a in es.alpha:
        v = a / np.linalg.norm(a)
        f = abs(np.vdot(target, v))
        if f > best_f:
            best, best_f = v, f
    return best


def expected_output(direction: str, label) -> str:
    """Chirality-table target around Loop 1 for a given input and direction."""
    return BELL_LABELS[CHIRAL_TARGETS[(_check_direction(direction), bell_index(label))] - 1]


@dataclass(frozen=True)
class StepRecord:
    index: int
    weights_raw: tuple[float, float, float, float]
    weights: tuple[float, float, float, float]
    log_magnitude: float
    eta: tuple[complex, complex]  # (eta_plus, eta_minus) of the step's u_step


@dataclass(frozen=True)
class EvolutionReport:
    input_label: str
    direction: str
    n_steps: int
    loop_label: str
    engine: str
    output_state: np.ndarray
    output_density: np.ndarray
    fidelities: tuple[float, float, float, float]
    classified_output: str
    tie: bool
    log_magnitude: float
    per_step: tuple[StepRecord, ...] | None


def _normalized(state) -> np.ndarray:
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise DomainError(f"state must have 4 amplitudes, got shape {psi.shape}")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise DomainError("cannot normalize the zero state")
    return psi / nrm


def _step_record(n: int, p: WalkParams, psi: np.ndarray, logmag: float) -> StepRecord:
    es = eigensystem(p)
    raw = tuple(float(abs(np.vdot(b, psi)) ** 2) for b in es.beta)
    total = sum(raw)
    return StepRecord(n, raw, tuple(w / total for w in raw), logmag, (es.eta_plus, es.eta_minus))


def _canonical_label(label) -> str:
    try:
        return BELL_LABELS[bell_index(label) - 1]
    except DomainError:
        return str(label)


def _propagate(
    schedule: LoopSchedule,
    input_state,
    input_label: str,
    engine: str,
    step,
    record_steps: bool,
) -> EvolutionReport:
    """Apply `step(p, psi)` for every step of the schedule and report the result.

    `step` returns the next unnormalized lab-frame state. The state is
    renormalized after every step; the discarded magnitudes accumulate in
    log_magnitude (the net amplification is scale-free for every reported
    quantity but diagnostic for gain/loss balance).
    """
    psi = _normalized(input_state)
    logmag = 0.0
    records = [] if record_steps else None
    for n, p in enumerate(schedule.steps):
        psi = step(p, psi)
        nrm = np.linalg.norm(psi)
        logmag += math.log(nrm)
        psi = psi / nrm
        if record_steps:
            records.append(_step_record(n, p, psi, logmag))
    cls: Classification = classify(psi)
    return EvolutionReport(
        input_label=_canonical_label(input_label),
        direction=schedule.direction,
        n_steps=schedule.n_steps,
        loop_label=schedule.label,
        engine=engine,
        output_state=psi,
        output_density=density_matrix(psi),
        fidelities=cls.fidelities,
        classified_output=cls.label,
        tie=cls.tie,
        log_magnitude=logmag,
        per_step=tuple(records) if records is not None else None,
    )


def evolve_full(
    schedule: LoopSchedule,
    input_state,
    input_label: str = "custom",
    record_steps: bool = True,
) -> EvolutionReport:
    """Run the schedule with the per-step closed-form operator u_step."""
    return _propagate(schedule, input_state, input_label, "full",
                      lambda p, psi: u_step(p) @ psi, record_steps)


def evolve_simplified(
    schedule: LoopSchedule,
    input_state,
    input_label: str = "custom",
    record_steps: bool = True,
) -> EvolutionReport:
    """Run the schedule with the control pair frozen at the loop endpoint.

    Each step applies C (I (x) M_n) C^-1 with (C, C^-1) evaluated at the
    schedule's first parameters (for a closed loop the start is the endpoint).
    Reading the product-frame state phi as a 2x2 matrix, (I (x) M) phi is
    phi @ M^T, so no 4x4 Kronecker product is formed.
    """
    C, C_inv = control_operator(schedule.steps[0])

    def step(p: WalkParams, psi: np.ndarray) -> np.ndarray:
        return C @ ((C_inv @ psi).reshape(2, 2) @ walk_operator_closed(p).T).reshape(4)

    return _propagate(schedule, input_state, input_label, "simplified", step, record_steps)


ENGINES = {"full": evolve_full, "simplified": evolve_simplified}


def evolve(
    schedule: LoopSchedule,
    input_state,
    engine: str = "full",
    input_label: str = "custom",
    record_steps: bool = True,
) -> EvolutionReport:
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {tuple(ENGINES)}, got {engine!r}")
    return ENGINES[engine](schedule, input_state, input_label=input_label, record_steps=record_steps)


@dataclass(frozen=True)
class ControlDriftReport:
    deviations: tuple[float, ...]
    global_max: float
    flips: int


_K_FLIP = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def control_drift(schedule: LoopSchedule) -> ControlDriftReport:
    """Step-to-step deviation of the control operator around the closed loop.

    Measures |C_{n+1}^-1 C_n - I|_max per transition (wrapping the last step
    back to the first). The control gauge is two-valued around the EP: once
    per encircling, C jumps by the block sign sigma_z (x) I, which commutes
    with every I (x) M_n and is invisible to the evolution. Transitions are
    therefore compared against the nearer of I and sigma_z (x) I, and the
    number of sign jumps is reported as flips.
    """
    pairs = [control_operator(p) for p in schedule.steps]
    pairs.append(pairs[0])
    deviations = []
    flips = 0
    eye = np.eye(4, dtype=complex)
    for n in range(schedule.n_steps):
        d = pairs[n + 1][1] @ pairs[n][0]
        dev_id = max_abs(d - eye)
        dev_flip = max_abs(d - _K_FLIP)
        if dev_flip < dev_id:
            flips += 1
            deviations.append(dev_flip)
        else:
            deviations.append(dev_id)
    return ControlDriftReport(
        deviations=tuple(deviations),
        global_max=max(deviations),
        flips=flips,
    )


@dataclass(frozen=True)
class SheetTrace:
    dominant: tuple[int, ...]
    switches: int
    switch_steps: tuple[int, ...]


def sheet_trace(report: EvolutionReport) -> SheetTrace:
    """Per-step dominant eigenvalue branch and its non-adiabatic switches.

    Branch 0 is the one continuously connected to eta_plus at the first step;
    the eta value itself is tracked (not the index) so the sequence is stable
    across branch-cut crossings where index labels swap. A switch is any step
    where the dominant normalized weight group changes branch.
    """
    if report.per_step is None:
        raise DomainError("sheet_trace needs a report recorded with record_steps=True")
    dominant = []
    eta_track = None
    for rec in report.per_step:
        eta_plus, eta_minus = rec.eta
        w = rec.weights
        group_plus, group_minus = w[0] + w[3], w[1] + w[2]
        if eta_track is None:
            eta_track = eta_plus
            dominant.append(0 if group_plus > group_minus else 1)
            continue
        if abs(eta_plus - eta_track) <= abs(eta_minus - eta_track):
            tracked, eta_track = group_plus, eta_plus
        else:
            tracked, eta_track = group_minus, eta_minus
        dominant.append(0 if tracked >= 0.5 else 1)
    switch_steps = tuple(
        rec.index
        for prev, cur, rec in zip(dominant, dominant[1:], report.per_step[1:])
        if prev != cur
    )
    return SheetTrace(dominant=tuple(dominant), switches=len(switch_steps), switch_steps=switch_steps)


def min_case_fidelity(schedules: dict[str, LoopSchedule]) -> float:
    """Minimum over the 8 chirality cases of fidelity to the target Bell state.

    Inputs are the start-point eigenstates labeled by nearest Bell state; the
    schedules dict supplies one schedule per direction; the simplified engine
    runs every case.
    """
    worst = math.inf
    for (direction, j), target in CHIRAL_TARGETS.items():
        sched = schedules[direction]
        psi0 = bell_eigenstate(j, sched.steps[0])
        rep = evolve_simplified(sched, psi0, input_label=BELL_LABELS[j - 1], record_steps=False)
        worst = min(worst, rep.fidelities[target - 1])
    return worst


@dataclass(frozen=True)
class OptimizeResult:
    increments: tuple[float, ...]
    objective: float
    baseline_objective: float

    def schedule(self, direction: str) -> LoopSchedule:
        return _schedule_from_increments(np.asarray(self.increments), direction)

    def schedules(self) -> dict[str, LoopSchedule]:
        return {d: self.schedule(d) for d in DIRECTIONS}


def _schedule_from_increments(incr: np.ndarray, direction: str) -> LoopSchedule:
    """Loop-1 schedule from the start point whose phase steps are `incr`."""
    phases = -math.pi / 2 + direction_sign(direction) * np.concatenate(
        [[0.0], np.cumsum(incr[:-1])]
    )
    return schedule_from_phases(phases, direction, label="loop1-optimized")


def _increments_from_x(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return 2 * math.pi * e / e.sum()


def optimize_schedule(
    n_steps: int,
    seed: int = 20260815,
    multistarts: int = 6,
    maxiter: int = 2000,
) -> OptimizeResult:
    """Tune unequal loop-phase spacing to maximize the worst chirality case.

    The N positive phase increments live on a softmax simplex scaled to a full
    turn, with the first phase pinned to the shared start point; Nelder-Mead
    runs from equal spacing plus seeded random restarts, and the best of all
    starts (including the unoptimized one) is kept, so the result never falls
    below the equal-spacing baseline.
    """
    from scipy.optimize import minimize

    if n_steps < 4:
        raise ConfigError(f"optimizer needs at least 4 steps, got {n_steps}")
    if multistarts < 1:
        raise ConfigError(f"optimizer needs at least 1 start, got {multistarts}")

    def neg_objective(x: np.ndarray) -> float:
        incr = _increments_from_x(x)
        return -min_case_fidelity({d: _schedule_from_increments(incr, d) for d in DIRECTIONS})

    rng = np.random.default_rng(seed)
    best_x, best_val = None, -math.inf
    baseline = None
    for trial in range(multistarts):
        x0 = np.zeros(n_steps) if trial == 0 else rng.normal(0.0, 0.8, n_steps)
        res = minimize(
            neg_objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-6},
        )
        if trial == 0:
            baseline = -neg_objective(np.zeros(n_steps))
            if baseline > best_val:
                best_x, best_val = np.zeros(n_steps), baseline
        if -res.fun > best_val:
            best_x, best_val = res.x, -res.fun
    return OptimizeResult(
        increments=tuple(float(v) for v in _increments_from_x(best_x)),
        objective=float(best_val),
        baseline_objective=float(baseline),
    )
