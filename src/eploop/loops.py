"""Closed parameter loops, multi-step evolution, and loop diagnostics.

A schedule holds the five step knobs of a closed loop in the (phi, theta1)
plane around (or away from) the EP as floats or (N,) arrays. One propagation
core, _propagate, steps any number of runs (rows) together as arrays, looping
in Python over steps only: apply the step operator, renormalize, and
optionally record the eigenbasis weights of every step as arrays, with no
Python object per step. The two engines differ only in
the per-row step operator they hand it: full applies the closed-form
u_step(p_n) = C_n (I (x) M_n) C_n^-1, rebuilding the control pair at every
step; simplified applies C_0 (I (x) M_n) C_0^-1, with the control pair frozen
at the loop endpoint. evolve_full and evolve_simplified run one row,
evolve_many runs many schedules and inputs with step records, and
evolve_batch runs many (theta1, phi) rows to their final states, the
simplified engine as one collapsed 2x2 chain per row. Step operators,
control pairs and step-record eigenbases come from one call of their array
forms per batch, never from the one-row u_step, control_operator or
eigensystem; only the simplified engine's M take one walk_operator_closed
call per step, for perfbench's tracer. Diagnostics cover sheet tracking, the
step-to-step drift of the control operator, and a small-N schedule optimizer.
Its objective (_objective_rows over _case_fidelities) scores many points per
call, running the simplified engine in collapsed form: one stacked 2x2 chain
per direction of each point. An in-house Nelder-Mead (_nelder_mead) moves all
starts in lockstep, scoring the points of each simplex step in one such call;
it takes scipy's steps bit for bit, and scipy is not imported.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .metrics import BELL_LABELS, bell_index, bell_state, classify_rows, density_matrix
from .spectrum import eigensystem, eigensystem_array
from .walk import (
    WalkParams,
    control_operator_array,
    u_step_array,
    walk_operator_closed,
    walk_operator_closed_array,
)

DIRECTIONS = ("cw", "ccw")
# Loop 1, the EP-enclosing circle, and the default of every circular schedule
LOOP1_RADIUS, LOOP1_CENTER = 0.2, -0.4

# classification targets around Loop 1: the direction, not the input, picks
# the output within each invariant block {zeta1, zeta2} / {zeta3, zeta4}
CHIRAL_TARGETS = {
    ("cw", 1): 2, ("cw", 2): 2, ("cw", 3): 3, ("cw", 4): 3,
    ("ccw", 1): 1, ("ccw", 2): 1, ("ccw", 3): 4, ("ccw", 4): 4,
}


@dataclass(frozen=True, eq=False)
class LoopSchedule:
    """N walk steps around a loop as their five knobs (theta1, theta2, phi, gamma, k), the
    argument order of the array forms: each a float that every step shares or a read-only
    (N,) array. Circular schedules vary theta1 and phi only."""

    knobs: tuple
    direction: str
    label: str
    n_steps: int = field(init=False)

    def __post_init__(self):
        knobs = tuple(float(v) if np.ndim(v) == 0 else np.array(v, dtype=float) for v in self.knobs)
        arrays = [v for v in knobs if isinstance(v, np.ndarray)]
        if len(knobs) != 5 or len({v.shape for v in arrays}) != 1 or arrays[0].ndim != 1 or not arrays[0].size:
            raise ConfigError("schedule needs at least 1 step: five knobs, floats or (N,) arrays of one length")
        _check_direction(self.direction)
        for v in arrays:
            v.flags.writeable = False
        object.__setattr__(self, "knobs", knobs)
        object.__setattr__(self, "n_steps", len(arrays[0]))

    @classmethod
    def from_steps(cls, steps, direction: str, label: str = "custom") -> LoopSchedule:
        """The schedule whose five knobs all vary step by step, one WalkParams per step."""
        return cls(tuple(np.array([p.knobs for p in steps], dtype=float).reshape(-1, 5).T), direction, label)

    @property
    def start(self) -> WalkParams:
        """The first step, where the loop starts and closes."""
        return WalkParams(*(v if isinstance(v, float) else float(v[0]) for v in self.knobs))

    @property
    def steps(self) -> tuple[WalkParams, ...]:
        """One WalkParams per step, built anew on each call."""
        return tuple(WalkParams(*p) for p in zip(*(_per_step(v, self.n_steps).tolist() for v in self.knobs)))


def _per_step(knob, n_steps: int) -> np.ndarray:
    """A schedule knob as one value per step: its (N,) array, or its float N times."""
    return knob if isinstance(knob, np.ndarray) else np.full(n_steps, knob)


def _check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {tuple(ENGINES)}, got {engine!r}")
    return engine


def direction_sign(direction: str) -> float:
    """+1 for counter-clockwise, -1 for clockwise."""
    return 1.0 if _check_direction(direction) == "ccw" else -1.0


def equal_phases(n_steps: int, direction: str) -> np.ndarray:
    """Equally spaced loop phases t_n = sign*2*pi*n/N - pi/2, n = 0..N-1."""
    if n_steps < 1:
        raise ConfigError(f"schedule needs at least 1 step, got {n_steps}")
    n = np.arange(n_steps)
    return direction_sign(direction) * 2 * math.pi * n / n_steps - math.pi / 2


# theta2, gamma and k of every circular schedule and of evolve_batch
_DEFAULT = WalkParams(theta1=0.0)


def _circle(phases, radius: float, theta1_center: float) -> tuple[np.ndarray, np.ndarray]:
    """(theta1, phi) = (radius*sin(t) + center, radius*cos(t)) at every phase t."""
    t = np.asarray(phases, dtype=float)
    return radius * np.sin(t) + theta1_center, radius * np.cos(t)


def schedule_from_phases(phases, direction: str, radius: float = LOOP1_RADIUS, theta1_center: float = LOOP1_CENTER,
                         label: str = "custom") -> LoopSchedule:
    """Schedule tracing phi = radius*cos(t), theta1 = radius*sin(t) + center (other knobs default)."""
    _check_direction(direction)
    if not (np.isfinite(np.asarray(phases, dtype=float)).all() and math.isfinite(radius)
            and math.isfinite(theta1_center)):
        raise ConfigError("schedule phases, radius and center must be finite")
    theta1, phi = _circle(phases, radius, theta1_center)
    return LoopSchedule((theta1, _DEFAULT.theta2, phi, _DEFAULT.gamma, _DEFAULT.k), direction, label)


def loop1_schedule(n_steps: int, direction: str) -> LoopSchedule:
    """EP-enclosing circle: radius 0.2 around theta1 = -0.4, start (0, -0.6)."""
    return schedule_from_phases(equal_phases(n_steps, direction), direction, label="loop1")


def loop2_schedule(n_steps: int, direction: str) -> LoopSchedule:
    """EP-avoiding circle: radius 0.1 around theta1 = -0.5, same start point."""
    return schedule_from_phases(equal_phases(n_steps, direction), direction, radius=0.1, theta1_center=-0.5,
                                label="loop2")


_BELLS = np.array([bell_state(j) for j in (1, 2, 3, 4)])


def bell_eigenstates(p: WalkParams) -> np.ndarray:
    """Normalized right eigenstates of u_step(p); row j-1 is the one nearest Bell state j.

    Labeling by overlap rather than by eigenvalue index is stable across the
    square-root branch cut at phi = 0, where index labels swap but the
    physical rays do not.
    """
    alpha = np.array([a / np.linalg.norm(a) for a in eigensystem(p).alpha])
    return alpha[np.argmax(np.abs(_BELLS.conj() @ alpha.T), axis=1)]


def bell_eigenstate(label, p: WalkParams) -> np.ndarray:
    """The normalized right eigenstate of u_step(p) nearest the given Bell state."""
    return bell_eigenstates(p)[bell_index(label) - 1]


def expected_output(direction: str, label) -> str:
    """Chirality-table target around Loop 1 for a given input and direction."""
    return BELL_LABELS[CHIRAL_TARGETS[(_check_direction(direction), bell_index(label))] - 1]


@dataclass(frozen=True, eq=False)
class StepRecords:
    """Every step of one evolution as read-only arrays, row n for step n: the state's weights in the
    biorthogonal eigenbasis of u_step, raw and normalized to sum 1 (N, 4), the accumulated log of the
    discarded norms (N,) and the (eta_plus, eta_minus) pair of the step's u_step (N, 2)."""

    weights_raw: np.ndarray
    weights: np.ndarray
    log_magnitude: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True, eq=False)
class EvolutionReport:
    """One evolution's outcome; reports compare and hash by identity, as their array fields
    have no single truth value."""

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
    per_step: StepRecords | None


def _normalized(state) -> np.ndarray:
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise DomainError(f"state must have 4 amplitudes, got shape {psi.shape}")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise DomainError("cannot normalize the zero state")
    return psi / nrm


def _canonical_label(label) -> str:
    try:
        return BELL_LABELS[bell_index(label) - 1]
    except DomainError:
        return str(label)


def _propagate(ops, psi0, knobs: tuple | None = None):
    """The propagation core of both engines: every row r from psi0[r] through ops[n][r].

    ops yields one (rows, 4, 4) array of step operators per step, the only
    thing an engine chooses. The state is renormalized after every step; the
    discarded magnitudes accumulate in log_magnitude (scale-free for every
    reported quantity but diagnostic for gain/loss balance). Given the five
    knobs, each a float or (rows, steps), every step is recorded: the state's
    weights in the biorthogonal eigenbasis of u_step (sheet tracking) and the
    eta pair. Every value takes the same floating-point operations as a
    per-row loop of u_step(p) @ psi, np.linalg.norm, math.log and vdot with
    eigensystem(p).beta, so it is bitwise that loop's and independent of the
    rows beside it. Returns the final states, the log magnitudes and one
    StepRecords per row (or None), slices of one stacked computation.
    """
    psi = np.array([_normalized(s) for s in psi0])
    eigen = None if knobs is None else eigensystem_array(*knobs)
    states, norms = [], []
    for u in ops:
        psi = np.matmul(u, psi[:, :, None])[:, :, 0]
        re, im = psi.real[:, None, :], psi.imag[:, None, :]
        nrm = np.sqrt(np.matmul(re, re.mT) + np.matmul(im, im.mT))[:, :, 0]
        psi = psi / nrm
        norms.append(nrm[:, 0])
        if eigen is not None:
            states.append(psi)
    logmag = np.cumsum([[math.log(x) for x in row] for row in np.array(norms).T.tolist()], axis=1)  # np.log differs
    if eigen is None:
        return psi, logmag[:, -1].tolist(), None
    eta, _, beta = eigen
    z = np.vecdot(beta, np.stack(states, axis=1)[:, :, None, :])
    raw = np.array([a ** 2 for a in np.hypot(z.real, z.imag).ravel().tolist()]).reshape(z.shape)  # numpy's x*x differs
    weights = raw / (((raw[..., 0] + raw[..., 1]) + raw[..., 2]) + raw[..., 3])[..., None]  # sum() as before 3.12
    for a in (raw, weights, logmag, eta):
        a.flags.writeable = False
    return psi, logmag[:, -1].tolist(), [StepRecords(*row) for row in zip(raw, weights, logmag, eta)]


def _step_operators(engine: str, knobs, schedules):
    """One engine's (rows, 4, 4) step operators, step by step, for the stacked knobs of the schedules.

    The simplified engine applies C_r (I (x) M_rn) C_r^-1 with the control pair
    at row r's first step. (I (x) M) is the block diagonal of two M, so that is
    sum_ij M_ij E_ij with per-row constants E_ij = sum_b C[:, 2b+i] C^-1[2b+j, :].
    Its M come from one walk_operator_closed call, the one-row case of
    walk_operator_closed_array, per step of each distinct schedule object,
    which keeps that layer visible to perfbench's per-function tracer.
    """
    if _check_engine(engine) == "full":
        return np.moveaxis(u_step_array(*knobs), 1, 0)
    c, c_inv = control_operator_array(*(k if np.ndim(k) == 0 else k[:, 0] for k in knobs))  # at each row's start
    e = np.einsum("raqi,rqjb->rijab", c.reshape(-1, 4, 2, 2), c_inv.reshape(-1, 2, 2, 4)).reshape(-1, 4, 16)
    chains = {key: [walk_operator_closed(p) for p in s.steps] for key, s in {id(s): s for s in schedules}.items()}
    m = np.array([chains[id(s)] for s in schedules])
    return (np.matmul(m[:, n].reshape(-1, 1, 4), e).reshape(-1, 4, 4) for n in range(m.shape[1]))


def _stacked_knobs(schedules) -> tuple:
    """The five knobs of schedules of one length N, row by row: the float itself where every
    schedule holds the same float (bit for bit), else a (rows, N) array."""
    n = schedules[0].n_steps
    return tuple(
        column[0] if all(isinstance(v, float) for v in column) and len({v.hex() for v in column}) == 1
        else np.array([_per_step(v, n) for v in column])
        for column in zip(*(s.knobs for s in schedules)))


def evolve_many(schedules, inputs, labels, engine: str = "full",
                record_steps: bool = True) -> list[EvolutionReport]:
    """Run row r's input through row r's schedule, every row in one propagation.

    The schedules must have equal length. Each report is bitwise the one
    evolve gives for that row alone.
    """
    if len({s.n_steps for s in schedules}) != 1:
        raise ConfigError("evolve_many needs schedules of one length")
    knobs = _stacked_knobs(schedules)
    psi, logmag, records = _propagate(_step_operators(engine, knobs, schedules), inputs,
                                      knobs if record_steps else None)
    reports = []
    for r, (sched, label, cls) in enumerate(zip(schedules, labels, classify_rows(psi))):
        reports.append(EvolutionReport(
            input_label=_canonical_label(label), direction=sched.direction, n_steps=sched.n_steps,
            loop_label=sched.label, engine=engine, output_state=psi[r], output_density=density_matrix(psi[r]),
            fidelities=cls.fidelities, classified_output=cls.label, tie=cls.tie, log_magnitude=logmag[r],
            per_step=None if records is None else records[r]))
    return reports


def evolve_full(schedule: LoopSchedule, input_state, input_label: str = "custom",
                record_steps: bool = True) -> EvolutionReport:
    """Run the schedule with the per-step closed-form operator u_step."""
    return evolve_many([schedule], [input_state], [input_label], "full", record_steps)[0]


def evolve_simplified(schedule: LoopSchedule, input_state, input_label: str = "custom",
                      record_steps: bool = True) -> EvolutionReport:
    """Run the schedule with the control pair frozen at the loop endpoint.

    Each step applies C (I (x) M_n) C^-1 with (C, C^-1) evaluated at the
    schedule's first parameters (for a closed loop the start is the endpoint).
    """
    return evolve_many([schedule], [input_state], [input_label], "simplified", record_steps)[0]


ENGINES = {"full": evolve_full, "simplified": evolve_simplified}


def evolve(schedule: LoopSchedule, input_state, engine: str = "full", input_label: str = "custom",
           record_steps: bool = True) -> EvolutionReport:
    return ENGINES[_check_engine(engine)](schedule, input_state, input_label=input_label, record_steps=record_steps)


def _chain_products(m: np.ndarray) -> np.ndarray:
    """P_r = M_{r,N-1}...M_{r,0} for every row of an (rows, N, 2, 2) stack, up to a positive scale.

    Pairwise levels: each multiplies the odd steps onto the even ones and
    carries an odd tail, so ceil(log2 N) levels in place of N steps. The 2x2
    products are written out entry by entry (batched @ on 2x2 blocks is about
    4x slower), and each is divided by its largest |entry|, which leaves every
    normalized output as it is and keeps long loops finite.
    """
    x = np.moveaxis(m.reshape(*m.shape[:2], 4), -1, 0)  # (4, rows, N): entries 00, 01, 10, 11
    while x.shape[2] > 1:
        hi, lo = x[:, :, 1::2], x[:, :, 0:x.shape[2] - 1:2]
        prod = np.stack([hi[0] * lo[0] + hi[1] * lo[2], hi[0] * lo[1] + hi[1] * lo[3],
                         hi[2] * lo[0] + hi[3] * lo[2], hi[2] * lo[1] + hi[3] * lo[3]])
        prod /= np.abs(prod).max(axis=0)
        x = np.concatenate([prod, x[:, :, -1:]], axis=2) if x.shape[2] % 2 else prod
    return np.moveaxis(x[:, :, 0], 0, -1).reshape(-1, 2, 2)


def evolve_batch(theta1, phi, psi0, engine: str) -> np.ndarray:
    """Final normalized states of many runs of one engine, propagated together.

    Row r steps through (theta1[r, n], phi[r, n]), n = 0..N-1, with the other
    knobs at their WalkParams defaults, from the state psi0[r]. The full
    engine runs the propagation core without step records. The simplified
    engine runs in collapsed form, normalize(C_0 (I (x) P) C_0^-1 psi0) with
    one 2x2 chain P per row from _chain_products: equal to evolve_simplified
    up to rounding, not bitwise.
    """
    _check_engine(engine)
    knobs = (np.asarray(theta1, dtype=float), _DEFAULT.theta2, np.asarray(phi, dtype=float), _DEFAULT.gamma, _DEFAULT.k)
    if engine == "full":
        return _propagate(np.moveaxis(u_step_array(*knobs), 1, 0), psi0)[0]
    c, c_inv = control_operator_array(*(k if np.ndim(k) == 0 else k[:, 0] for k in knobs))  # at each row's start
    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim != 2 or psi.shape[1] != 4:
        raise DomainError(f"states must have 4 amplitudes each, got shape {psi.shape}")
    nrm = np.linalg.norm(psi, axis=1)
    if not nrm.all():
        raise DomainError("cannot normalize the zero state")
    framed = (c_inv @ (psi / nrm[:, None])[:, :, None]).reshape(-1, 2, 2)  # C_0^-1 psi0 as (block, coin)
    out = (c @ (framed @ _chain_products(walk_operator_closed_array(*knobs)).mT).reshape(-1, 4, 1))[:, :, 0]
    return out / np.linalg.norm(out, axis=1)[:, None]


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
    C, C_inv = control_operator_array(*schedule.knobs)
    d = np.roll(C_inv, -1, axis=0) @ C
    dev_id, dev_flip = (np.abs(d - e).max(axis=(1, 2)) for e in (np.eye(4), _K_FLIP))
    deviations = np.minimum(dev_id, dev_flip).tolist()
    return ControlDriftReport(deviations=tuple(deviations), global_max=max(deviations),
                              flips=int((dev_flip < dev_id).sum()))


@dataclass(frozen=True)
class SheetTrace:
    switches: int
    switch_steps: tuple[int, ...]


def sheet_trace(report: EvolutionReport) -> SheetTrace:
    """Non-adiabatic switches of the per-step dominant eigenvalue branch.

    Branch 0 is the one continuously connected to eta_plus at the first step;
    the eta value itself is tracked (not the index) so the sequence is stable
    across branch-cut crossings where index labels swap. A switch is any step
    where the dominant normalized weight group changes branch.
    """
    if report.per_step is None:
        raise DomainError("sheet_trace needs a report recorded with record_steps=True")
    w, eta = report.per_step.weights, report.per_step.eta.tolist()
    groups = np.stack([w[:, 0] + w[:, 3], w[:, 1] + w[:, 2]], axis=1).tolist()  # (plus, minus) per step
    eta_track, dominant = eta[0][0], [0 if groups[0][0] > groups[0][1] else 1]
    for (eta_plus, eta_minus), (group_plus, group_minus) in zip(eta[1:], groups[1:]):
        if abs(eta_plus - eta_track) <= abs(eta_minus - eta_track):
            tracked, eta_track = group_plus, eta_plus
        else:
            tracked, eta_track = group_minus, eta_minus
        dominant.append(0 if tracked >= 0.5 else 1)
    switch_steps = tuple(n for n in range(1, len(dominant)) if dominant[n] != dominant[n - 1])
    return SheetTrace(switches=len(switch_steps), switch_steps=switch_steps)


@functools.lru_cache(maxsize=16)
def _start_frames(starts: tuple[WalkParams, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The constants of collapsed chains from the given starts, stacked row by row:
    C_0^T (rows, 4, 4) and the four start eigenstates in the control frame,
    psi_j C_0^-1^T as (rows, 4, 2, 2)."""
    C, C_inv = control_operator_array(*np.array([p.knobs for p in starts]).T)
    c_t = C.mT.copy()
    a = np.array([(bell_eigenstates(p) @ c_inv.T).reshape(4, 2, 2) for p, c_inv in zip(starts, C_inv)])
    c_t.flags.writeable = a.flags.writeable = False
    return c_t, a


_TARGET_ROWS = {d: np.array([bell_state(CHIRAL_TARGETS[d, j]) for j in (1, 2, 3, 4)]) for d in DIRECTIONS}


def _case_fidelities(knobs, starts: tuple[WalkParams, ...], directions) -> list[float]:
    """Fidelity to its target Bell state of every chirality case, four per row, row by row.

    knobs are the five step knobs (theta1, theta2, phi, gamma, k), each
    broadcastable to (rows, N); row r runs in direction directions[r], and
    starts[r] is its first step, whose eigenstates are the inputs (a single
    start serves all rows). The outputs are the simplified engine's, in
    collapsed form:
    normalize(C_0 (I (x) P) C_0^-1 psi_j) with one 2x2 chain
    P = M_{N-1}...M_0 per row, applied to the four inputs as one 4x4 block.
    This equals evolve_simplified exactly; P is rescaled at every step in
    place of the engine's renormalization. All rows step together, and every
    value takes the same floating-point operations as the one-row scalar form,
    so it is bitwise that form's.
    """
    m = walk_operator_closed_array(*knobs)
    P = np.eye(2, dtype=complex)
    for n in range(m.shape[1]):
        P = m[:, n] @ P
        P /= np.abs(P).max(axis=(1, 2))[:, None, None]  # unscaled, |P| reaches 1e115 at N = 5000 on loop 1
    c_t, a = _start_frames(starts)
    out = (a @ P.mT[:, None]).reshape(-1, 4, 4) @ c_t
    out = out / np.sqrt(np.vecdot(out.real, out.real) + np.vecdot(out.imag, out.imag))[..., None]
    overlaps = np.vecdot(np.array([_TARGET_ROWS[d] for d in directions]), out)
    return np.hypot(overlaps.real, overlaps.imag).ravel().tolist()  # bitwise Python's abs; np.abs differs


def min_case_fidelity(schedules: dict[str, LoopSchedule]) -> float:
    """Minimum over the 8 chirality cases of fidelity to the target Bell state.

    Inputs are the start-point eigenstates labeled by nearest Bell state; the
    schedules dict supplies one schedule per direction, under its own
    direction's key (else ConfigError). Schedules of one length run through
    _case_fidelities together, so the two directions may differ in length.
    """
    by_length: dict[int, list[LoopSchedule]] = {}
    for d in DIRECTIONS:
        if schedules[d].direction != d:
            raise ConfigError(f"schedules[{d!r}] runs {schedules[d].direction!r}, not the direction of its key")
        by_length.setdefault(schedules[d].n_steps, []).append(schedules[d])
    fidelities = [f for group in by_length.values() for f in _case_fidelities(
        _stacked_knobs(group), tuple(s.start for s in group), [s.direction for s in group])]
    if not all(map(math.isfinite, fidelities)):  # min skips NaN
        raise DomainError(f"case fidelities must be finite, got {fidelities}")
    return min(math.inf, *fidelities)


@dataclass(frozen=True)
class OptimizeResult:
    increments: tuple[float, ...]
    objective: float
    baseline_objective: float

    def schedule(self, direction: str) -> LoopSchedule:
        """The loop-1 schedule from the start point whose phase steps are the increments."""
        phases = _increment_phases(np.asarray(self.increments), direction_sign(direction))
        return schedule_from_phases(phases, direction, label="loop1-optimized")

    def schedules(self) -> dict[str, LoopSchedule]:
        return {d: self.schedule(d) for d in DIRECTIONS}


def _increment_phases(incr: np.ndarray, sign) -> np.ndarray:
    """Loop phases from the start point whose phase steps are `incr` (along its last axis), turning
    by sign: +1 counter-clockwise, -1 clockwise, or an array of signs that broadcasts."""
    turns = np.concatenate([np.zeros_like(incr[..., :1]), np.cumsum(incr[..., :-1], axis=-1)], axis=-1)
    return -math.pi / 2 + sign * turns


def _increments_from_x(x: np.ndarray) -> np.ndarray:
    """Phase increments from the optimizer's variables, along the last axis: a softmax scaled to a full turn."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return 2 * math.pi * e / e.sum(axis=-1, keepdims=True)


# scipy.optimize's Nelder-Mead coefficients (reflection, expansion, contraction, shrink), and
# the optimizer's tolerances on the simplex's spread in x and in value
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-4, 1e-6
# simplex entries a lockstep group of starts holds (a group has at least one start), and the
# row-steps one objective call scores at most: memory stays flat in the number of starts
_LOCKSTEP_ENTRIES = 2**14
_SIGNS = np.array([[direction_sign(d)] for d in DIRECTIONS])  # row d of _objective_rows' (B, 2, N) phases


def _objective_rows(x: np.ndarray) -> np.ndarray:
    """The optimizer's objective at every row of x (B, N): min_case_fidelity of the loop-1
    schedules whose increments come from that row, bitwise, on the schedules' own knobs with
    no LoopSchedule in between. Each value is independent of the rows beside it, so the rows
    are scored in chunks of at most _LOCKSTEP_ENTRIES row-steps."""
    rows = max(1, _LOCKSTEP_ENTRIES // x.shape[1])
    if len(x) > rows:
        return np.concatenate([_objective_rows(x[i:i + rows]) for i in range(0, len(x), rows)])
    phases = _increment_phases(_increments_from_x(x)[:, None], _SIGNS)  # (B, 2, N)
    theta1, phi = (v.reshape(-1, x.shape[1]) for v in _circle(phases, LOOP1_RADIUS, LOOP1_CENTER))
    start = WalkParams(theta1=theta1[0, 0].item(), phi=phi[0, 0].item())  # every row starts at phase -pi/2
    knobs = (theta1, _DEFAULT.theta2, phi, _DEFAULT.gamma, _DEFAULT.k)
    fidelities = _case_fidelities(knobs, (start,), DIRECTIONS * len(x))
    return np.array([min(math.inf, *fidelities[i:i + 8]) for i in range(0, len(fidelities), 8)])


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every simplex's vertices in ascending order of value, by np.argsort and a take per row."""
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead(f_rows, x0: np.ndarray, maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize f from every start x0[s] (S, N) by Nelder-Mead, all starts in lockstep; returns
    each start's (x, fun).

    f_rows maps (B, N) points to B values, each independent of the rows
    beside it. The steps are those of scipy.optimize's Nelder-Mead (Nelder &
    Mead, Comput. J. 7, 308, 1965) with the same coefficients, expressions and
    sorting, so each start visits scipy's points and returns its (x, fun) bit
    for bit. One iteration scores every running start's reflection in one
    call, then the expansions and contractions that the rules pick in at most
    one more, then every shrink in one more. A start stops on scipy's
    xatol/fatol test (_XATOL, _FATOL) or when the iterations, counted from 1,
    reach maxiter.
    """
    n_starts, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)  # scipy's nonzdelt and zdelt
    fsim = f_rows(sim.reshape(-1, n)).reshape(n_starts, n + 1)
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))  # sorted twice, as scipy does
    x, fun, running = np.empty_like(x0), np.empty(n_starts), np.arange(n_starts)
    for _ in range(1, maxiter):
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _FATOL))
        if done.any():
            x[running[done]], fun[running[done]] = sim[done, 0], np.min(fsim[done], axis=1)
            running, sim, fsim = running[~done], sim[~done], fsim[~done]
            if not len(running):
                break
        xbar, worst = np.add.reduce(sim[:, :-1], 1) / n, sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = f_rows(xr)
        expand = fxr < fsim[:, 0]
        keep_r = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~keep_r & (fxr < fsim[:, -1])
        inside = ~expand & ~keep_r & ~outside
        x2 = np.where(expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))  # expansion, outside or inside contraction
        fx2 = np.full(len(fxr), np.nan)
        if not keep_r.all():
            fx2[~keep_r] = f_rows(x2[~keep_r])
        take2 = (expand & (fx2 < fxr)) | (outside & (fx2 <= fxr)) | (inside & (fx2 < fsim[:, -1]))
        replace = keep_r | expand | take2  # the worst vertex; the other contractions shrink
        sim[replace, -1] = np.where(take2[:, None], x2, xr)[replace]
        fsim[replace, -1] = np.where(take2, fx2, fxr)[replace]
        if not replace.all():
            best, rest = sim[~replace, :1], sim[~replace, 1:]
            sim[~replace, 1:] = shrunk = best + _SIGMA * (rest - best)
            fsim[~replace, 1:] = f_rows(shrunk.reshape(-1, n)).reshape(-1, n)
        sim, fsim = _sort_simplices(sim, fsim)
    x[running], fun[running] = sim[:, 0], np.min(fsim, axis=1)
    return x, fun


def optimize_schedule(n_steps: int = 8, seed: int = 20260815, multistarts: int = 6,
                      maxiter: int = 2000) -> OptimizeResult:
    """Tune unequal loop-phase spacing to maximize the worst chirality case.

    The N positive phase increments live on a softmax simplex scaled to a full
    turn, with the first phase pinned to the shared start point. Nelder-Mead
    runs from equal spacing plus seeded random restarts, drawn in start order,
    and the best of all starts (including the unoptimized one) is kept, so the
    result never falls below the equal-spacing baseline. The starts run in
    lockstep (_nelder_mead), in groups of at most _LOCKSTEP_ENTRIES simplex
    entries, each step scoring all its points in one _objective_rows call; the
    result is bitwise scipy's Nelder-Mead run start by start, whatever the
    group size.
    """
    if n_steps < 4:
        raise ConfigError(f"optimizer needs at least 4 steps, got {n_steps}")
    if multistarts < 1:
        raise ConfigError(f"optimizer needs at least 1 start, got {multistarts}")
    if maxiter < 1:
        raise ConfigError(f"optimizer needs at least 1 iteration, got {maxiter}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    baseline = _objective_rows(np.zeros((1, n_steps)))[0]  # never NaN: min from math.inf skips NaN
    best_x, best_val = np.zeros(n_steps), baseline
    group = max(1, _LOCKSTEP_ENTRIES // (n_steps * (n_steps + 1)))
    for first in range(0, multistarts, group):
        x0 = np.array([np.zeros(n_steps) if trial == 0 else rng.normal(0.0, 0.8, n_steps)
                       for trial in range(first, min(first + group, multistarts))])
        for x, fun in zip(*_nelder_mead(lambda rows: -_objective_rows(rows), x0, maxiter)):
            if -fun > best_val:
                best_x, best_val = x, -fun
    return OptimizeResult(
        increments=tuple(float(v) for v in _increments_from_x(best_x)),
        objective=float(best_val),
        baseline_objective=float(baseline),
    )
