"""Closed parameter loops, multi-step evolution, and loop diagnostics.

A schedule holds the five step knobs of a closed loop in the (phi, theta1)
plane around (or away from) the EP as floats or (N,) arrays; LOOPS names the
loops a run can pick. One propagation core, _propagate, steps a grid of
schedules x inputs together as arrays, looping in Python over steps only:
apply each schedule's step operator to all its inputs, renormalize, and
optionally record every step's weights in the schedule's eigenbasis. The two
engines differ only in the step operators they hand it: full applies the
closed-form u_step(p_n) = C_n (I (x) M_n) C_n^-1, rebuilding the control pair
at every step; simplified applies C_0 (I (x) M_n) C_0^-1, with the control
pair frozen at the loop endpoint. evolve_many runs the grid with step records
(evolve_full and evolve_simplified its one-cell case). Runs that need only their
final states may take the simplified engine in collapsed form, one 2x2 chain per
run (pairwise on coin_entries' planes in evolve_batch), applied by _collapsed_states.
Every path checks and normalizes its inputs once, in _unit_rows; every norm is _row_norms.
Step operators, control pairs and eigenbases come from one call of their
array forms per batch, one per schedule; only the simplified engine's M take one
walk_operator_closed call per step, for perfbench's tracer. Diagnostics cover
sheet tracking, the step-to-step drift of the control operator, and a small-N
schedule optimizer. Its objective (_objective_rows over _case_fidelities)
scores many points per call in the collapsed form, one stacked 2x2 chain per
direction of each point. An in-house Nelder-Mead runs each start as an
ask-and-tell generator (_nelder_mead_start) that takes scipy's steps bit for
bit, and _nelder_mead scores the next points of every running start in one
such call, so the starts need not move in step; scipy is not imported.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .metrics import BELL_LABELS, BELL_ROWS, bell_index, density_matrix, nearest_bell
from .spectrum import eigensystem_array
from .walk import (
    WalkParams,
    control_operator_array,
    coin_entries,
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


class LoopSchedule:
    """N walk steps around a loop as their five knobs (theta1, theta2, phi, gamma, k), the
    argument order of the array forms: each a float that every step shares or a read-only
    (N,) array. Circular schedules vary theta1 and phi only. Schedules compare and hash by identity."""

    __slots__ = ("knobs", "direction", "label", "n_steps")

    def __init__(self, knobs: tuple, direction: str, label: str):
        knobs = tuple(float(v) if np.ndim(v) == 0 else np.array(v, dtype=float) for v in knobs)
        arrays = [v for v in knobs if isinstance(v, np.ndarray)]
        if len(knobs) != 5 or len({v.shape for v in arrays}) != 1 or arrays[0].ndim != 1 or not arrays[0].size:
            raise ConfigError("schedule needs at least 1 step: five knobs, floats or (N,) arrays of one length")
        for v in arrays:
            v.flags.writeable = False
        self.knobs, self.direction, self.label, self.n_steps = knobs, _check_direction(direction), label, len(arrays[0])

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


# theta2, gamma and k of every circular schedule
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


LOOPS = {1: loop1_schedule, 2: loop2_schedule}  # every loop a run can name, by its number


def bell_eigenstates(p: WalkParams) -> np.ndarray:
    """Normalized right eigenstates of u_step(p); row j-1 is the one nearest Bell state j.

    Labeling by overlap rather than by eigenvalue index is stable across the
    square-root branch cut at phi = 0, where index labels swap but the
    physical rays do not.
    """
    alpha = eigensystem_array(*p.knobs)[1]
    alpha = alpha / _row_norms(alpha)[:, None]
    return alpha[np.argmax(np.abs(BELL_ROWS.conj() @ alpha.T), axis=1)]


def bell_eigenstate(label, p: WalkParams) -> np.ndarray:
    """The normalized right eigenstate of u_step(p) nearest the given Bell state."""
    return bell_eigenstates(p)[bell_index(label) - 1]


class StepRecords(NamedTuple):
    """Every step of one evolution as read-only arrays, row n for step n: the state's weights in the
    biorthogonal eigenbasis of u_step, raw and normalized to sum 1 (N, 4), the accumulated log of the
    discarded norms (N,) and the (eta_plus, eta_minus) pair of the step's u_step (N, 2). Records compare
    and hash by identity, as their array fields have no single truth value."""

    weights_raw: np.ndarray
    weights: np.ndarray
    log_magnitude: np.ndarray
    eta: np.ndarray
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class EvolutionReport(NamedTuple):
    """One evolution's outcome; reports compare and hash by identity, as StepRecords do."""

    input_label: str
    direction: str
    n_steps: int
    loop_label: str
    engine: str
    output_state: np.ndarray
    output_density: np.ndarray
    fidelities: tuple[float, float, float, float]
    classified_output: str
    log_magnitude: float
    per_step: StepRecords | None
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _row_norms(s: np.ndarray) -> np.ndarray:
    """Each state's norm (last axis), bitwise np.linalg.norm of that state alone; inf, with a warning, on overflow."""
    return np.sqrt(np.vecdot(s.real, s.real) + np.vecdot(s.imag, s.imag))


def _unit_rows(states) -> np.ndarray:
    """A stack of states, each any shape of 4 amplitudes, as (rows, 4) unit rows: the one input check of both engines.
    A misshapen stack, or a state whose norm is zero or not finite, raises DomainError with no numpy warning."""
    try:
        psi = np.asarray(states, dtype=complex)
    except ValueError:  # e.g. a ragged stack
        raise DomainError("states must have 4 amplitudes each, got a stack that is not one complex array") from None
    if psi.ndim == 0 or math.prod(psi.shape[1:]) != 4:
        raise DomainError(f"states must have 4 amplitudes each, got shape {psi.shape}")
    with np.errstate(over="ignore"):  # a norm that overflows is rejected below
        nrm = _row_norms(psi := psi.reshape(len(psi), 4))
    bad = nrm[(nrm == 0) | ~np.isfinite(nrm)]  # an amplitude that is not finite, or a norm that overflows
    if len(bad):
        raise DomainError(f"cannot normalize a state of norm {bad[0]}" if bad[0] else "cannot normalize the zero state")
    return psi / nrm[:, None]


def _canonical_label(label) -> str:
    try:
        return BELL_LABELS[bell_index(label) - 1]
    except DomainError:
        return str(label)


def _propagate(ops, psi, knobs: tuple | None = None):
    """The propagation core of both engines: input i of schedule s from the unit state psi[s, i] through ops[n][s].

    ops yields one (S, 4, 4) array of step operators per step, one per
    schedule and shared by its inputs, the only thing an engine chooses. The
    state is renormalized after every step; the discarded magnitudes
    accumulate in log_magnitude (scale-free for every reported quantity but
    diagnostic for gain/loss balance). Given the five knobs, each a float or
    (S, steps), every step is recorded: the state's weights in the schedule's
    biorthogonal eigenbasis of u_step (sheet tracking) and the eta pair. Every
    value takes the same floating-point operations as a per-input loop of
    u_step(p) @ psi, np.linalg.norm, math.log and vdot with eigensystem(p).beta,
    so it is bitwise that loop's and independent of the runs beside it. Returns
    the final states (S, I, 4), and the log magnitudes and StepRecords (or
    None) of every input, schedule-major, slices of one stacked computation.
    """
    eigen = None if knobs is None else eigensystem_array(*knobs)
    states, norms = [], []
    for u in ops:
        psi = np.matmul(u[:, None], psi[..., None])[..., 0]
        nrm = _row_norms(psi)
        psi = psi / nrm[..., None]
        norms.append(nrm.ravel())
        if eigen is not None:
            states.append(psi)
    logmag = np.cumsum([[math.log(x) for x in row] for row in np.array(norms).T.tolist()], axis=1)  # np.log differs
    if eigen is None:
        return psi, logmag[:, -1].tolist(), [None] * len(logmag)
    eta, beta = eigen[0].repeat(psi.shape[1], axis=0), eigen[2]  # one eta pair per input, its schedule's
    z = np.vecdot(beta[:, None], np.stack(states, axis=2)[..., None, :]).reshape(logmag.shape + (4,))
    raw = np.array([a ** 2 for a in np.hypot(z.real, z.imag).ravel().tolist()]).reshape(z.shape)  # numpy's x*x differs
    weights = raw / (((raw[..., 0] + raw[..., 1]) + raw[..., 2]) + raw[..., 3])[..., None]  # sum() as before 3.12
    for a in (raw, weights, logmag, eta):
        a.flags.writeable = False
    return psi, logmag[:, -1].tolist(), [StepRecords(*row) for row in zip(raw, weights, logmag, eta)]


def _step_operators(engine: str, knobs, schedules):
    """One engine's (S, 4, 4) step operators, step by step, one per schedule, for their stacked knobs.

    The simplified engine applies C_s (I (x) M_sn) C_s^-1 with the control pair
    at schedule s's first step. (I (x) M) is the block diagonal of two M, so that is
    sum_ij M_ij E_ij with per-schedule constants E_ij = sum_b C[:, 2b+i] C^-1[2b+j, :].
    Its M come from one walk_operator_closed call, the one-row case of
    walk_operator_closed_array, per step of each schedule, which keeps that
    layer visible to perfbench's per-function tracer.
    """
    if _check_engine(engine) == "full":
        return np.moveaxis(u_step_array(*knobs), 1, 0)
    c, c_inv = control_operator_array(*(k if np.ndim(k) == 0 else k[:, 0] for k in knobs))  # at each row's start
    e = np.einsum("raqi,rqjb->rijab", c.reshape(-1, 4, 2, 2), c_inv.reshape(-1, 2, 2, 4)).reshape(-1, 4, 16)
    m = np.array([[walk_operator_closed(p) for p in s.steps] for s in schedules])
    return (np.matmul(m[:, n].reshape(-1, 1, 4), e).reshape(-1, 4, 4) for n in range(m.shape[1]))


def _frames(start_knobs, inputs) -> tuple[np.ndarray, np.ndarray]:
    """The read-only constants of collapsed chains from the given starts, row by row: C_0^T (rows, 4, 4) and
    each row's inputs (rows, I, 4) in the control frame, psi C_0^-1^T as (rows, 2 * I, 2), one row per block."""
    c, c_inv = control_operator_array(*start_knobs)
    c_t, a = c.mT.copy(), (inputs @ c_inv.mT).reshape(len(c), -1, 2)
    c_t.flags.writeable = a.flags.writeable = False
    return c_t, a


def _collapsed_states(P: np.ndarray, frames: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The simplified engine's outputs normalize(C_0 (I (x) P) C_0^-1 psi) as (len(C_0^T), -1, 4), one 2x2 chain
    P = M_{N-1}...M_0 per row (rows, 2, 2) applied to its row's inputs in _frames, or to those of one shared start."""
    c_t, a = frames
    out = (a @ P.mT).reshape(len(c_t), -1, 4) @ c_t  # one shared start: one (4 * rows, 4) @ (4, 4)
    return out / _row_norms(out)[..., None]


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
    """Run every input of every schedule, the S x I grid in one propagation and one nearest_bell call.

    The S schedules must have one length, and their inputs share their step operators and eigenbases. inputs
    holds S x I states schedule-major, input i of schedule s in row s * I + i (harness.case_inputs' layout),
    and labels the I input labels. The reports come in that order, each bitwise the one evolve gives alone.
    """
    if len({s.n_steps for s in schedules}) != 1:
        raise ConfigError("evolve_many needs schedules of one length")
    knobs = _stacked_knobs(schedules)
    ops, psi = _step_operators(engine, knobs, schedules), _unit_rows(inputs)
    if len(psi) != len(schedules) * len(labels):
        raise ConfigError(f"evolve_many needs {len(schedules)} x {len(labels)} inputs, got {len(psi)}")
    psi, logmag, records = _propagate(ops, psi.reshape(len(schedules), len(labels), 4), knobs if record_steps else None)
    fids, index, _ = nearest_bell(psi := psi.reshape(-1, 4))
    cases = [(sched, _canonical_label(label)) for sched in schedules for label in labels]
    return [EvolutionReport(
        input_label=label, direction=sched.direction, n_steps=sched.n_steps, loop_label=sched.label, engine=engine,
        output_state=psi[r], output_density=density_matrix(psi[r]), fidelities=tuple(f),
        classified_output=BELL_LABELS[j], log_magnitude=logmag[r], per_step=records[r])
        for r, ((sched, label), f, j) in enumerate(zip(cases, fids.tolist(), index.tolist()))]


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


def _chain_products(m00, m01, m10, m11) -> np.ndarray:
    """P_r = M_{r,N-1}...M_{r,0} (rows, 2, 2) from the four (rows, N) entry planes of M, up to a positive scale.

    Pairwise levels: each multiplies the odd steps onto the even ones and
    carries an odd tail, so ceil(log2 N) levels in place of N steps. The 2x2
    products are written out plane by plane (batched @ on 2x2 blocks is about
    4x slower), and each is divided by its largest |entry|, which leaves every
    normalized output as it is and keeps long loops finite.
    """
    x = (m00, m01, m10, m11)
    while (n := x[0].shape[1]) > 1:
        a, b, c, d = (v[:, 1::2] for v in x)  # the odd steps
        e, f, g, h = (v[:, 0:n - 1:2] for v in x)  # the even steps before them
        prod = np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])
        prod /= np.maximum.reduce(np.abs(prod))
        x = tuple(np.concatenate([prod, np.stack([v[:, -1:] for v in x])], axis=2) if n % 2 else prod)
    return np.stack([v[:, 0] for v in x], axis=-1).reshape(-1, 2, 2)


def evolve_batch(knobs, psi0, engine: str) -> np.ndarray:
    """Final normalized states of many runs of one engine, propagated together: row r from the state psi0[r]
    through the five knobs (theta1, theta2, phi, gamma, k), each a float that every row shares or a (rows, N)
    array. The full engine runs the propagation core without step records; the simplified one runs
    _collapsed_states of one 2x2 chain per row from _chain_products, equal to evolve_simplified up to rounding."""
    psi = _unit_rows(psi0)[:, None]
    try:
        shape = np.broadcast_shapes(*map(np.shape, knobs))
    except ValueError:  # knobs that do not broadcast
        shape = tuple(map(np.shape, knobs))
    if len(shape) != 2 or shape[0] != len(psi):
        raise ConfigError(f"evolve_batch needs (rows, N) knobs and one input per row, got {shape}, {len(psi)} inputs")
    if _check_engine(engine) == "full":
        return _propagate(_step_operators(engine, knobs, None), psi)[0][:, 0]
    P = _chain_products(*coin_entries(*knobs))
    return _collapsed_states(P, _frames((k if np.ndim(k) == 0 else k[:, 0] for k in knobs), psi))[:, 0]


class ControlDriftReport(NamedTuple):
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


class SheetTrace(NamedTuple):
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
    """_frames of the given starts whose inputs are their four start eigenstates:
    C_0^T (rows, 4, 4) and (rows, 8, 2), rows 2j and 2j+1 of eigenstate j holding its two blocks."""
    return _frames(np.array([p.knobs for p in starts]).T, np.array([bell_eigenstates(p) for p in starts]))


_TARGET_ROWS = {d: BELL_ROWS[[CHIRAL_TARGETS[d, j] - 1 for j in (1, 2, 3, 4)]] for d in DIRECTIONS}


def _case_fidelities(knobs, frames: tuple[np.ndarray, np.ndarray], targets: np.ndarray) -> np.ndarray:
    """Fidelity to its target Bell state of every chirality case, four per row, as targets.shape[:-1].

    knobs are the five step knobs (theta1, theta2, phi, gamma, k), each broadcastable to (rows, N);
    frames are _start_frames of each row's first step, whose eigenstates are the inputs, or of one
    start for all rows; targets are each row's four target states (rows, 4, 4), or those of R rows
    that repeat in turn (R, 4, 4). The outputs are _collapsed_states' with one 2x2 chain P = M_{N-1}...M_0
    per row, which equals evolve_simplified exactly; P is rescaled at every step in place of the engine's
    renormalization. All rows step together, and every value takes the same floating-point operations as
    the one-row scalar form, so it is bitwise that form's.
    """
    m = walk_operator_closed_array(*knobs).swapaxes(0, 1)  # (N, rows, 2, 2): item n holds every row's M_n
    P = m[0] / np.maximum.reduce(np.abs(m[0]), axis=(1, 2), keepdims=True)  # rescaled M_0 @ I: I changes no bits
    for m_n in m[1:]:
        P = m_n @ P
        P /= np.maximum.reduce(np.abs(P), axis=(1, 2), keepdims=True)  # unscaled, |P| reaches 1e115 at N = 5000
    overlaps = np.vecdot(targets, _collapsed_states(P, frames).reshape(-1, *targets.shape))
    return np.hypot(overlaps.real, overlaps.imag)  # bitwise Python's abs; np.abs differs


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
    with np.errstate(all="ignore"):  # non-finite case fidelities are rejected below
        fidelities = [f for group in by_length.values() for f in _case_fidelities(
            _stacked_knobs(group), _start_frames(tuple(s.start for s in group)),
            np.array([_TARGET_ROWS[s.direction] for s in group])).ravel().tolist()]
    if not all(map(math.isfinite, fidelities)):  # min skips NaN
        raise DomainError(f"case fidelities must be finite, got {fidelities}")
    return min(math.inf, *fidelities)


class OptimizeResult(NamedTuple):
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
    turns = np.zeros(incr.shape)
    np.add.accumulate(incr[..., :-1], axis=-1, out=turns[..., 1:])  # np.cumsum's bits, without its wrapper
    return -math.pi / 2 + sign * turns


def _increments_from_x(x: np.ndarray) -> np.ndarray:
    """Phase increments from the optimizer's variables, along the last axis: a softmax scaled to a full turn."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return 2 * math.pi * e / np.add.reduce(e, axis=-1, keepdims=True)


# scipy.optimize's Nelder-Mead coefficients (reflection, expansion, contraction, shrink), and
# the optimizer's tolerances on the simplex's spread in x and in value
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-4, 1e-6
# simplex entries a group of starts holds (a group has at least one start), and the
# row-steps one objective call scores at most: memory stays flat in the number of starts
_LOCKSTEP_ENTRIES = 2**14
_SIGNS = np.array([[direction_sign(d)] for d in DIRECTIONS])  # row d of _objective_rows' (B, 2, N) phases


@functools.cache
def _objective_frames() -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """_case_fidelities' frames and targets for optimizer rows, built on first use: all start where loop 1 does."""
    return _start_frames((loop1_schedule(1, "cw").start,)), np.array([_TARGET_ROWS[d] for d in DIRECTIONS])


def _objective_rows(x: np.ndarray) -> np.ndarray:
    """The optimizer's objective at every row of x (B, N): min_case_fidelity of the loop-1 schedules whose
    increments come from that row, bitwise, and its DomainError on a non-finite case fidelity, on the schedules'
    own knobs with no LoopSchedule in between. Each value is independent of the rows beside it, so the rows
    are scored in chunks of at most _LOCKSTEP_ENTRIES row-steps."""
    rows = max(1, _LOCKSTEP_ENTRIES // x.shape[1])
    if len(x) > rows:
        return np.concatenate([_objective_rows(x[i:i + rows]) for i in range(0, len(x), rows)])
    with np.errstate(all="ignore"):  # non-finite rows are rejected below
        phases = _increment_phases(_increments_from_x(x)[:, None], _SIGNS)  # (B, 2, N)
        theta1, phi = (v.reshape(-1, x.shape[1]) for v in _circle(phases, LOOP1_RADIUS, LOOP1_CENTER))
        fidelities = _case_fidelities((theta1, _DEFAULT.theta2, phi, _DEFAULT.gamma, _DEFAULT.k),
                                      *_objective_frames()).reshape(len(x), 8)
    if not np.isfinite(fidelities).all():
        row = np.flatnonzero(~np.isfinite(fidelities).all(axis=1))[0]
        raise DomainError(f"case fidelities must be finite, got {fidelities[row].tolist()} at row {row}")
    return np.minimum.reduce(fidelities, axis=1)


def _nelder_mead_start(x0: np.ndarray, maxiter: int):
    """scipy.optimize's Nelder-Mead from x0 (N,) as an ask-and-tell generator: it yields each block of
    points it needs next (the initial simplex, one trial point, or the n shrunk vertices) as (B, N) rows,
    is sent their B values, and returns its (x, fun).

    The steps are scipy's (Nelder & Mead, Comput. J. 7, 308, 1965) with the same initial simplex,
    coefficients, expressions and sorting, so the points asked for and the (x, fun) returned are scipy's
    bit for bit. It stops on scipy's xatol/fatol test (_XATOL, _FATOL) or when the iterations, counted
    from 1, reach maxiter.
    """
    n = len(x0)
    sim = np.repeat(x0[None], n + 1, axis=0)
    k = np.arange(n)
    sim[k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)  # scipy's nonzdelt and zdelt
    fsim = yield sim
    for _ in range(2):  # sorted twice, as scipy does
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    for _ in range(1, maxiter):
        # scipy's max|f_0 - f_i| exactly, as fsim is sorted, NaN last; then its x test where that passes
        if fsim[-1] - fsim[0] <= _FATOL and np.abs(sim[1:] - sim[0]).max() <= _XATOL:
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        (fxr,) = yield xr[None]
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            (fxe,) = yield xe[None]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                (fxc,) = yield xc[None]
                kept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                (fxc,) = yield xc[None]
                kept = fxc < fsim[-1]
            if kept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                sim[1:] = sim[0] + _SIGMA * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], fsim.min()


def _nelder_mead(f_rows, x0: np.ndarray, maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize f from every start x0[s] (S, N) by Nelder-Mead, one _nelder_mead_start per start;
    returns each start's (x, fun).

    f_rows maps (B, N) points to B values, each independent of the rows beside it. Each round scores
    the pending block of every running start, in start order, in one f_rows call and sends each start
    its slice, so the starts need not move in step: the run makes as many calls as its longest start
    asks for blocks, and each start returns scipy's (x, fun) bit for bit.
    """
    x, fun = np.empty_like(x0), np.empty(len(x0))
    starts = [_nelder_mead_start(x, maxiter) for x in x0]
    pending = {s: next(start) for s, start in enumerate(starts)}
    while pending:
        values = f_rows(np.concatenate(list(pending.values())))
        stop = 0
        for s, block in list(pending.items()):
            stop += len(block)
            try:
                pending[s] = starts[s].send(values[stop - len(block):stop])
            except StopIteration as done:
                x[s], fun[s] = done.value
                del pending[s]
    return x, fun


def optimize_schedule(n_steps: int = 8, seed: int = 20260815, multistarts: int = 6,
                      maxiter: int = 2000) -> OptimizeResult:
    """Tune unequal loop-phase spacing to maximize the worst chirality case.

    The N positive phase increments live on a softmax simplex scaled to a full
    turn, with the first phase pinned to the shared start point. Nelder-Mead
    runs from equal spacing plus seeded random restarts, drawn in start order,
    and the best of all starts (including the unoptimized one) is kept, so the
    result never falls below the equal-spacing baseline. The starts run in
    groups of at most _LOCKSTEP_ENTRIES simplex entries (_nelder_mead): each
    round scores the next points of every running start of a group in one
    _objective_rows call, so a group makes as many calls as its longest start
    asks for. The result is bitwise scipy's Nelder-Mead run start by start,
    whatever the group size.
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
    best_x, best = np.zeros(n_steps), []  # the baseline, x = 0 as start 0's first simplex scores it; then each better

    def negated(rows):
        values = _objective_rows(rows)
        if not best:
            best.append(values[0])
        return -values

    group = max(1, _LOCKSTEP_ENTRIES // (n_steps * (n_steps + 1)))
    for first in range(0, multistarts, group):
        x0 = np.array([np.zeros(n_steps) if trial == 0 else rng.normal(0.0, 0.8, n_steps)
                       for trial in range(first, min(first + group, multistarts))])
        for x, fun in zip(*_nelder_mead(negated, x0, maxiter)):
            if -fun > best[-1]:
                best_x = x
                best.append(-fun)
    return OptimizeResult(
        increments=tuple(float(v) for v in _increments_from_x(best_x)),
        objective=float(best[-1]),
        baseline_objective=float(best[0]),
    )
