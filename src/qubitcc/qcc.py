"""Qubit coupled cluster energy functional and its iterative driver.

The ansatz is a product of involutory-generator exponentials
exp(-i t_k T_k / 2) for k = 1..L, with k = 1 applied to the reference
last, so conjugating the Hamiltonian applies k = 1 innermost.  The
reference is one determinant and each T_k a Pauli word, so U|0> lies
in the span of the D <= 2^L determinants occ ^ (XOR of a subset of the
generators' X masks).  Energy and gradient are evaluated exactly as a
D x D problem on that span.  Its entries are the Hamiltonian's Ising
sectors b ^ b', the D XORs of those masks, so only the terms of these
sectors are read (``IsingDecomposition.row``); whole-Hamiltonian
conjugation is used only to dress the Hamiltonian between iterations,
where truncation happens.  One generator gives E(t) = A + B cos t +
C sin t, minimized in closed form; two give a 4 x 4 quadratic form in
the half-angle products, minimized exactly through a one-angle
reduction; three or more by sweeps of the one-generator closed form
over each amplitude in turn, with Newton steps on the exact Hessian.
No scipy is loaded and no random number is drawn.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    basis_image,
    conjugate_by_word,
)
from .screen import gradients, ising_decompose
from .acset import canonical_generator

__all__ = [
    "qcc_energy_and_gradient",
    "AmplitudeOptimization",
    "optimize_amplitudes",
    "dress",
    "IterationRecord",
    "IqccState",
    "run_iqcc",
]

_GTOL = 1e-9  # the gradient norm at which sweeps stop, or a pair step counts as converged
_MAX_SWEEPS = 1000  # optimize_amplitudes, L >= 3: most coordinate sweeps in one call
_MAX_ESCAPES = 8  # and most moves off a stationary point along negative curvature
_NEWTON_STEPS = 8  # most Newton steps polishing the stationary angles of a pair step
_ROOT_STEPS = 100  # most false-position steps for one root (pair steps and Morse fits)
# row k + 4: the coefficients, by ascending power of u = tan(t/2), of
# (1 + i u)^(4 + k) (1 - i u)^(4 - k) = exp(i k t) (1 + u^2)^4
_HALF_TANGENT = np.array([
    functools.reduce(np.convolve, [[1.0, 1j]] * (4 + k) + [[1.0, -1j]] * (4 - k), [1.0 + 0j])
    for k in range(-4, 5)
])


class _Subspace:
    """H and the generators on the determinants the ansatz can reach.

    ``h`` is the D x D Hermitian matrix <b|H|b'> over the reachable
    determinants, the reference first; generator j maps basis state i
    to ``perms[j][i]`` with phase ``phases[j][i]``.
    """

    __slots__ = ("h", "perms", "phases")

    def __init__(self, h: PauliSum, generators, ref: ReferenceState) -> None:
        if ref.n != h.n or any(g.n != h.n for g in generators):
            raise ValueError("qubit counts differ")
        occ = ref.occupied_mask
        index = {occ: 0}
        for g in generators:
            for b in list(index):
                index.setdefault(b ^ g.x, len(index))
        basis = list(index)
        states = np.array(basis, dtype=np.uint64)
        # <b|H|b'> is sector b ^ b', one of the D masks occ ^ b; each
        # sector keeps its terms in canonical order, so its sums are
        # the ones the whole decomposition gives
        flips = np.unique(np.uint64(occ) ^ states)
        lo, hi = np.searchsorted(h.x, flips, "left"), np.searchsorted(h.x, flips, "right")
        rows = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        dec = ising_decompose(PauliSum._canonical(h.n, h.x[rows], h.z[rows], h.c[rows]))
        self.h = dec.row(states, states)
        self.perms = []
        self.phases = []
        for g in generators:
            images = [basis_image(g, b) for b in basis]
            self.perms.append(np.array([index[image] for image, _ in images]))
            self.phases.append(np.array([I_POWERS[k] for _, k in images]))

    def _apply(self, j: int, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[self.perms[j]] = self.phases[j] * v
        return out

    def energy_and_gradient(self, amplitudes) -> tuple[float, np.ndarray]:
        """<0|U^dag H U|0> and its derivatives in the amplitudes.

        Forward: s_L = |0>, s_(j-1) = (cos(t_j/2) - i sin(t_j/2) T_j) s_j,
        E = <s_0|H|s_0>.  Backward: w_0 = H s_0, w_j = U_j^dag w_(j-1),
        and dE/dt_j = 2 Re <w_(j-1)| (-i/2) T_j |s_(j-1)>, which is
        Im <w_(j-1)|T_j|s_(j-1)>; t_j and T_j sit at index j - 1.
        """
        L = len(self.perms)
        s = np.zeros(self.h.shape[0], dtype=complex)
        s[0] = 1.0
        states = [s]
        for j in range(L - 1, -1, -1):
            half = 0.5 * amplitudes[j]
            s = math.cos(half) * s - 1j * math.sin(half) * self._apply(j, s)
            states.append(s)
        states.reverse()  # states[j] is s_j
        w = self.h @ states[0]
        energy = float(np.vdot(states[0], w).real)
        grad = np.empty(L)
        for j in range(L):
            grad[j] = np.vdot(w, self._apply(j, states[j])).imag
            half = 0.5 * amplitudes[j]
            w = math.cos(half) * w + 1j * math.sin(half) * self._apply(j, w)
        return energy, grad


def qcc_energy_and_gradient(
    h: PauliSum,
    generators,
    amplitudes,
    ref: ReferenceState,
) -> tuple[float, np.ndarray]:
    """Energy plus its exact amplitude gradient.

    Both come from the D x D matrix of h on the D <= 2^L determinants
    the generators reach from the reference; the cost grows with 2 to
    the rank of the generators' X masks, and only the terms of the D
    sectors between those determinants are read, to build the matrix.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    space = _Subspace(h, generators, ref)
    return space.energy_and_gradient(amplitudes)


@dataclass(frozen=True, slots=True)
class AmplitudeOptimization:
    """Outcome of one amplitude minimization."""

    amplitudes: np.ndarray
    energy: float
    converged: bool
    iterations: int
    restarts_used: int


def _coordinate_step(space: _Subspace, t: np.ndarray, j: int) -> float:
    """The t_j minimizing E = A + B cos t_j + C sin t_j, the other amplitudes held."""
    t = t.copy()
    t[j] = 0.0
    e_zero, grad = space.energy_and_gradient(t)
    t[j] = math.pi
    e_pi, _ = space.energy_and_gradient(t)
    b, c = 0.5 * (e_zero - e_pi), float(grad[j])
    # the 0.0 turns a -0.0 from atan2 into 0.0
    return math.atan2(-c, -b) + 0.0 if b or c else 0.0


def _sweeps(space: _Subspace, L: int) -> AmplitudeOptimization:
    """Cyclic coordinate steps from zero, each sweep followed by a Newton step.

    The Hessian is exact by parameter shift (each amplitude enters E as
    cos/sin): row i is (grad E(t + pi/2 e_i) - grad E(t - pi/2 e_i))/2.
    Newton, taken where it is positive definite and lowers E, shortens
    slow sweeps over strongly coupled amplitudes.  A stationary point
    with an eigenvalue below -1e-6 is left for the lowest of 721 points
    t + s v, s in [-pi, pi], along its eigenvector v (s = 0 among them).
    """
    t, sweeps, escapes = np.zeros(L), 0, 0
    while sweeps < _MAX_SWEEPS:
        for j in range(L):
            t[j] = _coordinate_step(space, t, j)
        sweeps += 1
        energy, grad = space.energy_and_gradient(t)
        rows = [space.energy_and_gradient(t + d)[1] - space.energy_and_gradient(t - d)[1]
                for d in 0.5 * math.pi * np.eye(L)]
        values, vectors = np.linalg.eigh(0.5 * np.array(rows))
        if np.max(np.abs(grad)) > _GTOL:
            if values[0] > 0.0:
                newton = t - vectors @ (vectors.T @ grad / values)
                if space.energy_and_gradient(newton)[0] < energy:
                    t = newton
            continue
        if values[0] >= -1e-6 or escapes == _MAX_ESCAPES:
            return AmplitudeOptimization(t, energy, bool(values[0] >= -1e-6), sweeps, escapes)
        escapes, v = escapes + 1, vectors[:, 0]
        t = t + v * min(np.linspace(-math.pi, math.pi, 721),
                        key=lambda s: space.energy_and_gradient(t + s * v)[0])
    return AmplitudeOptimization(t, space.energy_and_gradient(t)[0], False, sweeps, escapes)


def _pair_curves(space: _Subspace) -> list[list[float]]:
    """Rows A, B, C of E(t1, t2) = A + B cos t1 + C sin t1, on (1, cos t2, sin t2).

    With c_k = cos(t_k/2) and s_k = sin(t_k/2) the state is U|0> = V w,
    V = [|0>, -i T2|0>, -i T1|0>, -T1 T2|0>] and w = (c1 c2, c1 s2,
    s1 c2, s1 s2), so E = w^T M w with M = Re(V^dag H V); this holds
    for any D <= 4, dependent X masks included.  Each column of V is one
    basis state times a phase.  The 2 x 2 blocks of M at t1 = 0 (P),
    t1 = pi (Q) and across (R) are first-harmonic in t2, and
    A = (P + Q)/2, B = (P - Q)/2, C = R.
    """
    (p1, p2), (f1, f2) = space.perms, space.phases
    i = [0, p2[0], p1[0], p1[p2[0]]]
    phase = np.array([1.0, -1j * f2[0], -1j * f1[0], -f2[0] * f1[p2[0]]])
    m = (phase.conj()[:, None] * space.h[np.ix_(i, i)] * phase).real.tolist()

    def block(i: int, j: int) -> list[float]:
        # (c2, s2) X (c2, s2)^T for the block X at rows i, i + 1 and columns j, j + 1
        a, b, c, d = m[i][j], m[i][j + 1], m[i + 1][j], m[i + 1][j + 1]
        return [0.5 * (a + d), 0.5 * (a - d), 0.5 * (b + c)]

    p, q = block(0, 0), block(2, 2)
    return [[0.5 * (x + y) for x, y in zip(p, q)], [0.5 * (x - y) for x, y in zip(p, q)],
            block(0, 2)]


def _stationary_harmonics(curves) -> np.ndarray:
    """Coefficients of g(t2) on exp(i k t2), k = -4..4.

    g = A'^2 (B^2 + C^2) - (B B' + C C')^2 is real, so they are
    conjugate-symmetric.
    """
    x = np.array([[0.5 * (x1 + 1j * x2), x0, 0.5 * (x1 - 1j * x2)] for x0, x1, x2 in curves])
    dx = x * np.array([-1j, 0.0, 1j])
    conv = np.convolve
    rr = conv(x[1], x[1]) + conv(x[2], x[2])
    rdr = conv(x[1], dx[1]) + conv(x[2], dx[2])
    return conv(conv(dx[0], dx[0]), rr) - conv(rdr, rdr)


def _horner(p, x: float) -> float:
    """p (ascending coefficients) at x."""
    value = 0.0
    for c in reversed(p):
        value = value * x + c
    return value


def _false_position(f, a: float, b: float, fa: float, fb: float) -> float:
    """The root of f in [a, b], a < b, where f(a) and f(b) differ in sign.

    False position with the Illinois rule (Dowell and Jarratt, BIT 11,
    168 (1971)), run until the bracket is as narrow as the floats allow;
    an end where f is 0 is returned as the root.  RuntimeError after
    _ROOT_STEPS evaluations of f.
    """
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    side = 0
    for _ in range(_ROOT_STEPS):
        x = (a * fb - b * fa) / (fb - fa)
        if not a < x < b:  # the bracket is as narrow as the floats allow
            return x
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa *= 0.5
            side = 1
    raise RuntimeError(f"false position did not converge in {_ROOT_STEPS} steps")


def _real_roots(p, lo: float, hi: float) -> tuple[list[float], list[float]]:
    """Roots in [lo, hi] of the real polynomial p (ascending coefficients), and of p'.

    The roots of p', found the same way, split [lo, hi] into pieces on
    which p is monotone, so each piece holds at most one root of p, and
    only where p changes sign.  A root of even multiplicity changes no
    sign, but it is a root of p', so those are returned too.
    """
    while p and p[-1] == 0.0:
        p = p[:-1]
    if len(p) <= 1:
        return [], []
    critical = _real_roots([k * c for k, c in enumerate(p)][1:], lo, hi)[0]
    ends = [lo, *critical, hi]
    roots = []
    f = functools.partial(_horner, p)
    fa = f(lo)
    for a, b in zip(ends, ends[1:]):
        fb = f(b)
        if fa == 0.0 or fa * fb < 0.0:
            roots.append(_false_position(f, a, b, fa, fb))
        fa = fb
    if fa == 0.0:
        roots.append(hi)
    return roots, critical


def _stationary_angles(harmonics: np.ndarray) -> list[float]:
    """Every t2 at which g, or g', vanishes, from its harmonics on k = -4..4.

    On the arc |t2 - shift| <= 2 atan 2, for shift 0 and pi,
    (1 + u^2)^4 g is a real polynomial of degree <= 8 in
    u = tan((t2 - shift)/2) on [-2, 2]; the two arcs overlap, so every
    angle lies inside one of them.  No eigenvalue solver is needed.
    """
    angles = []
    # exp(i k t2) = (-1)^k exp(i k (t2 - pi))
    for shift, signs in ((0.0, 1.0), (math.pi, (-1.0) ** np.arange(-4, 5))):
        poly = (harmonics * signs) @ _HALF_TANGENT
        roots, critical = _real_roots(poly.real.tolist(), -2.0, 2.0)
        angles += [shift + 2.0 * math.atan(u) for u in roots + critical]
    return angles


def _reduced(curves, t2: float) -> tuple[float, float, float, float, float]:
    """A, B, C at t2, and f' and f'' of f = A - hypot(B, C) (nan where B = C = 0)."""
    cos, sin = math.cos(t2), math.sin(t2)
    (a, da, dda), (b, db, ddb), (c, dc, ddc) = (
        (x0 + x1 * cos + x2 * sin, x2 * cos - x1 * sin, -x1 * cos - x2 * sin)
        for x0, x1, x2 in curves
    )
    r = math.hypot(b, c)
    if r == 0.0:
        return a, b, c, math.nan, math.nan
    dr = (b * db + c * dc) / r
    ddr = (db * db + b * ddb + dc * dc + c * ddc - dr * dr) / r
    return a, b, c, da - dr, dda - ddr


def _wrap(t: float) -> float:
    """t in (-pi, pi], with no -0.0."""
    t = math.remainder(t, 2.0 * math.pi)
    return (t + 2.0 * math.pi if t <= -math.pi else t) + 0.0


def _pair_step(space: _Subspace) -> AmplitudeOptimization:
    """Exact minimum of a two-generator energy.

    For fixed t2, E = A + B cos t1 + C sin t1 with A, B, C first-harmonic
    in t2 (``_pair_curves``), so its minimum over t1 is
    f(t2) = A - hypot(B, C), at t1 = atan2(-C, -B) as in the
    one-generator step.  No minimum of f is missed: at one, either
    r = hypot(B, C) > 0 and f' = A' - r' = 0, or r = 0 (a cusp, where -r
    kinks downwards, so in general a maximum); both are zeros of
    g = r^2 (A'^2 - r'^2), a trigonometric polynomial of degree 4 with at
    most 8 zeros per period, found with those of g' as real roots of
    polynomials in tan(t2/2) (``_stationary_angles``).  If g vanishes
    identically, then r = 0 everywhere or A' = +-r' throughout, and f is
    constant, or 2A plus a constant wherever it is below its maximum:
    t2 = 0 or argmin A is a minimum, and both are always candidates,
    unpolished.  Each angle is polished by Newton steps on f', taken only
    where f'' > 0 and at most 0.25 long.  Of the points (t1*, t2) and
    (0, t2), the latter for an energy that t1 moves only by roundoff, the
    one nearest zero (smallest t1^2 + t2^2 on (-pi, pi]^2, then the
    lexicographic order) among those within 1e-12 max(1, |E|) of the
    lowest energy and stationary to 1e-9 wins: of mirror minima, the one
    a descent from a zero start usually ends in.  So (0, 0) does not
    stand in for a minimum a small gradient away from it.  If none of
    them is stationary, the lowest wins, reported unconverged.
    """
    curves = _pair_curves(space)
    (_, a1, a2), _, _ = curves
    polished = []
    for t2 in _stationary_angles(_stationary_harmonics(curves)):
        for _ in range(_NEWTON_STEPS):
            *_, df, ddf = _reduced(curves, t2)
            if not ddf > 0.0:
                break
            step = max(-0.25, min(0.25, df / ddf))
            t2 -= step
            if abs(step) <= 1e-15:
                break
        polished.append(t2)
    points = []
    for t2 in [0.0, math.atan2(-a2, -a1), *polished]:
        t2 = _wrap(t2)
        a, b, c, *_ = _reduced(curves, t2)
        points.append((a + b, 0.0, t2))
        if b or c:
            points.append((a - math.hypot(b, c), _wrap(math.atan2(-c, -b)), t2))
    low = min(points)
    tol = 1e-12 * max(1.0, abs(low[0]))
    for _, t1, t2 in sorted((t1 * t1 + t2 * t2, t1, t2) for e, t1, t2 in points
                            if e <= low[0] + tol):
        energy, grad = space.energy_and_gradient((t1, t2))
        if np.max(np.abs(grad)) <= _GTOL:
            return AmplitudeOptimization(np.array([t1, t2]), energy, True, 0, 0)
    energy, _ = space.energy_and_gradient(low[1:])
    return AmplitudeOptimization(np.array(low[1:]), energy, False, 0, 0)


def optimize_amplitudes(
    h: PauliSum,
    generators,
    ref: ReferenceState,
) -> AmplitudeOptimization:
    """Minimize the QCC energy over the amplitudes.

    In any one amplitude, the others held, E = A + B cos t + C sin t with
    B = (E(0) - E(pi))/2 and C = E'(0), so t = atan2(-C, -B) is the one
    minimum per period (0 only when B = C = 0).  One generator takes that
    step once, with zero iterations; two are solved exactly by
    ``_pair_step``, converged when the gradient norm there is <= 1e-9.
    Three or more run ``_sweeps`` of that step from zero, the sequential
    minimal optimization of Nakanishi, Fujii and Todo (Phys. Rev.
    Research 2, 043158 (2020)): ``iterations`` counts sweeps,
    ``restarts_used`` escapes from saddles, and converged means a
    gradient norm <= 1e-9 and no Hessian eigenvalue below -1e-6.  The
    subspace matrix, built once from the terms of h in the D <= 2^L
    sectors it spans, takes 16 D^2 bytes, and each energy and gradient
    costs O(D^2 + L D), so large L is out of reach (L = 16 would ask for
    64 GiB); only L <= 4 has been tested.
    """
    L = len(generators)
    if L == 0:
        e0 = ref.expectation(h)
        return AmplitudeOptimization(np.zeros(0), e0, True, 0, 0)
    space = _Subspace(h, generators, ref)
    if L == 1:
        t = np.array([_coordinate_step(space, np.zeros(1), 0)])
        return AmplitudeOptimization(t, space.energy_and_gradient(t)[0], True, 0, 0)
    if L == 2:
        return _pair_step(space)
    return _sweeps(space, L)


def dress(
    h: PauliSum,
    generators,
    amplitudes,
    *,
    truncation_threshold: float = 0.0,
) -> PauliSum:
    """Similarity-transform h by the optimized unitary, pruning each step.

    Conjugations run k = 1..L (innermost first), the same order the
    subspace energy applies the generators in, so the dressed
    expectation on the reference reproduces the optimized energy up to
    rounding and what truncation removes.  ``PauliSum.truncate`` prunes
    after every conjugation, so a nan or negative threshold raises.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    for gen, t in zip(generators, amplitudes):
        h = conjugate_by_word(h, gen, t).truncate(truncation_threshold)
    return h


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One outer-loop step: what was selected and where it landed."""

    iteration: int
    generators: tuple[PauliWord, ...]
    amplitudes: tuple[float, ...]
    energy: float
    top_gradient: float
    n_terms: int


@dataclass(slots=True)
class IqccState:
    """Running state of the iterative solver."""

    hamiltonian: PauliSum
    ref: ReferenceState
    energy_history: list[float] = field(default_factory=list)
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def energy(self) -> float:
        return self.energy_history[-1]


def _write_checkpoint(directory: str, record: IterationRecord, h: PauliSum) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"iteration_{record.iteration:03d}.txt")
    lines = [
        f"# iteration: {record.iteration}",
        f"# energy: {record.energy:.17g}",
        "# amplitudes: " + " ".join(f"{t:.17g}" for t in record.amplitudes),
        "# generators: " + " | ".join(g.to_text() for g in record.generators),
        h.to_text(),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_iqcc(
    h: PauliSum,
    ref: ReferenceState,
    *,
    generators_per_iteration: int,
    max_iterations: int,
    gradient_tol: float = 1e-7,
    truncation_threshold: float = 1e-8,
    checkpoint_dir: str | None = None,
) -> IqccState:
    """Iterate screen, optimize, dress until the gradients die out.

    Each iteration ranks the X sectors of the current Hamiltonian on
    the fixed reference, takes the top generators_per_iteration
    canonical generators with gradient above gradient_tol, jointly
    optimizes their amplitudes, and replaces the Hamiltonian with the
    truncated dressed operator.  Convergence means no generator with a
    usable gradient remains; hitting max_iterations leaves the
    converged flag down, and so does an unconverged step that leaves
    every amplitude at zero: it is recorded, and the loop stops, since
    the next iteration would pick the same generators again.
    """
    if generators_per_iteration < 1:
        raise ValueError("need at least one generator per iteration")
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")
    for name, tol in (("gradient_tol", gradient_tol),
                      ("truncation_threshold", truncation_threshold)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {tol}")
    state = IqccState(hamiltonian=h, ref=ref)
    state.energy_history.append(ref.expectation(h))
    for it in range(1, max_iterations + 1):
        dec = ising_decompose(state.hamiltonian)
        ranked = gradients(dec, ref, drop_zero=True, zero_tol=gradient_tol)
        if len(ranked) == 0:
            state.converged = True
            break
        masks = ranked.top(generators_per_iteration)
        gens = tuple(canonical_generator(h.n, m) for m in masks)
        opt = optimize_amplitudes(state.hamiltonian, gens, ref)
        state.hamiltonian = dress(
            state.hamiltonian,
            gens,
            opt.amplitudes,
            truncation_threshold=truncation_threshold,
        )
        record = IterationRecord(
            iteration=it,
            generators=gens,
            amplitudes=tuple(float(t) for t in opt.amplitudes),
            energy=opt.energy,
            top_gradient=ranked.weights[0],
            n_terms=len(state.hamiltonian),
        )
        state.records.append(record)
        state.energy_history.append(opt.energy)
        if checkpoint_dir is not None:
            _write_checkpoint(checkpoint_dir, record, state.hamiltonian)
        if not opt.converged and not np.any(opt.amplitudes):
            break
    return state
