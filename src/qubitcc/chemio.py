"""Molecular Hamiltonian input and fermion-to-qubit mapping.

FCIDUMP files carry spatial-orbital integrals in chemists' notation
with a Fortran namelist header.  The ladder-operator images use the
standard Z-chain encoding with interleaved spins (spatial orbital p
maps to qubits 2p for alpha and 2p+1 for beta), so a closed-shell
aufbau determinant occupies a contiguous low block of qubits.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .pauli import SUM_QUBIT_CAP, PauliSum, ReferenceState, _group_masks, _read_only

__all__ = [
    "JW_QUBIT_CAP",
    "FcidumpData",
    "parse_fcidump",
    "load_fcidump",
    "jw_hamiltonian",
    "spin_penalty",
    "add_spin_penalty",
    "hf_reference",
]

JW_QUBIT_CAP = SUM_QUBIT_CAP  # checked on NORB, before any allocation or expansion


@dataclass(slots=True)
class FcidumpData:
    """Spatial-orbital integrals plus the header metadata."""

    n_orb: int
    n_elec: int
    ms2: int
    e_core: float
    one_body: np.ndarray  # (n_orb, n_orb)
    two_body: np.ndarray  # (n_orb,)*4, chemists' (ij|kl)
    metadata: dict[str, str] = field(default_factory=dict)


def _parse_header(text: str) -> tuple[dict[str, str], int]:
    """Return the namelist key/value map and the body start offset."""
    m = re.match(r"\s*&\w+", text)
    if m is None:
        raise ValueError("FCIDUMP must start with a namelist header (&FCI ...)")
    end = re.search(r"&END|/", text[m.end():], flags=re.IGNORECASE)
    if end is None:
        raise ValueError("FCIDUMP header is missing its &END (or /) terminator")
    header = text[m.end(): m.end() + end.start()]
    body_start = m.end() + end.end()
    fields: dict[str, str] = {}
    for key, value in re.findall(r"([A-Za-z]\w*)\s*=\s*([^=]*?)(?=[,\s][A-Za-z]\w*\s*=|$)", header, flags=re.DOTALL):
        fields[key.upper()] = value.strip().rstrip(",").strip()
    return fields, body_start


def _convert(tokens: list[str], n_orb: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and (i, j, k, l) index rows of `value i j k l` token groups.

    An index too large for int64 is clipped to n_orb + 1, still out of range.
    """
    values = np.fromiter(map(float, tokens[0::5]), np.float64, len(tokens) // 5)
    indices = tokens.copy()
    del indices[0::5]
    try:
        idx = np.fromiter(map(int, indices), np.int64, len(indices))
    except OverflowError:
        idx = np.clip(np.array(list(map(int, indices)), dtype=object), -1, n_orb + 1).astype(np.int64)
    return values, idx.reshape(-1, 4).T


def _converts(tokens: list[str]) -> bool:
    try:
        _convert(tokens, 0)
    except ValueError:
        return False
    return True


def _read_body(text: str, body_start: int, n_orb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """File line numbers, values and (i, j, k, l) indices of the integral lines.

    The body is read as one token array and every check runs on whole
    columns; the first line that fails any of them raises the message
    that reading line by line would give.
    """
    body = text[body_start:]
    lines = body.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    # lineno counts lines of the whole file, so messages point at the entry
    first = text.count("\n", 0, body_start) + 1
    failures: list[tuple[int, str]] = []  # (line index, message), in check order within a line
    wrong = np.flatnonzero((counts != 0) & (counts != 5))
    stop = int(wrong[0]) if len(wrong) else len(lines)
    if len(wrong):
        failures.append((stop, f"expected 5 fields, got {counts[stop]}"))
    at = np.flatnonzero(counts[:stop])
    # Fortran D exponents; in an index a D or an E is malformed alike
    tokens = body.replace("D", "E").replace("d", "e").split()[: 5 * len(at)]
    try:
        values, idx = _convert(tokens, n_orb)
    except ValueError:
        bad = next(r for r in range(len(at)) if not _converts(tokens[5 * r: 5 * r + 5]))
        failures.append((at[bad], f"malformed entry {lines[at[bad]].strip()!r}"))
        values, idx = _convert(tokens[: 5 * bad], n_orb)
    i, j, k, l = idx
    core = (idx == 0).all(axis=0)
    one = ~core & (k == 0) & (l == 0)
    for mask, message in (
        (~np.isfinite(values), lambda r: f"non-finite value {lines[at[r]].split()[0]!r}"),
        (((idx < 0) | (idx > n_orb)).any(axis=0), lambda r: f"index outside 1..{n_orb}"),
        (one & ((i == 0) | (j == 0)), lambda r: "one-body entry with a zero index"),
        (~core & ~one & (idx == 0).any(axis=0), lambda r: "two-body entry with a zero index"),
    ):
        hits = np.flatnonzero(mask)
        if len(hits):
            failures.append((at[hits[0]], message(hits[0])))
    if failures:
        # min is stable: at one line the earlier check's message wins
        line, message = min(failures, key=lambda f: f[0])
        raise ValueError(f"integral line {first + line}: {message}")
    return first + at, values, idx


def parse_fcidump(text: str) -> FcidumpData:
    """Parse FCIDUMP text: header, then `value i j k l` lines.

    Indices are 1-based; (0,0,0,0) is the core energy, (i,j,0,0) a
    one-body integral, anything else a chemists'-notation two-body
    integral stored with its full 8-fold symmetry.  A repeated entry
    overwrites the earlier value with a warning; a nan or inf value
    raises.  NORB above JW_QUBIT_CAP // 2 raises before any array is
    allocated.
    """
    fields, body_start = _parse_header(text)
    for required in ("NORB", "NELEC"):
        if required not in fields:
            raise ValueError(f"FCIDUMP header is missing {required}")
    n_orb = int(fields["NORB"])
    n_elec = int(fields["NELEC"])
    ms2 = int(fields.get("MS2", "0"))
    if n_orb < 1:
        raise ValueError("NORB must be positive")
    if n_orb > JW_QUBIT_CAP // 2:
        raise ValueError(
            f"NORB={n_orb} is above the cap of {JW_QUBIT_CAP // 2} orbitals "
            f"({JW_QUBIT_CAP} qubits)"
        )
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError("NELEC outside 0..2*NORB")
    metadata = {k: v for k, v in fields.items() if k not in {"NORB", "NELEC", "MS2"}}

    lineno, values, idx = _read_body(text, body_start, n_orb)
    i, j, k, l = idx
    core = (idx == 0).all(axis=0)
    one = ~core & (k == 0) & (l == 0)
    # one key per symmetry orbit: each index pair as a sorted number, then the two sorted
    base = n_orb + 1
    ij = np.minimum(i, j) * base + np.maximum(i, j)
    kl = np.minimum(k, l) * base + np.maximum(k, l)
    key = np.minimum(ij, kl) * base**2 + np.maximum(ij, kl)
    repeated = np.ones(len(key), dtype=bool)
    repeated[np.unique(key, return_index=True)[1]] = False
    for r in np.flatnonzero(repeated).tolist():
        what = ("core energy" if core[r] else f"one-body ({i[r]},{j[r]})" if one[r]
                else f"two-body ({i[r]},{j[r]},{k[r]},{l[r]})")
        warnings.warn(f"integral line {lineno[r]}: {what} repeated; keeping the last value")
    last = np.zeros(len(key), dtype=bool)
    last[len(key) - 1 - np.unique(key[::-1], return_index=True)[1]] = True

    e_core = float(values[core & last][0]) if (core & last).any() else 0.0
    one_body = np.zeros((n_orb, n_orb))
    sel = one & last
    p, q, v = i[sel] - 1, j[sel] - 1, values[sel]
    one_body[p, q] = v
    one_body[q, p] = v
    two_body = np.zeros((n_orb,) * 4)
    sel = ~core & ~one & last
    p, q, r, s, v = i[sel] - 1, j[sel] - 1, k[sel] - 1, l[sel] - 1, values[sel]
    for perm in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                 (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
        two_body[perm] = v
    return FcidumpData(n_orb, n_elec, ms2, e_core, one_body, two_body, metadata)


def load_fcidump(path: str) -> FcidumpData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fcidump(fh.read())


# -- ladder images and operator assembly ---------------------------------
#
# Operators are expanded on uint64 mask arrays, so the mapping works on
# at most SUM_QUBIT_CAP qubits.  A row is i**a X^x Z^z (each qubit's X
# before its Z), so a product of rows multiplies their factors by the
# one sign (-1)**popcount(z1 & x2) and a carries an integer quarter-turn
# phase, never a complex number.  A ladder image (X_q -+ i Y_q)/2 with
# a Z chain below q is two such rows with a = 0 or 2 and weight 1/2,
# since Y = i X Z; a row's word is the canonical Pauli word (x, z) with
# phase i**(a - popcount(x & z)).
#
# H is Hermitian, so every operator O enters with its adjoint and the
# same weight, and JW(O) + JW(O+) = 2 Re JW(O): only the rows with a
# real phase are expanded.  The one-body operator E(pq) = sum a+_ps a_qs
# has E(qp) = E(pq)+, and the two-body operator
# O(pqrs) = sum a+_ps a+_rt a_st a_qs has O(rspq) = O(pqrs) and
# O(qpsr) = O(pqrs)+.  Of each orbit of these maps only the least index
# tuple is expanded (p <= q; lexicographic (p, q, r, s), so p is its
# least index), weighted by the sum of the integrals over the
# orbit's distinct members, the representative's first (half of it for
# the two-body part).  That needs integrals equal to their adjoint's,
# f_pq = f_qp and (pq|rs) = (qp|sr), checked on input.  Each word's
# coefficient is a left fold of its rows in this order: core energy,
# one-body (p, q) ascending, two-body (p, q, r, s) ascending, then spins,
# then the X/Y choice of each factor, first factor slowest.
#
# Which rows there are, their words and their signs depend only on n_orb
# and on which weights are nonzero, not on the integral values: a plan
# holding them is built once per such shape, and a map gathers one
# point's weights into the rows and adds up each word's rows with one
# np.bincount, a left fold from 0.0 in row order.

_DROP_THRESHOLD = 1e-12  # mapped terms below this magnitude are dropped
_HERMITIAN_TOL = 1e-10  # relative to the largest integral, or to 1
_CACHED_SHAPES = 4  # plans (and direct-CI tables) held per kind, least recently used dropped

_SPIN = np.arange(2)
_SIGMA, _TAU = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])  # (s, t) pairs, t fastest
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # (terms, batch): x, z (uint64), phase a of i**a (uint8)


def _ladder(qubits: np.ndarray, dagger: bool) -> _Rows:
    """Creation (or annihilation) images (X_q -+ i Y_q)/2, Z chain below q, halved.

    One column per qubit of the batch, its two rows X Z_chain and
    X Z_chain Z_q; the second has a = 0 (creation) or 2 (annihilation).
    """
    bit = np.left_shift(np.uint64(1), qubits.astype(np.uint64).ravel())
    z = np.stack([bit - np.uint64(1), (bit - np.uint64(1)) | bit])
    phase = np.zeros(z.shape, np.uint8)
    if not dagger:
        phase[1] = 2
    return np.stack([bit, bit]), z, phase


def _expand(factors: list[_Rows]) -> _Rows:
    """Rows of the product over j of factors[j], per batch entry (column).

    The rows run over the first factor's terms slowest.  uint8 phases
    wrap modulo 256, a multiple of 4.
    """
    x, z, a = factors[0]
    for fx, fz, fa in factors[1:]:
        a = a[:, None] + fa[None, :] + 2 * np.bitwise_count(z[:, None] & fx[None, :])
        x = x[:, None] ^ fx[None, :]
        z = z[:, None] ^ fz[None, :]
        shape = (x.shape[0] * x.shape[1], x.shape[2])
        x, z, a = x.reshape(shape), z.reshape(shape), a.reshape(shape)
    return x, z, a


def _real_rows(rows: _Rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The real-phase rows of the columns, batch slowest: x, z, column and sign flip.

    A row's phase i**m is real for even m, and -1 where m = 2 mod 4, so
    its column's weight enters negated.
    """
    x, z, a = rows
    m = (a - np.bitwise_count(x & z)).T
    real = (m & 1) == 0
    return x.T[real], z.T[real], np.nonzero(real)[0], (m[real] & 2) != 0


def _check_width(n_orb: int) -> None:
    if 2 * n_orb > JW_QUBIT_CAP:
        raise ValueError(
            f"Jordan-Wigner mapping capped at {JW_QUBIT_CAP} qubits; "
            f"{n_orb} orbitals need {2 * n_orb}"
        )


def _check_hermitian(one: np.ndarray, two: np.ndarray) -> None:
    """Integrals whose operator is not Hermitian would map to imaginary coefficients.

    A nan or inf integral is rejected first: nan compares false with the
    tolerance below, and its terms would be dropped by ``truncate``.
    """
    for name, a in (("one_body", one), ("two_body", two)):
        finite = np.isfinite(a)
        if not finite.all():
            index = np.unravel_index(np.argmin(finite), a.shape)
            raise ValueError(f"{name}[{', '.join(map(str, index))}] is {a[index]}, not finite")
    worst = max(np.max(np.abs(one - one.T), initial=0.0),
                np.max(np.abs(two - two.transpose(1, 0, 3, 2)), initial=0.0))
    scale = max(1.0, np.max(np.abs(one), initial=0.0), np.max(np.abs(two), initial=0.0))
    if worst > _HERMITIAN_TOL * scale:
        raise ValueError(
            f"integrals differ from their adjoint's by up to {worst:.3e}: "
            "the qubit operator would have imaginary coefficients"
        )


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _orbits(n_orb: int) -> tuple[np.ndarray, np.ndarray]:
    """Each two-body orbit's least (p, q, r, s) and its other members, as flat indices.

    An orbit is (p, q, r, s), (r, s, p, q), (q, p, s, r) and (s, r, q, p).
    The least members ascend; row k of the second array holds each
    orbit's (k + 2)-th member, or n_orb**4 where it repeats an earlier one.
    """
    key = np.arange(n_orb**4).reshape((n_orb,) * 4)
    members, others = [key], []
    least = np.ones(key.shape, dtype=bool)
    for axes in ((2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0)):
        image = key.transpose(axes)
        distinct = np.logical_and.reduce([image != m for m in members])
        least &= key <= image
        members.append(image)
        others.append(np.where(distinct, image, key.size).ravel())
    rep = np.flatnonzero(least)
    return _read_only(rep, np.stack(others)[:, rep])


def _orbit_weights(n_orb: int, two: np.ndarray) -> np.ndarray:
    """Half the sum of the integrals over each orbit's distinct members, in ``_orbits`` order."""
    rep, others = _orbits(n_orb)
    flat = np.append(two, 0.0)  # n_orb**4 reads as a repeated member's 0.0
    total = flat[rep]
    for member in others:
        total += flat[member]
    return 0.5 * total


def _unpack(mask: bytes, count: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(mask, np.uint8), count=count).view(bool)


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _jw_plan(n_orb: int, one_body: bytes, two_body: bytes) -> tuple[np.ndarray, ...]:
    """The integral-free half of the map: the words, and each row's word and weight.

    one_body and two_body are the packed masks of the nonzero one-body
    weights (over the n_orb x n_orb matrix, p <= q) and of the orbits
    with a nonzero weight (in ``_orbits`` order).  The weights are the
    core energy, then the one-body and the two-body weights in mask
    order; a row's source indexes (weights, -weights).  The two-body
    rows are expanded one p block at a time, so the products of one
    block are held at once, not those of every orbit; but the real rows
    of every block are held together while they are grouped, about 75
    bytes each at the peak, and a kept plan holds 8 bytes per row and
    16 per word.
    """
    p, q = np.divmod(np.flatnonzero(_unpack(one_body, n_orb * n_orb)), n_orb)
    rep = _orbits(n_orb)[0]
    rep = rep[_unpack(two_body, len(rep))]
    first, negated = 1 + len(p), 1 + len(p) + len(rep)  # first two-body weight, first of -weights

    # core energy on the identity word, then one-body (p <= q) pairs, then spin
    blocks = [(np.zeros(1, np.uint64), np.zeros(1, np.uint64), np.zeros(1, np.intp))]
    x, z, column, flip = _real_rows(_expand([
        _ladder(2 * p[:, None] + _SPIN, True),
        _ladder(2 * q[:, None] + _SPIN, False),
    ]))
    blocks.append((x, z, 1 + column // 2 + negated * flip))

    # two-body: per p, (q, r, s) orbit representatives, then the (s, t) spin pair
    p, q, r, s = np.unravel_index(rep, (n_orb,) * 4)
    factors = [
        _ladder(2 * p[:, None] + _SIGMA, True),
        _ladder(2 * r[:, None] + _TAU, True),
        _ladder(2 * s[:, None] + _TAU, False),
        _ladder(2 * q[:, None] + _SIGMA, False),
    ]
    bounds = 4 * np.searchsorted(p, np.arange(n_orb + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x, z, column, flip = _real_rows(_expand([tuple(a[:, lo:hi] for a in f) for f in factors]))
        blocks.append((x, z, first + (lo + column) // 4 + negated * flip))
    x, z, source = map(np.concatenate, zip(*blocks))
    del blocks  # the rows are held once while they are grouped
    # 32 orbitals have at most 64 n_orb**4 < 2**31 rows, so int32 halves what a kept plan holds
    source = source.astype(np.int32)
    ux, uz, inverse = _group_masks(x, z)
    return _read_only(ux, uz, inverse.astype(np.int32), source)


def jw_hamiltonian(data: FcidumpData, *, drop_threshold: float = _DROP_THRESHOLD) -> PauliSum:
    """Qubit Hamiltonian on 2*n_orb qubits, interleaved alpha/beta.

    H = E_core + sum f_pq a+_ps a_qs
        + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs  (chemists' notation,
    spins s, t summed independently).  Each orbit of integrals under
    the operator identities above is expanded once, through its
    least member, so the integrals must equal their adjoint's:
    f_pq = f_qp and (pq|rs) = (qp|sr) to 1e-10 of the largest (or of
    1), else ValueError ("imaginary coefficients").  Coefficients below
    drop_threshold in magnitude are removed.  Capped at JW_QUBIT_CAP
    qubits, the width of a ``PauliSum``'s masks: ValueError above.  The
    rows are expanded once per n_orb and pattern of nonzero weights and
    kept for the last _CACHED_SHAPES such shapes; a map of a kept shape
    only adds up its weights.
    """
    n_orb = data.n_orb
    _check_width(n_orb)
    one, two = data.one_body, data.two_body
    _check_hermitian(one, two)
    f = np.triu(one) + np.triu(one.T, 1)
    weight = _orbit_weights(n_orb, two)
    one_on, two_on = f != 0.0, weight != 0.0
    ux, uz, inverse, source = _jw_plan(n_orb, np.packbits(one_on).tobytes(),
                                       np.packbits(two_on).tobytes())
    w = np.concatenate(([data.e_core], 0.25 * f[one_on], weight[two_on] / 16.0))
    signed = np.concatenate((w, -w))[source.astype(np.intp)]  # an int32 index gathers ~3x slower
    c = np.bincount(inverse, weights=signed, minlength=len(ux))
    return PauliSum._canonical(2 * n_orb, ux, uz, c).truncate(drop_threshold)


def _sixteenths(rows: _Rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re of 1/16 times the one column of rows: its real-phase rows."""
    x, z, _, flip = _real_rows(rows)
    return x, z, np.where(flip, -1 / 16, 1 / 16)


def spin_penalty(n_orb: int) -> PauliSum:
    """Singlet penalty operator W = S^2 - S_z = S_- S_+ + S_z^2.

    Vanishes on any singlet; its reference expectation exposes spin
    contamination.  Add mu/2 times this to a Hamiltonian to push
    non-singlet states up by mu/2 per unit of W.  Terms below 1e-12
    in magnitude are dropped, and the operator is capped at
    JW_QUBIT_CAP qubits, as in the mapping.
    """
    if n_orb < 1:
        raise ValueError("need at least one spatial orbital")
    _check_width(n_orb)
    n_q = 2 * n_orb
    alpha = 2 * np.arange(n_orb)
    # S_+ = sum_p a+_(p alpha) a_(p beta), as one batch; its words are all distinct
    x, z, a = (r.T.reshape(-1, 1) for r in _expand([_ladder(alpha, True), _ladder(alpha + 1, False)]))
    # S_- = S_+ adjoint: (i**a X^x Z^z)+ = i**-a Z^z X^x
    s_minus = (x, z, 2 * np.bitwise_count(x & z) - a)
    acc = PauliSum.from_masks(n_q, *_sixteenths(_expand([s_minus, (x, z, a)])))
    # S_z = sum_p (z_(p beta) - z_(p alpha))/4, beta first within each p
    qubits = np.stack([alpha + 1, alpha], axis=1).reshape(-1, 1).astype(np.uint64)
    sz = (np.zeros_like(qubits), np.left_shift(np.uint64(1), qubits),
          np.tile(np.array([[0], [2]], np.uint8), (n_orb, 1)))
    # S_z^2 sums on its own before it joins, as the summation order matters
    sz_sq = PauliSum.from_masks(n_q, *_sixteenths(_expand([sz, sz])))
    return (acc + sz_sq).truncate(_DROP_THRESHOLD)


def add_spin_penalty(h: PauliSum, n_orb: int, mu: float) -> PauliSum:
    """h + (mu/2) W on 2*n_orb qubits."""
    if h.n != 2 * n_orb:
        raise ValueError("Hamiltonian qubit count must be 2*n_orb")
    if mu == 0.0:
        return h
    return h + (mu / 2.0) * spin_penalty(n_orb)


def hf_reference(data: FcidumpData) -> ReferenceState:
    """Aufbau reference: the n_elec lowest interleaved spin orbitals."""
    return ReferenceState(2 * data.n_orb, data.n_elec)
