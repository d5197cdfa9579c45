"""Molecular Hamiltonian input and fermion-to-qubit mapping.

FCIDUMP files carry spatial-orbital integrals in chemists' notation
with a Fortran namelist header.  The ladder-operator images use the
standard Z-chain encoding with interleaved spins (spatial orbital p
maps to qubits 2p for alpha and 2p+1 for beta), so a closed-shell
aufbau determinant occupies a contiguous low block of qubits.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    I_POWERS,
    SUM_QUBIT_CAP,
    PauliSum,
    ReferenceState,
    _group_masks,
    _mask_product,
)

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


def parse_fcidump(text: str) -> FcidumpData:
    """Parse FCIDUMP text: header, then `value i j k l` lines.

    Indices are 1-based; (0,0,0,0) is the core energy, (i,j,0,0) a
    one-body integral, anything else a chemists'-notation two-body
    integral stored with its full 8-fold symmetry.  A repeated entry
    overwrites the earlier value with a warning; a nan or inf value
    raises.
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
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError("NELEC outside 0..2*NORB")
    metadata = {k: v for k, v in fields.items() if k not in {"NORB", "NELEC", "MS2"}}

    e_core = 0.0
    one = np.zeros((n_orb, n_orb))
    two = np.zeros((n_orb,) * 4)
    seen: set[tuple[int, int, int, int]] = set()
    have_core = False
    # lineno counts lines of the whole file, so messages point at the entry
    first = text.count("\n", 0, body_start) + 1
    for lineno, raw in enumerate(text[body_start:].splitlines(), start=first):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"integral line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"integral line {lineno}: malformed entry {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"integral line {lineno}: non-finite value {parts[0]!r}")
        if not all(0 <= idx <= n_orb for idx in (i, j, k, l)):
            raise ValueError(f"integral line {lineno}: index outside 1..{n_orb}")
        if i == j == k == l == 0:
            if have_core:
                warnings.warn(f"integral line {lineno}: core energy repeated; keeping the last value")
            e_core = value
            have_core = True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"integral line {lineno}: one-body entry with a zero index")
            key = (max(i, j), min(i, j), 0, 0)
            if key in seen:
                warnings.warn(f"integral line {lineno}: one-body ({i},{j}) repeated; keeping the last value")
            seen.add(key)
            one[i - 1, j - 1] = value
            one[j - 1, i - 1] = value
        else:
            if 0 in (i, j, k, l):
                raise ValueError(f"integral line {lineno}: two-body entry with a zero index")
            a, bb, c, dd = i - 1, j - 1, k - 1, l - 1
            perms = {
                (a, bb, c, dd), (bb, a, c, dd), (a, bb, dd, c), (bb, a, dd, c),
                (c, dd, a, bb), (dd, c, a, bb), (c, dd, bb, a), (dd, c, bb, a),
            }
            key = min(perms)
            if key in seen:
                warnings.warn(f"integral line {lineno}: two-body ({i},{j},{k},{l}) repeated; keeping the last value")
            seen.add(key)
            for p in perms:
                two[p] = value
    return FcidumpData(n_orb, n_elec, ms2, e_core, one, two, metadata)


def load_fcidump(path: str) -> FcidumpData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fcidump(fh.read())


# -- ladder images and operator assembly ---------------------------------
#
# Operators are expanded on uint64 mask arrays (pauli's array helpers),
# so the mapping works on at most SUM_QUBIT_CAP qubits.  Every ladder
# factor is 0.5 or +-0.5i and every phase a power of i, so each product
# coefficient is exact; only the order in which equal words are summed
# decides the rounding.  That order is the term-by-term expansion's:
# integral loops outermost, then spins, then the X/Y choice of each
# factor, first factor slowest.

JW_QUBIT_CAP = SUM_QUBIT_CAP  # checked on NORB, before any expansion
_DROP_THRESHOLD = 1e-12  # mapped terms at or below this magnitude are dropped

_I_POWERS = np.array(I_POWERS)
_LADDER_COEFFS = {True: np.array([0.5, -0.5j]), False: np.array([0.5, 0.5j])}

_Terms = tuple[np.ndarray, np.ndarray, np.ndarray]  # x, z (uint64), complex coefficients


def _ladder(qubits: np.ndarray, dagger: bool) -> _Terms:
    """Creation (or annihilation) images (X_q -+ i Y_q)/2, Z chain below q.

    One row per qubit of the batch, its two columns the X and Y terms.
    """
    bit = np.left_shift(np.uint64(1), qubits.astype(np.uint64).reshape(-1, 1))
    z = (bit - np.uint64(1)) | (bit * np.array([0, 1], np.uint64))
    coeffs = np.broadcast_to(_LADDER_COEFFS[dagger], z.shape)
    return np.broadcast_to(bit, z.shape), z, coeffs


def _expand(scale: np.ndarray, factors: list[_Terms]) -> _Terms:
    """Terms of scale[b] * product over j of factors[j][b], flattened.

    Each factor holds one row of terms per batch entry b; the output
    runs over b slowest, then over the first factor's terms, and so on.
    """
    x, z, c = factors[0]
    c = scale[:, None] * c
    for fx, fz, fc in factors[1:]:
        x, z, k = _mask_product(x[:, :, None], z[:, :, None], fx[:, None, :], fz[:, None, :])
        c = c[:, :, None] * fc[:, None, :] * _I_POWERS[k]
        shape = (len(scale), x.shape[1] * x.shape[2])
        x, z, c = x.reshape(shape), z.reshape(shape), c.reshape(shape)
    return x.ravel(), z.ravel(), c.ravel()


def _merge(acc: _Terms | None, terms: _Terms) -> _Terms:
    """acc + terms with one entry per word, in canonical order.

    acc goes first, so each word's running sum continues where it left
    off; ``np.bincount`` then adds the terms sequentially in input
    order, as a dict accumulating term by term would.
    """
    if acc is not None:
        terms = tuple(np.concatenate(pair) for pair in zip(acc, terms))
    x, z, c = terms
    ux, uz, inverse = _group_masks(x, z)
    total = np.bincount(inverse, weights=c.real, minlength=len(ux)).astype(complex)
    total.imag = np.bincount(inverse, weights=c.imag, minlength=len(ux))
    return ux, uz, total


def _fold_real(n_q: int, acc: _Terms, drop_threshold: float) -> PauliSum:
    x, z, c = acc
    worst = float(np.max(np.abs(c.imag), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(c), initial=0.0)))
    if worst > 1e-10 * scale:
        raise ValueError(f"qubit operator has imaginary coefficients up to {worst:.3e}")
    keep = np.abs(c.real) > drop_threshold
    return PauliSum.from_masks(n_q, x[keep], z[keep], c.real[keep])


def _check_width(n_orb: int) -> None:
    if 2 * n_orb > JW_QUBIT_CAP:
        raise ValueError(
            f"Jordan-Wigner mapping capped at {JW_QUBIT_CAP} qubits; "
            f"{n_orb} orbitals need {2 * n_orb}"
        )


def jw_hamiltonian(data: FcidumpData, *, drop_threshold: float = _DROP_THRESHOLD) -> PauliSum:
    """Qubit Hamiltonian on 2*n_orb qubits, interleaved alpha/beta.

    H = E_core + sum f_pq a+_ps a_qs
        + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs  (chemists' notation,
    spins s, t summed independently).  Coefficients below
    drop_threshold in magnitude are removed.  Capped at JW_QUBIT_CAP
    qubits, the width of a ``PauliSum``'s masks: ValueError above.  The
    two-body sum expands one p block at a time, so the working set is
    the terms so far plus one block.
    """
    n_orb = data.n_orb
    _check_width(n_orb)
    n_q = 2 * n_orb
    spin = np.arange(2)
    acc = None
    if data.e_core != 0.0:
        identity = np.zeros(1, np.uint64)
        acc = _merge(None, (identity, identity, np.array([complex(data.e_core)])))

    # one-body: (p, q) pairs, then spin
    p, q = np.nonzero(data.one_body)
    f = np.repeat(data.one_body[p, q], 2)
    acc = _merge(acc, _expand(f, [
        _ladder(2 * p[:, None] + spin, True),
        _ladder(2 * q[:, None] + spin, False),
    ]))

    # two-body: per p, (q, r, s) triples, then the (s, t) spin pair
    sigma, tau = spin[:, None], spin
    for p in range(n_orb):
        block = data.two_body[p]
        q, r, s = (a[:, None, None] for a in np.nonzero(block))
        g = np.repeat(0.5 * block[q, r, s].ravel(), 4)
        grid = (len(g) // 4, 2, 2)
        acc = _merge(acc, _expand(g, [
            _ladder(np.broadcast_to(2 * p + sigma, grid), True),
            _ladder(np.broadcast_to(2 * r + tau, grid), True),
            _ladder(np.broadcast_to(2 * s + tau, grid), False),
            _ladder(np.broadcast_to(2 * q + sigma, grid), False),
        ]))
    return _fold_real(n_q, acc, drop_threshold)


def spin_penalty(n_orb: int) -> PauliSum:
    """Singlet penalty operator W = S^2 - S_z = S_- S_+ + S_z^2.

    Vanishes on any singlet; its reference expectation exposes spin
    contamination.  Add mu/2 times this to a Hamiltonian to push
    non-singlet states up by mu/2 per unit of W.  Terms at or below
    1e-12 in magnitude are dropped, and the operator is capped at
    JW_QUBIT_CAP qubits, as in the mapping.
    """
    if n_orb < 1:
        raise ValueError("need at least one spatial orbital")
    _check_width(n_orb)
    alpha = 2 * np.arange(n_orb)
    one = np.ones(1)
    # S_+ = sum_p a+_(p alpha) a_(p beta); its words are all distinct
    x, z, c = _expand(np.ones(n_orb), [_ladder(alpha, True), _ladder(alpha + 1, False)])
    s_plus = (x[None], z[None], c[None])
    s_minus = (x[None], z[None], c.conj()[None])
    acc = _merge(None, _expand(one, [s_minus, s_plus]))
    # S_z = sum_p (z_(p beta) - z_(p alpha))/4, beta first within each p
    qubits = np.stack([alpha + 1, alpha], axis=1).reshape(1, -1).astype(np.uint64)
    sz = (np.zeros_like(qubits), np.left_shift(np.uint64(1), qubits),
          np.tile([0.25 + 0j, -0.25 + 0j], (1, n_orb)))
    # S_z^2 sums on its own before the merge, as the summation order matters
    sz_sq = _merge(None, _expand(one, [sz, sz]))
    return _fold_real(2 * n_orb, _merge(acc, sz_sq), _DROP_THRESHOLD)


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
