"""Molecular Hamiltonian input and fermion-to-qubit mapping.

FCIDUMP files carry spatial-orbital integrals in chemists' notation
with a Fortran namelist header.  The ladder-operator images use the
standard Z-chain encoding with interleaved spins (spatial orbital p
maps to qubits 2p for alpha and 2p+1 for beta), so a closed-shell
aufbau determinant occupies a contiguous low block of qubits.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .pauli import I_POWERS, PauliSum, PauliWord, ReferenceState, multiply

__all__ = [
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
    overwrites the earlier value with a warning.
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
    for lineno, raw in enumerate(text[body_start:].splitlines(), start=1):
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

def _ladder(n_q: int, q: int, dagger: bool) -> tuple[tuple[PauliWord, complex], ...]:
    """Annihilation (or creation) image: (X_q +- i Y_q)/2 with a Z chain below."""
    chain = (1 << q) - 1
    wx = PauliWord(n_q, 1 << q, chain)
    wy = PauliWord(n_q, 1 << q, chain | (1 << q))
    sign = -1j if dagger else 1j
    return ((wx, 0.5 + 0j), (wy, 0.5 * sign))


def _accumulate_product(
    out: dict[PauliWord, complex],
    factors: list[Collection[tuple[PauliWord, complex]]],
    scale: complex,
) -> None:
    """out += scale * product(factors), expanding term by term."""
    partial: list[tuple[PauliWord | None, complex]] = [(None, complex(scale))]
    for factor in factors:
        grown: list[tuple[PauliWord | None, complex]] = []
        for word, coeff in partial:
            for w, c in factor:
                if word is None:
                    grown.append((w, coeff * c))
                else:
                    v, k = multiply(word, w)
                    grown.append((v, coeff * c * I_POWERS[k]))
        partial = grown
    for word, coeff in partial:
        out[word] = out.get(word, 0j) + coeff


def _fold_real(n_q: int, acc: dict[PauliWord, complex], drop_threshold: float) -> PauliSum:
    worst = max((abs(v.imag) for v in acc.values()), default=0.0)
    scale = max(1.0, max((abs(v) for v in acc.values()), default=0.0))
    if worst > 1e-10 * scale:
        raise ValueError(f"qubit operator has imaginary coefficients up to {worst:.3e}")
    terms = [(w, v.real) for w, v in acc.items() if abs(v.real) > drop_threshold]
    return PauliSum(n_q, terms)


def jw_hamiltonian(data: FcidumpData, *, drop_threshold: float = 1e-12) -> PauliSum:
    """Qubit Hamiltonian on 2*n_orb qubits, interleaved alpha/beta.

    H = E_core + sum f_pq a+_ps a_qs
        + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs  (chemists' notation,
    spins s, t summed independently).  Coefficients below
    drop_threshold in magnitude are removed.
    """
    n_orb = data.n_orb
    n_q = 2 * n_orb
    acc: dict[PauliWord, complex] = {}
    if data.e_core != 0.0:
        acc[PauliWord.identity(n_q)] = complex(data.e_core)

    create = [_ladder(n_q, q, True) for q in range(n_q)]
    destroy = [_ladder(n_q, q, False) for q in range(n_q)]

    for p in range(n_orb):
        for q in range(n_orb):
            f = data.one_body[p, q]
            if f == 0.0:
                continue
            for s in (0, 1):
                _accumulate_product(acc, [create[2 * p + s], destroy[2 * q + s]], f)

    for p in range(n_orb):
        for q in range(n_orb):
            for r in range(n_orb):
                for s_orb in range(n_orb):
                    g = data.two_body[p, q, r, s_orb]
                    if g == 0.0:
                        continue
                    for s in (0, 1):
                        for t in (0, 1):
                            _accumulate_product(
                                acc,
                                [
                                    create[2 * p + s],
                                    create[2 * r + t],
                                    destroy[2 * s_orb + t],
                                    destroy[2 * q + s],
                                ],
                                0.5 * g,
                            )
    return _fold_real(n_q, acc, drop_threshold)


def spin_penalty(n_orb: int, *, drop_threshold: float = 1e-12) -> PauliSum:
    """Singlet penalty operator W = S^2 - S_z = S_- S_+ + S_z^2.

    Vanishes on any singlet; its reference expectation exposes spin
    contamination.  Add mu/2 times this to a Hamiltonian to push
    non-singlet states up by mu/2 per unit of W.
    """
    if n_orb < 1:
        raise ValueError("need at least one spatial orbital")
    n_q = 2 * n_orb
    s_plus: dict[PauliWord, complex] = {}
    for p in range(n_orb):
        _accumulate_product(
            s_plus, [_ladder(n_q, 2 * p, True), _ladder(n_q, 2 * p + 1, False)], 1.0
        )
    s_minus = {w: v.conjugate() for w, v in s_plus.items()}
    sz: dict[PauliWord, complex] = {}
    for p in range(n_orb):
        # n_alpha - n_beta = (z_beta - z_alpha)/2 per orbital
        sz_word_a = PauliWord(n_q, 0, 1 << (2 * p))
        sz_word_b = PauliWord(n_q, 0, 1 << (2 * p + 1))
        sz[sz_word_b] = sz.get(sz_word_b, 0j) + 0.25
        sz[sz_word_a] = sz.get(sz_word_a, 0j) - 0.25

    acc: dict[PauliWord, complex] = {}
    _accumulate_product(acc, [s_minus.items(), s_plus.items()], 1.0)
    # sz*sz sums on its own before the merge, as the summation order matters
    sz_sq: dict[PauliWord, complex] = {}
    _accumulate_product(sz_sq, [sz.items(), sz.items()], 1.0)
    for w, v in sz_sq.items():
        acc[w] = acc.get(w, 0j) + v
    return _fold_real(n_q, acc, drop_threshold)


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
