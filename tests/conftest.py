import random
from pathlib import Path

import numpy as np
import pytest

from qubitcc.pauli import (
    PauliSum,
    PauliWord,
    ReferenceState,
    conjugate_by_word,
    half_commutator,
)

DATA_DIR = Path(__file__).parent / "data"


def random_word(rng: random.Random, n: int) -> PauliWord:
    while True:
        x = rng.getrandbits(n)
        z = rng.getrandbits(n)
        if x or z:
            return PauliWord(n, x, z)


def random_even_word(rng: random.Random, n: int) -> PauliWord:
    """Nonidentity word with an even Y count, i.e. a real matrix."""
    while True:
        w = random_word(rng, n)
        if w.y_count() % 2 == 0:
            return w


def random_sum(rng: random.Random, n: int, n_terms: int) -> PauliSum:
    terms: dict[PauliWord, float] = {}
    for _ in range(n_terms):
        w = random_word(rng, n)
        terms[w] = terms.get(w, 0.0) + rng.uniform(-1.0, 1.0)
    return PauliSum(n, list(terms.items()))


def random_even_sum(rng: random.Random, n: int, n_terms: int) -> PauliSum:
    terms: dict[PauliWord, float] = {}
    for _ in range(n_terms):
        w = random_even_word(rng, n)
        terms[w] = terms.get(w, 0.0) + rng.uniform(-1.0, 1.0)
    return PauliSum(n, list(terms.items()))


def word_expectation(ref: ReferenceState, word: PauliWord) -> float:
    """<0|word|0>; zero unless the word is diagonal, else +-1."""
    if word.x:
        return 0.0
    return -1.0 if (word.z & ref.occupied_mask).bit_count() & 1 else 1.0


def conjugation_energy_and_gradient(h, generators, amplitudes, ref):
    """QCC energy and gradient by conjugating the whole Hamiltonian.

    The check for ``qcc_energy_and_gradient``: the derivative with
    respect to t_j is the expectation of (i/2)[T_j, H_j] pushed through
    the remaining outer conjugations, where H_j is the Hamiltonian
    already conjugated through step j.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    L = len(generators)
    inner: list[PauliSum] = []
    cur = h
    for gen, t in zip(generators, amplitudes):
        cur = conjugate_by_word(cur, gen, t)
        inner.append(cur)
    energy = ref.expectation(cur)
    grad = np.zeros(L)
    for j in range(L):
        d = half_commutator(generators[j], inner[j])
        for k in range(j + 1, L):
            d = conjugate_by_word(d, generators[k], amplitudes[k])
        grad[j] = ref.expectation(d)
    return energy, grad


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def h2_fcidump() -> Path:
    return DATA_DIR / "h2_r1p4.fcidump"
