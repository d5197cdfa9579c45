import random
from pathlib import Path

import pytest

from qubitcc.pauli import PauliSum, PauliWord, ReferenceState

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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def h2_fcidump() -> Path:
    return DATA_DIR / "h2_r1p4.fcidump"
