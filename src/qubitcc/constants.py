"""Physical constants (CODATA 2018) and unit conversions.

Pinned here so every consumer converts identically; do not shadow these
with local literals.
"""

# hartree expressed as a wavenumber, E_h / (h c), in cm^-1
HARTREE_TO_INVCM = 2.1947463136320e5

# atomic mass constant over the electron mass, m_u / m_e
AMU_TO_ELECTRON_MASS = 1822.888486209
