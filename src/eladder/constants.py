"""Unit system and physical constants.

Everything internal runs in electronvolt / femtosecond / nanometre units.
In this system Hamiltonian entries are O(1) eV, times are O(1..1000) fs,
and a field amplitude quoted in V/nm is numerically identical to the energy
gradient e*E in eV/nm, so the elementary charge never appears explicitly.
"""

HBAR = 0.6582119569          # reduced Planck constant, eV fs
REST_ENERGY = 510998.95      # electron rest energy m c^2, eV
LIGHT_SPEED = 299.792458     # c, nm / fs
ELECTRON_MASS = REST_ENERGY / LIGHT_SPEED**2    # eV fs^2 / nm^2

