"""Inverse corrosion detection from electrostatic boundary measurements.

Forward solver for the nonlinear boundary value problem (harmonic potential
with a nonlinear exchange law on the inaccessible boundary), regularized
Cauchy-data continuation, recovery of the corrosion law on the range of the
potential, and empirical stability experiments.
"""
