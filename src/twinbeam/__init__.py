"""Twin-beam quantum interference toolkit.

Exact Fock-space beam-splitter simulation at small photon number, linearized
quadrature-fluctuation propagation for bright beams, closed-form noise
spectra of an above-threshold twin-beam source, and a trace-fitting pipeline
for measured intensity- and phase-difference spectra.

The package root exports nothing: import each name from its module
(``from twinbeam import fock``, ``twinbeam.fock.make_fock``).
"""
