"""Twin-beam quantum interference toolkit.

Exact Fock-space beam-splitter simulation at small photon number, linearized
quadrature-fluctuation propagation for bright beams, closed-form noise
spectra of an above-threshold twin-beam source, and a trace-fitting pipeline
for measured intensity- and phase-difference spectra.
"""

from .errors import (
    CapacityError,
    DomainError,
    FitConvergenceError,
    TraceParseError,
    TruncationError,
    TruncationWarning,
    TwinbeamError,
    ValidationError,
)
from .fock import (
    BALANCED_ANGLE,
    ROTATION,
    SYMMETRIC_I,
    MultimodeState,
    ScatterOutcome,
    apply_beam_splitter,
    apply_waveplate_polarizer,
    coincidence_probability,
    joint_port_distribution,
    make_coherent_pair,
    make_fock,
    make_twin_mode_mixture,
    number_difference_stats,
)
from .modes import ModeLabel, Polarization, Port
from .quadratures import (
    KAPPA,
    DifferenceStats,
    FockCrossCheck,
    QuadratureState,
    cross_check_against_fock,
    number_difference_std,
    quadrature_difference_stds,
    random_valid_covariance,
)
from .spectra import (
    OpoParams,
    SpectrumCurve,
    distinguishable_phase_spectrum,
    intensity_diff_spectrum,
    opo_quadrature_covariance,
    phase_diff_spectrum,
    physical_frequency_curve,
    uncertainty_excess,
    uncertainty_product,
)
from .tracefit import (
    FitConfig,
    FitResult,
    SpectrumTrace,
    SqueezingReport,
    fit_intensity_spectrum,
    load_trace,
    predict_phase_spectrum,
    report_squeezing,
    save_trace,
    subtract_noise_floor,
    synth_trace,
    trace_to_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
