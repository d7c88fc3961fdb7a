"""Thermodynamic formalism for expanding interval maps with countably many
branches: pressure estimates with certified brackets, Hausdorff dimension
via pressure roots, measure-theoretic lower bounds, and dimension spectra
of level sets of Birkhoff averages."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .errors import (
    BracketError,
    BudgetExceededError,
    InfeasibleConstraintsError,
    InfeasibleModelError,
    InvalidMeasureError,
    InvalidWordError,
    ModelError,
    ThermospecError,
    UndeterminedError,
    UnderdeterminedWordError,
    UnsupportedPotentialError,
)
from .systems import (
    Branch,
    BranchSystem,
    FlatParams,
    ConstantPotential,
    GaussTail,
    HarmonicPotential,
    IndicatorPotential,
    LogDerivPotential,
    Potential,
    PowerLogTail,
    TablePotential,
    Tail,
    birkhoff_sum,
    branch,
    branch_diameter,
    check_word,
    constant_potential,
    cylinder_diameter,
    cylinder_diameter_bracket,
    diam_series,
    diameters,
    doubling_system,
    dump_model,
    dump_potential,
    flat_example_system,
    gauss_system,
    harmonic_potential,
    indicator_potential,
    is_linear,
    linear_system,
    load_model,
    load_potential,
    log_deriv_potential,
    periodic_points,
    potential_value,
    powerlog_system,
    restricted_system,
    s_inf_exact,
    series_converges,
    table_potential,
    truncate,
)
from .thermo import (
    PressureEstimate,
    RootResult,
    SInfinityResult,
    default_budget,
    pressure,
    pressure_locally_constant,
    pressure_locally_constant_bracket,
    pressure_root,
    s_infinity,
)
from .measures import (
    CylinderMeasure,
    FeasibilityReport,
    FreqDimResult,
    MeasureStats,
    MixtureResult,
    digit_frequency_dimension,
    feasible,
    golden_dirac_stats,
    maximize_ratio,
    mixture_lower_bound,
    sequence_lower_bound,
    stats,
)
from .spectrum import (
    FlatBounds,
    FlatCertificate,
    SpectrumCurve,
    SpectrumPoint,
    flat_bounds,
    flat_certificate,
    legendre_solve,
    spectrum_curve,
)

# the verification suite (``oracle``) loads on first use of one of its names
_ORACLE_NAMES = (
    "OracleReport",
    "OrbitSample",
    "besicovitch_eggleston",
    "canonical_cylinder",
    "cf_cylinder_diameter_exact",
    "cf_cylinder_matrix",
    "cf_orbit_log_deriv",
    "cf_periodic_point",
    "moran_root",
    "powerlog_series",
    "sample_orbit",
    "truncation_ladder_check",
    "verification_suite",
)


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["oracle", *_ORACLE_NAMES])
