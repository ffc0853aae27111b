"""hompurify: simulation and fitting toolkit for linear-optical
purification of photon indistinguishability."""

from .circuits import (
    TransferMatrix,
    beamsplitter,
    purifier_circuits,
    purifier_pair_circuit,
)
from .dephasing import OverlapMoments, pd_coincidence, pd_moments, pd_purified
from .distinguishability import (
    DephasingParams,
    PolarizationState,
    constant_overlap_S,
    dephasing_overlap,
    polarization_S,
    sample_dephased_overlaps,
)
from .fock import AssignmentList, ClickPattern, FockState, enumerate_outputs, submatrix
from .histogram_fit import (
    FitError,
    FitResult,
    PeakCounts,
    SetupGeometry,
    fit,
    mc_uncertainty,
    pure_count_model,
    raw_count_model,
)
from .permanents import (
    DistinguishabilityMatrix,
    multipermanent,
    output_probability,
    permanent,
    permanent_batch,
    permanent_naive,
)
from .protocol import (
    NoiseConfig,
    Scenario,
    bs_sweep,
    evaluate_scenario,
    evaluate_scenarios,
    g2_sweep,
    hom_visibility,
    multiphoton_visibility,
    p2_from_g2,
    polarization_bounds,
    purified_visibility,
    raw_visibility_sweep,
    signature_probability,
    success_probability,
)

__version__ = "0.1.0"
