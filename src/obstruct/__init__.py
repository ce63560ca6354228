"""Beta-shifts, orbit-segment decompositions, maximal-entropy measures,
and machine checks of the counting/Gibbs/mixing estimates behind
intrinsic ergodicity, including sliding-block factors."""

from .beta import BetaExpansion, BetaSystem, greedy_expansion, parse_beta, quasi_greedy
from .decomposition import (
    BetaDecomposition,
    DecompositionScheme,
    GluingResult,
    SpecificationReport,
    beta_decomposition,
    check_specification,
    degenerate_decomposition,
    filtration_coverage,
    min_gluing_time,
    obstruction_entropy_upper,
    zero_padding_to_core,
)
from .factors import (
    BlockCode,
    FactorSystem,
    PairAutomaton,
    apply_code,
    build_pair_automaton,
    factor_entropy_positive,
    factor_language,
    induced_decomposition,
    nonexpansive_growth,
)
from .measures import CylinderMeasure, empirical_mme, max_depth_gap, parry_measure
from .orbits import (
    EntropyEstimate,
    OrbitCollection,
    count_separated,
    upper_entropy,
)
from .perron import PerronData, perron_eigendata
from .quadratic import QuadraticNumber, golden_ratio
from .suites import (
    CountingSuiteReport,
    GibbsReport,
    counting_suite,
    gibbs_check,
    gibbs_proof_constant,
    mixing_check,
    mixing_liminf_probe,
    mixing_proof_constant,
    positive_mass_constant,
    positive_mass_count,
)
from .words import Word, format_word, parse_word, word

__version__ = "0.1.0"
