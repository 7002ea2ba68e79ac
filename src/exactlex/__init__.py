"""Exact and asymptotic significance tests for dependent word pairs."""

from .assoc import AssociationRecord, association_scan, bigram_table, rank_records
from .asymptotic import (
    AssociationMeasures,
    TestResult,
    association_measures,
    chi_square_sf,
    likelihood_g2,
    mantel_haenszel_x2,
    normal_sf,
    pearson_x2,
    t_test,
    yates_x2,
)
from .corpus import (
    BigramCounts,
    CorpusSummary,
    TokenizerConfig,
    count_bigrams,
    count_text,
    tokenize,
    zipf_summary,
)
from .errors import (
    DegenerateTableError,
    EmptyTableError,
    ExactLexError,
    InfeasibleMarginalsError,
    IngestionError,
    InvalidParameterError,
    NegativeCountError,
    NoObservationsError,
    UndefinedStatisticError,
)
from .exact import FisherResult, HypergeomDist, fisher_exact, hypergeom_distribution
from .simulate import CalibrationReport, MultinomialModel, calibration, sample_table
from .tables import (
    ContingencyTable2x2,
    ExpectedTable,
    IndependenceModel,
    expected_counts,
    independence_model,
    make_table,
    small_expected_warning,
    transpose,
)

__version__ = "0.1.0"
