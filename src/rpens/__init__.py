"""Random-projection ensemble classification.

High-dimensional two-class data are classified by aggregating many
low-dimensional views: blocks of random projections are drawn, the best
projection of each block (by estimated test error) keeps its base
classifier, and the surviving classifiers vote.
"""

__version__ = "0.1.0"

from .base_classifiers import (
    BaseSpec,
    KnnModel,
    LdaModel,
    QdaModel,
    default_knn_k,
    fit_base,
    fit_knn,
    fit_lda,
    fit_qda,
    knn_loo_labels,
    lda_closed_form_test_error,
    qda_loo_labels,
)
from .datagen import LabelledSample, ModelSpec, bayes_risk, eta, load_labelled_csv, log_density, sample
from .ensemble import (
    EnsembleConfig,
    EnsembleModel,
    estimate_alpha,
    fit,
    g_curves,
    predict_many,
    select_block_winner,
    select_d,
    select_d_profile,
    votes_many,
)
from .error_estimation import (
    ESTIMATORS,
    ErrorEstimate,
    default_estimator,
    leave_one_out,
    resubstitution,
    sample_split,
)
from .errors import (
    BlockFailureError,
    DataFormatError,
    DegenerateVotesError,
    EstimationFailureError,
    ExperimentError,
    InvalidDimensionError,
    MissingClassError,
    RpensError,
    ShapeMismatchError,
    SingularCovarianceError,
)
from .evaluation import (
    ComparatorSpec,
    CsvSource,
    ExperimentResult,
    ExperimentSpec,
    MethodSpec,
    comparator_knn_cv,
    run,
    theorem1_rate_diagnostic,
    theorem2_bound_diagnostic,
)
from .projections import Projection, sample_axis_aligned, sample_haar
from .rng import child_seed, derive_int, make_rng
from .serialize import load_model, save_model
