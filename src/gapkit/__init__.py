"""gapkit: one incomplete-matrix data model, many ways to deal with the gaps."""

__version__ = "0.1.0"

from .core import (
    ColumnSplit,
    IncompleteMatrix,
    SeedSpec,
    read_matrix_csv,
    rmse_missing,
    sep,
    split_column,
    write_matrix_csv,
)
from .mechanisms import MechanismKind, MechanismSpec, PatternClass, classify_pattern, gen_mask
from .imputation import (
    ImputerKind,
    ImputerSpec,
    impute_conditional_gaussian,
    impute_iterative,
    impute_knn,
    impute_mean,
    multiple_impute,
)
from .em import (
    EmConfig,
    EVariant,
    GaussianParams,
    StudentTParams,
    conditional_gaussian,
    em_gaussian_fit,
    em_student_fit,
    observed_loglik_gaussian,
    observed_loglik_student,
)
from .mnar import SelectionParams, sem_selection_fit
from .completion import hard_impute, soft_impute
from .structcov import CovStructure, StructureKind, em_structured_fit, project_factor_model, project_fml
from .subspace import (
    RobustConfig,
    TrackerState,
    petrels_init,
    petrels_update,
    petrels_weights,
    robust_stage1,
    robust_update,
)
from .graph import (
    DirectedGraph,
    FidelityKind,
    RecoveryConfig,
    SmoothnessKind,
    UndirectedGraph,
    gmrf_learn,
    recover_tikhonov,
    recover_tv,
    smoothness,
    stsrgl_fit,
    var_learn,
)
from .timeseries import Ar1StudentParams, ar1t_fit_saem, ar1t_multiple_impute
from .harness import ExperimentConfig, compare_methods, load_config, run_experiment
