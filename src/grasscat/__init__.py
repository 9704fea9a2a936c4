"""grasscat: a multivariate distribution for categorical and ordinal data.

Determinant-based probabilities over structured dummy encodings, constrained
maximum-likelihood fitting, a latent-factor model with biplot export, and the
companion continuous/binary mixed distribution.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    DataError,
    EnumerationCapError,
    GrasscatError,
    InvalidStateError,
    ParameterError,
    SchemaError,
)
from .schema import (
    DummyState,
    Record,
    VariableDecl,
    VariableKind,
    VariableSchema,
    allowed_table,
    decode_state,
    encode_record,
    enumerate_allowed_states,
    load_data_levels,
    load_data_rows,
    load_schema,
)
from .grassmann import (
    GrassmannParams,
    IndexPartition,
    P0Report,
    check_p0,
    conditional_params,
    conditional_zero_moments,
    joint_probability,
    marginal_params,
    moments,
    state_probabilities,
)
from .structure import (
    StructuredParams,
    assemble_lambda,
    categorical_pmf,
    extended_lambda,
    ordinal_pmf,
)
from .fit import (
    FitConfig,
    FitGradient,
    FitReport,
    StateCounts,
    empirical_moments,
    fit_grassmann,
    negative_log_likelihood,
    nll_gradient,
    state_counts,
)
from .factor import (
    BiplotData,
    CombinedLoadings,
    FactorFitConfig,
    FactorFitReport,
    FactorModel,
    bic_parameter_count,
    biplot_data,
    biplot_export,
    combined_loadings,
    fit_factor_model,
    fix_rotation,
    mixture_weights,
    observed_density,
    posterior,
    select_dimension_bic,
)
from .mixed import (
    MixedParams,
    MixedPartition,
    conditional_binary_given_continuous,
    mixed_conditional_density,
    mixed_joint_density,
    mixed_marginal_density,
)
from .oracle import (
    FullTable,
    OracleConditional,
    brute_force_table,
    oracle_conditional,
    oracle_marginal,
)
from .modelfile import ModelFile, load_model, save_model
