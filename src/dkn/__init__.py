"""Deep Kronecker network regression.

Scalar-on-image GLM regression where the coefficient tensor is a rank-R
sum of Kronecker products of L small factors, estimated by alternating
minimization with spectral initialization.  Submodules:

* ``tensor_core``: dense tensors, canonical vectorization, DKT1 file IO;
* ``kron_ops``: Kronecker algebra and the reshaping/convolution identities;
* ``glm``: gaussian and bernoulli families, ridge-stabilized solvers;
* ``dkn_fit``: structures, initialization, the alternating fit, BIC scans,
  model persistence;
* ``diagnostics``: executable checks of the contraction theory and
  identifiability conditions;
* ``harness``: synthetic-data protocol, metrics, the ridge baseline, and
  experiment orchestration;
* ``cli``: the ``dkn`` command-line entry point.
"""

from . import rng
from .dkn_fit import (
    DknModel,
    DknStructure,
    FitOptions,
    FitReport,
    auto_structure,
    bic,
    build_design,
    deepest_structure,
    fit,
    init_spectral,
    load_model,
    merge_to_depth,
    normalize,
    pad_images,
    partial_products,
    predict,
    save_model,
    scan_rank,
    sweep_update,
)
from .diagnostics import (
    coeff_distance,
    identifiability_check,
    krank,
    measure_mu,
    probe_rip,
    probe_tau0,
    theory_constants,
    true_left_products,
    verify_decay,
)
from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    DimensionError,
    DknError,
    RankDeficiencyError,
)
from .glm import BERNOULLI, GAUSSIAN, fit_glm, get_family, nll, nll_grad
from .harness import (
    ExperimentConfig,
    SignalSpec,
    baseline_ridge,
    gen_images,
    gen_responses,
    gen_signal,
    rmse_coeff,
    rmse_pred,
    run_experiment,
    run_repetition,
)
from .kron_ops import (
    compose_coeff,
    conv_chain_eval,
    kron_chain,
    nonoverlap_conv,
    reshape_R,
    reshape_T,
    tkp,
)
from .tensor_core import (
    as_tensor,
    block,
    dist,
    fro_norm,
    inner,
    read_dkt,
    read_dkt_stack,
    unvec,
    vec,
    write_dkt,
)

__version__ = "0.1.0"

__all__ = [
    "DknModel",
    "DknStructure",
    "FitOptions",
    "FitReport",
    "auto_structure",
    "bic",
    "build_design",
    "deepest_structure",
    "fit",
    "init_spectral",
    "load_model",
    "merge_to_depth",
    "normalize",
    "pad_images",
    "partial_products",
    "predict",
    "save_model",
    "scan_rank",
    "sweep_update",
    "coeff_distance",
    "identifiability_check",
    "krank",
    "measure_mu",
    "probe_rip",
    "probe_tau0",
    "theory_constants",
    "true_left_products",
    "verify_decay",
    "DknError",
    "DimensionError",
    "DataFormatError",
    "RankDeficiencyError",
    "ConvergenceError",
    "DegenerateDataError",
    "GAUSSIAN",
    "BERNOULLI",
    "get_family",
    "fit_glm",
    "nll",
    "nll_grad",
    "ExperimentConfig",
    "SignalSpec",
    "baseline_ridge",
    "gen_images",
    "gen_responses",
    "gen_signal",
    "rmse_coeff",
    "rmse_pred",
    "run_experiment",
    "run_repetition",
    "tkp",
    "kron_chain",
    "compose_coeff",
    "reshape_R",
    "reshape_T",
    "nonoverlap_conv",
    "conv_chain_eval",
    "as_tensor",
    "vec",
    "unvec",
    "inner",
    "fro_norm",
    "dist",
    "block",
    "read_dkt",
    "read_dkt_stack",
    "write_dkt",
    "rng",
    "__version__",
]
