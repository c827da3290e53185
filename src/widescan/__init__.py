"""Compressed wideband spectrum sensing at sub-Nyquist rates.

Block-structured occupancy simulation, reduction-matrix and PN-mixing
measurement, a sparse-recovery solver suite built around block-weighted l1
minimization, cooperative fusion, occupancy forecasting, and a seeded
Monte Carlo experiment harness.
"""

from .cooperative import (
    PENDING,
    Contribution,
    FusionCenter,
    SecondaryUser,
    fuse_votes,
    pool_and_recover,
    pooled_sensing,
    su_sense,
)
from .greedy import solve_assamp, solve_cosamp, solve_omp
from .measurement import (
    AfeBank,
    ReductionMatrix,
    SensingMatrix,
    afe_measure,
    bank_to_reduction,
    build_reduction,
    coherence,
    compose_sensing,
    make_afe_bank,
    measure,
)
from .prediction import (
    OccupancyHistory,
    Predictor,
    fit_gd,
    predict_sparsity,
    required_measurements,
)
from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    decide_occupancy,
    design_weights,
    error_gain,
    nmse,
    nmse_l2,
    solve_bp,
    solve_lasso,
    solve_wlasso,
    solve_wlasso_scaled,
)
from .spectrum import (
    BlockPartition,
    NoiseModel,
    SpectrumInstance,
    add_time_noise,
    average_block_sparsity,
    make_block_partition,
    sample_instance,
)

__version__ = "0.1.0"
