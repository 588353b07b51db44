"""Power-regime diagnostics, safe scaling and tracking for estimators.

The toolkit answers one recurring question about an estimate v of a signal
x: does v carry more mean power than x, and what does that cost?  The
moments module accumulates the seven sufficient sums, diagnostics classifies
the regime and checks the coupling penalty, scaling fits and certifies the
optimal multiplier (and walks iterative controllers toward it), zoo supplies
reproducible synthetic problems, and safezone_map draws the whole picture.
"""

from .diagnostics import (
    BALANCE_TOL,
    DEGENERACY_TOL,
    PenaltyVerdict,
    RegimeLabel,
    TriadReport,
    check_penalty,
    classify_regime,
    report_to_json,
    triad_report,
)
from .errors import (
    DegenerateWindow,
    EmptyInput,
    EmptySummary,
    InvalidSpec,
    NonFiniteSample,
    PowerTriadError,
    ZeroCandidatePower,
    ZeroSignalPower,
)
from .moments import (
    MomentStats,
    MomentSummary,
    SampleBatch,
    accumulate,
    finalize,
    merge,
    read_csv,
    stats_of,
    write_csv,
)
from .safezone_map import (
    MapDataset,
    MapPoint,
    build_left_map,
    build_right_map,
    emit_dataset,
    map_point,
    map_point_from_certificate,
    parse_dataset_csv,
    render_svg,
)
from .scaling import (
    ControllerConfig,
    ScalingCertificate,
    ScalingProblem,
    ScalingTrace,
    TrackTrace,
    balance_scale,
    certify_optimum,
    mse_of_t,
    optimal_scale,
    run_path,
    track_moving_optimum,
)
from .zoo import (
    ESTIMATOR_KINDS,
    PROBLEM_KINDS,
    EstimatorSpec,
    ProblemSpec,
    apply_estimator,
    generate,
    parse_estimator_spec,
    parse_problem_spec,
    population_moments,
)

__version__ = "0.1.0"
