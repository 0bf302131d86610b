"""Indoor signal surveying from pedestrian dead reckoning.

A two-pass particle filter turns a noisy step log into a
floorplan-consistent walk, magnetic loop closures tie revisits
together, and Gaussian-process signal maps are fitted along the
recovered trajectory.
"""

from .filtering import (
    ConstraintSet,
    FilterLostError,
    FilterResult,
    KldConfig,
    kld_required_particles,
    kld_resample,
    pf1_kld_config,
    pf2_kld_config,
    propagate,
    prune_smooth,
    run_filter,
    seed_particles,
)
from .geometry import (
    Floorplan,
    FloorplanError,
    Pose2D,
    Room,
    containing_room,
    load_floorplan,
    parse_floorplan,
    wrap_angle,
)
from .loopclosure import (
    LoopClosureResult,
    MspParams,
    SegmentPair,
    StepLoopClosure,
    ValidationParams,
    detect_loop_closures,
    find_msps,
    obe_dtw,
    split_warping_path,
    thin_to_steps,
    validate_closure,
)
from .pipeline import (
    PipelineConfig,
    SurveyPoint,
    SurveyResult,
    build_signal_maps,
    build_survey_points,
    evaluate_trajectory,
    run_survey,
)
from .sensors import (
    MagSample,
    PdrTrajectory,
    StepEvent,
    StepNoiseModel,
    SurveyLog,
    WifiObservation,
    load_survey_log,
    parse_survey_log,
    step_epoch_times,
)
from .signalmap import (
    GpParams,
    SignalMap,
    bucket_fractions,
    compare_maps,
    fit_signal_map,
    gp_predict,
    interval_overlap,
    position_one_shot,
)
from .simulate import (
    AccessPoint,
    MagFieldModel,
    Scenario,
    WalkScript,
    corrupt_steps,
    generate_walk,
    office_floorplan,
    simulate_scenario,
)
from .straightline import StraightLineParams, detect_straight_steps

__version__ = "0.1.0"
