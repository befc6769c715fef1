"""Constructibility analysis for range-localized planar trajectories.

Given a rigid planar trajectory and sparse range measurements to fixed
anchors, decide whether the measurements pin the trajectory's placement
uniquely, enumerate or parametrize every indistinguishable placement when
they do not, and quantify local constructibility through the measurement
Gramian.
"""

from .errors import (
    ConstructaError,
    DegenerateInput,
    EmptyDomain,
    InconsistentControls,
    MissingMeasurements,
    MixedAnchors,
    NoAmbiguity,
    NonPositiveInput,
    ParseError,
    PathologicalConfiguration,
    SchemaError,
    TimeOutOfRange,
    ZeroRange,
)
from .geom import (
    Circle,
    CircleIntersection,
    IntersectKind,
    Line2,
    Point2,
    RigidTransform2,
    angle_diff,
    circle_circle_intersect,
    collinear,
    perpendicular_bisector,
    point_line_distance,
    wrap_angle,
)
from .global_analysis import (
    CriticalLine,
    CriticalLineKind,
    DegenerateFlags,
    Family1p1,
    GlobalAnalysis,
    Result1p1p1,
    Result2p1,
    Result3p1,
    SingleAnchorFamily,
    Verdict,
    analyze_global,
    critical_lines_2p2,
    critical_lines_next_point,
    delta_angle,
    detect_pathologies,
    locus_1p1p1,
    sample_family_1p1,
    single_anchor_family,
    single_anchor_family_for,
    solve_1p1,
    solve_1p1p1,
    solve_2p1,
    solve_3p1,
    sub_scenario,
    sufficient_counts,
)
from .local_analysis import (
    GramianReport,
    SingularDirection,
    anchor_rotation_directions,
    build_gramian,
    critical_line_1p1p1_local,
    gramian_contribution,
    numerical_gramian,
    rotation_generator,
    singular_direction_report,
    translation_generator,
)
from .scenario import (
    Anchor,
    AnchorSetClass,
    INFORMATIVE_COUNT,
    Measurements,
    MeasurementSchedule,
    Scenario,
    Tolerances,
    TrajectoryV,
    anchor_point_sets,
    classify_anchor_set,
    classify_measurement_set,
    controls_to_trajectory_v,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    scenario_to_dict,
    synthesize_measurements,
    with_measurements,
)
from .solver import (
    FamilyInfo,
    GridSpec,
    IndClass,
    Solution,
    SolutionSet,
    SolverConfig,
    brute_force_oracle,
    dedup_solutions,
    polish_solution,
    residual_jacobian,
    residuals,
    solve_multistart,
    translation_bound,
)
from .unicycle import (
    ControlSegment,
    UnicycleControls,
    UnicycleState,
    integrate,
    integrate_times,
    sensitivity,
)

__version__ = "0.1.0"
