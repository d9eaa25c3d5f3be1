"""Epipolar feature sampling, attention fusion, and triangulation toolkit."""

from .errors import (
    AtInfinity,
    ChannelMismatch,
    CoincidentCenters,
    ConfigError,
    Degenerate,
    DegenerateLine,
    DescriptorSaturation,
    DimsTooLarge,
    EpifuseError,
    IndexOutOfRange,
    InvalidAngle,
    LengthMismatch,
    MaskMismatch,
    NoConsensus,
    OddChannels,
    RankDeficient,
    ShapeMismatch,
    SingularAffine,
    StateMissing,
)
from .geometry import (
    CameraView,
    EpipolarLine,
    apply_affine_to_camera,
    camera_center,
    epipolar_line,
    fundamental_matrix,
    load_rig_file,
    project,
    pseudo_inverse,
    rescale_camera,
    skew,
)
from .sampler import (
    EpipolarSampleSet,
    FeatureMap,
    Segment2D,
    bilinear_sample,
    clip_line_to_image,
    epipolar_samples,
    load_feature_map,
    sample_locations,
    save_feature_map,
)
from .fusion import (
    FusionGradients,
    FusionParams,
    SamplingPlan,
    plan_epipolar_sampling,
    similarity_weights,
    transformer_backward,
    transformer_forward,
)
from .triangulation import (
    Observation,
    TriangulationResult,
    dlt_triangulate,
    load_observations,
    ransac_triangulate,
    reprojection_error,
    save_observations,
)
from .metrics import (
    Pose3D,
    argmax_peak,
    jdr,
    load_pose_csv,
    mpjpe,
    save_pose_csv,
)
from .synth import (
    GradCheckResult,
    PipelineReport,
    Rig,
    Scene,
    ScenarioConfig,
    build_scenario,
    gradient_check,
    load_scenario,
    make_rig,
    make_scene,
    render_descriptor_map,
    report_json,
    run_pipeline,
    run_scenario,
    similarity_profile,
)

__version__ = "0.1.0"
