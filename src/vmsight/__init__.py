"""vmsight: black-box VM application identification and workload-aware
performance degradation prediction from host-side hardware metric traces."""

from .degrade import (
    AppProfile,
    DegradationReport,
    DegradationTable,
    ModelStore,
    Orientation,
    evaluate_degradation,
    fit_models_for_corpus,
    load_profiles,
    predict_degradation,
    profiles_for_templates,
    reports_to_csv,
    save_profiles,
)
from .errors import VmsightError
from .evaluate import (
    ExperimentResult,
    run_ablation_dtw,
    run_sampling_tradeoff,
    run_timing,
)
from .identify import (
    DEFAULT_DISTANCE_THRESHOLD,
    DEFAULT_FINGERPRINT_METRICS,
    UNKNOWN,
    FingerprintDb,
    IdentificationResult,
    build_fingerprint_db,
    identify,
    identify_single,
    load_fingerprint_db,
    save_fingerprint_db,
)
from .neural import (
    FitReport,
    MlpModel,
    TrainConfig,
    load_model,
    predict,
    save_model,
    train,
)
from .select import (
    CorrelationReport,
    Purpose,
    pearson,
    rank_metrics,
    trace_summary,
)
from .simgen import (
    AppTemplate,
    ScenarioConfig,
    default_templates,
    generate,
    generate_isolated,
    ground_truth_degradation,
    outsider_template,
    render_session,
)
from .tracemodel import (
    STANDARD_METRICS,
    Category,
    MetricKind,
    MetricTrace,
    SessionRecord,
    load_corpus,
    save_corpus,
)

__version__ = "0.1.0"
