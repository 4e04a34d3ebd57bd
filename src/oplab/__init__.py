"""Finite-window laboratory for operators that essentially commute
with a fixed structural unitary: locality diagnostics, matrix surgery,
certified operator homotopies, and boundary-aware index estimates."""

from .errors import (
    BoundaryContaminationError,
    ConfigError,
    MethodDisagreementError,
    OplabError,
    PreconditionError,
    RepresentationError,
    SingularOperatorError,
    StageError,
    UnitarityError,
    WindowExhaustedError,
    WindowMismatchError,
)
from .geometry import (
    Arc,
    Ball,
    Complement,
    Cone,
    Direction,
    Explicit,
    Region,
    RegionUnion,
    arcs_disjoint,
    direction_of,
    widen_arc,
)
from .homotopy import (
    CertificateReport,
    CertifyConfig,
    HomotopyPath,
    PathSegment,
    PipelineConfig,
    block_peel,
    block_unitary_homotopy,
    certify_path,
    conjugation_path,
    log_path,
    polar_path,
    straight_line,
    theorem1_pipeline,
)
from .index import (
    IndexConfig,
    IndexResult,
    NontrivialityReport,
    ProbeRecord,
    cut_interface,
    fredholm_index,
    index_k_projection,
    interior_mask,
    nontriviality_probe,
    projection_index,
)
from .locality import (
    CentersPlan,
    ConeSplit,
    DecayProfile,
    annulus_confine,
    block_norm,
    compactness_profile,
    cone_split,
)
from .operators import (
    CircleFunction,
    Operator,
    Projection,
    laughlin_operator,
    shift_operator,
    spectral_norm,
)
from .opmat import dumps_operator, load_operator, loads_operator, save_operator
from .reports import bar_chart_svg, emit_plots, line_plot_svg, write_csv
from .runner import (
    ExperimentConfig,
    RunManifest,
    load_config,
    run,
    seeded_local_unitary,
)
from .surgery import (
    GreedyIsometry,
    GreedyMatch,
    ProjectionPair,
    corrective_unitary,
    deletion_series,
    greedy_isometry,
    localized_centers,
    mixing_indices,
)
from .windows import AmplifiedWindow, TruncationWindow, Window

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
