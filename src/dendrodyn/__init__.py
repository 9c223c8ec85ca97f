"""dendrodyn: exact computational dynamics of group actions on dendrites."""

from .dendrite import (
    Dendrite,
    DPoint,
    EdgePoint,
    FiniteClosedSet,
    Subdendrite,
    VertexPoint,
    hausdorff_distance,
    mesh,
)
from .homeo import (
    Homeo,
    PLMap,
    ValidationReport,
    apply,
    compose,
    identity_homeo,
    interval_homeo,
    invert,
    tree_automorphism,
    validate,
)
from .action import (
    GeneratorSet,
    Word,
    classify_minimal_set,
    detect_finite_orbit,
    detect_recurrence,
    evaluate_word,
    minimal_set_approx,
    orbit,
    reduce_word,
    word_ball,
)
from .equicontinuity import (
    EquicontinuityCertificate,
    FrontierCover,
    TreeTower,
    build_tree_tower,
    equicontinuity_certificate,
    frontier_cover,
    strong_proximality_scan,
    verify_cover_equivariance,
)
from .measure import (
    FolnerScheme,
    PLMeasure,
    TestFunction,
    canonical_measure,
    dirac,
    folner_average,
    folner_ratio,
    integrate,
    invariance_defect,
    push_forward,
    uniform_orbit_measure,
)
from .zoo import (
    ZooSystem,
    free_group_cylinder,
    folner_scheme_Z,
    gehman_dendrite,
    get_system,
    odometer,
    thompson_generators,
    verify_paradox_partition,
)

__version__ = "0.1.0"
