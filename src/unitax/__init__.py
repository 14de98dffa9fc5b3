"""Universal taxonomies over collections of inconsistently labeled datasets.

The package builds a disjoint universal label space from dataset-specific
classes modeled as atom sets, trains toy models with the partial-label
losses that go with it, and evaluates predictions under the void
convention.
"""

from .errors import (
    AmbiguousDeclaration,
    InconsistentDeclaration,
    InvalidClass,
    InvalidLogit,
    InvalidProbability,
    NotFound,
    OrthogonalDataset,
    TrainingDiverged,
    UnitaxError,
    UnmappedLabel,
    ValidationError,
)
from .evaluation import ConfusionAccumulator
from .losses import (
    aggregate_mask_max,
    dataset_posterior,
    nll_plus,
    nll_plus_grad,
    two_head_joint,
    universal_posteriors,
)
from .pseudolabel import ForeignPrediction, conditional_score, ensemble_pseudo_label
from .resolve import (
    DeclarationProgram,
    build_universal_from_declarations,
    parse_declarations,
    resolve_fixpoint,
    resolve_step,
)
from .taxonomy import (
    Collection,
    MappingSet,
    Relation,
    UniversalTaxonomy,
    build_universal_from_atoms,
    classify_relation,
    collection_from_dict,
    filter_untrainable,
    mapping_matrix,
)
from .toyproblem import ToyProblemSpec, generate_toy, problem_from_dict
from .training import TrainConfig, dead_logit_report, train

__version__ = "0.1.0"
