"""Spectral graph convolutional networks on population graphs.

The package covers the full pipeline: building population graphs (from
synthetic draws, files, or meta-data affinity rules), normalized Laplacians
and Chebyshev polynomial filtering, filter layers and multi-branch modules
with exact manual gradients, and reproducible cross-validation experiments
with a command-line driver.
"""

from .affinity import (
    AffinityError,
    MetaElement,
    SimilarityKernel,
    build_affinity,
    binarize_edges,
    similarity_weights,
)
from .experiments import (
    ArchSpec,
    BranchSpec,
    ComparisonResult,
    ExperimentResult,
    ModuleSpec,
    SweepResult,
    SweepSpec,
    TrainConfig,
    build_network,
    compare_models,
    derive_seed,
    early_stop,
    evaluate_accuracy,
    heatmap_sweep,
    inception,
    run_cv,
    sequential,
    single_k_sweep,
    single_layer,
    train_network,
)
from .graph import (
    GraphInvariantError,
    NormalizedLaplacian,
    PopulationGraph,
    build_laplacian,
    chebyshev_apply,
    khop_reach,
    rescale_laplacian,
)
from .io import FileFormatError, load_graph, read_meta_csv, save_graph
from .nn import (
    Adam,
    ChebFilterLayer,
    GradientDescent,
    InceptionModule,
    Network,
    ShapeMismatchError,
    StaleTapeError,
    masked_cross_entropy,
    network_backward,
    network_forward,
)
from .simdata import SimConfig, generate, stratified_folds

__version__ = "0.1.0"
