"""Tree-ensemble classifiers for tabular binary outcomes, with three
importance views: impurity decrease, Shapley attribution, and score
clustering.  See the README for the CLI pipeline."""

__version__ = "0.1.0"

from .attribution import (
    AttributionMatrix,
    global_shap_importance,
    tree_shap,
)
from .boost import (
    BoostedModel,
    BoostParams,
    fit_boosted,
    predict_margin,
    predict_proba_boosted,
)
from .cluster import (
    ClusterModel,
    ClusterReport,
    HeatmapTable,
    build_heatmap,
    cluster_importance,
    kmeans_1d,
)
from .data import (
    CATEGORICAL,
    NUMERIC,
    Dataset,
    FoldAssignment,
    PreprocessPlan,
    apply_preprocess,
    design_matrix,
    drop_incomplete_rows,
    load_csv,
    preset_plan,
    split_folds,
    summarize,
    take_rows,
    write_csv,
)
from .cli import RunConfig, cli_main, load_run_config
from .errors import IcuiError, MetricError, ParseError, ValidationError
from .evaluate import (
    CvResult,
    FoldResult,
    ModelSpec,
    aggregate,
    auprc,
    auroc,
    run_cv,
)
from .forest import (
    ForestModel,
    ForestParams,
    ImportanceProfile,
    fit_forest,
    forest_importance,
    gini,
    impurity_decrease,
    predict_proba_forest,
)
from .impute import (
    ImputationModel,
    ImputeParams,
    derive_groups,
    fit_column,
    fit_imputation,
    impute,
    select_imputer,
)
from .plots import emit_plots, heatmap_svg, pr_svg, roc_svg
from .synth import SynthSpec, generate, write_synth

