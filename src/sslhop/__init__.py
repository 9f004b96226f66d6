"""sslhop — feedforward subspace feature learning for multi-direction 3D
deformation fields, with an entropy-screened, regression-reduced feature
hierarchy and a linear one-vs-rest SVM on top.
"""

from .classifier import SvmModel, decision_values, fit_svm, predict, roc_auc
from .dataio import (DatasetManifest, ManifestRecord, SubjectRecord,
                     SyntheticSpec, gen_synthetic, load_manifest,
                     load_subjects, read_field, save_manifest,
                     subset_manifest, template_field, write_field)
from .evaluate import (FoldReport, RocCurve, cross_validate, stratified_folds,
                       write_confusion_csv, write_predictions_csv,
                       write_report_json, write_roc_csv)
from .fields import (DeformationSample, centered_origin, crop_roi,
                     validate_field)
from .model_io import load_model, save_model
from .neighborhood import (extract_unions, max_pool, pooled_dims, slab_plan,
                           union_count)
from .pipeline import (FittedStages, LayerShapes, LayerSpec, PipelineConfig,
                       PipelineModel, assemble_sample, compute_ledger,
                       concat_features, count_parameters, fit_folds,
                       fit_pipeline, full_config, parameter_breakdown,
                       predict_samples, small_config, transform_many)
from .saab import (Moments, SaabKernel, apply_saab, fit_saab,
                   fit_saab_batches, merge_moments, union_moments)
from .supervise import (ChannelEntropy, LagModel, apply_lag, channel_entropy,
                        class_centroids, fit_lag)

__version__ = "0.1.0"

__all__ = [
    "SvmModel", "decision_values", "fit_svm", "predict", "roc_auc",
    "DatasetManifest", "ManifestRecord", "SubjectRecord",
    "SyntheticSpec", "gen_synthetic", "load_manifest", "load_subjects",
    "read_field", "save_manifest", "subset_manifest", "template_field",
    "write_field",
    "FoldReport", "RocCurve", "cross_validate", "stratified_folds",
    "write_confusion_csv", "write_predictions_csv", "write_report_json",
    "write_roc_csv",
    "DeformationSample", "centered_origin", "crop_roi", "validate_field",
    "load_model", "save_model",
    "extract_unions", "max_pool", "pooled_dims", "slab_plan", "union_count",
    "FittedStages", "LayerShapes", "LayerSpec", "PipelineConfig",
    "PipelineModel", "assemble_sample", "compute_ledger",
    "concat_features", "count_parameters", "fit_folds", "fit_pipeline",
    "full_config", "parameter_breakdown", "predict_samples", "small_config",
    "transform_many",
    "Moments", "SaabKernel", "apply_saab", "fit_saab",
    "fit_saab_batches", "merge_moments", "union_moments",
    "ChannelEntropy", "LagModel", "apply_lag", "channel_entropy",
    "class_centroids", "fit_lag",
    "__version__",
]
