"""sslhop — feedforward subspace feature learning for multi-direction 3D
deformation fields, with an entropy-screened, regression-reduced feature
hierarchy and a linear one-vs-rest SVM on top.
"""

from .classifier import SvmModel, decision_values, fit_svm, predict, roc_auc
from .dataio import (ClassTemplate, DatasetManifest, ManifestRecord,
                     SubjectRecord, SyntheticSpec, gen_synthetic,
                     load_manifest, load_subjects, read_field, save_manifest,
                     subset_manifest, write_field)
from .dataio import read_field_header, template_field
from .evaluate import (FoldReport, RocCurve, cross_validate, stratified_folds,
                       write_confusion_csv, write_predictions_csv,
                       write_report_json, write_roc_csv)
from .fields import (DeformationSample, centered_origin, crop_roi,
                     deinterlace, interlace_concat, plain_concat,
                     validate_field)
from .model_io import load_model, save_model
from .neighborhood import (extract_unions, max_pool, pooled_dims, union_count,
                           union_slabs)
from .pipeline import (LayerShapes, LayerSpec, PipelineConfig, PipelineModel,
                       assemble_sample, compute_ledger, count_parameters,
                       first_layer_moments, fit_pipeline, forward_maps,
                       full_config, parameter_breakdown, predict_samples,
                       small_config, transform, transform_many)
from .saab import (Moments, SaabKernel, apply_saab, energy_curve, fit_saab,
                   fit_saab_batches, merge_moments, union_moments)
from .supervise import (ChannelEntropy, LagModel, apply_lag, channel_entropy,
                        fit_lag, select_channels)

__version__ = "0.1.0"

__all__ = [
    "SvmModel", "decision_values", "fit_svm", "predict", "roc_auc",
    "ClassTemplate", "DatasetManifest", "ManifestRecord", "SubjectRecord",
    "SyntheticSpec", "gen_synthetic", "load_manifest", "load_subjects",
    "read_field", "read_field_header", "save_manifest", "subset_manifest",
    "template_field", "write_field",
    "FoldReport", "RocCurve", "cross_validate", "stratified_folds",
    "write_confusion_csv", "write_predictions_csv", "write_report_json",
    "write_roc_csv",
    "DeformationSample", "centered_origin", "crop_roi", "deinterlace",
    "interlace_concat", "plain_concat", "validate_field",
    "load_model", "save_model",
    "extract_unions", "max_pool", "pooled_dims", "union_count", "union_slabs",
    "LayerShapes", "LayerSpec", "PipelineConfig", "PipelineModel",
    "assemble_sample", "compute_ledger", "count_parameters",
    "first_layer_moments", "fit_pipeline", "forward_maps", "full_config",
    "parameter_breakdown", "predict_samples", "small_config", "transform",
    "transform_many",
    "Moments", "SaabKernel", "apply_saab", "energy_curve", "fit_saab",
    "fit_saab_batches", "merge_moments", "union_moments",
    "ChannelEntropy", "LagModel", "apply_lag", "channel_entropy", "fit_lag",
    "select_channels",
    "__version__",
]
