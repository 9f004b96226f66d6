"""Command-line interface.

Subcommands: gen-synthetic, fit, predict, evaluate, inspect. Every run
writes ``resolved_config.json`` (the post-override configuration) next to
its outputs. Log verbosity comes from the SSLHOP_LOG environment variable
(DEBUG/INFO/WARNING/ERROR). Exit codes: 0 success, 2 usage error, 3 data
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import dataio, evaluate, model_io, pipeline
from .errors import BadHeaderError, SslhopError, UnknownLabelError

log = logging.getLogger("sslhop")

ABLATIONS = ("none", "no-cefs", "no-ic")


def _checked(kind, ok, expected: str):
    """An argparse type: ``kind(text)``, rejected unless it parses and
    ``ok(value)``; either refusal names the ``expected`` value."""
    def parse(text: str):
        refused = argparse.ArgumentTypeError(
            f"expected {expected}, got {text!r}")
        try:
            value = kind(text)
        except ValueError:
            raise refused from None
        if not ok(value):
            raise refused
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sslhop",
        description="Subspace feature learning for 3D deformation-field "
                    "classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _checked(int, lambda v: v >= 0, "a non-negative integer")

    gen = sub.add_parser("gen-synthetic", help="write a synthetic cohort",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--out", required=True, type=Path)
    gen.add_argument("--seed", type=seed)
    gen.add_argument("--classes",
                     type=_checked(int, lambda v: v >= 2, "at least 2"))
    gen.add_argument("--per-class",
                     type=_checked(int, lambda v: v >= 1, "at least 1"))
    gen.add_argument("--dims", metavar="H,W,Z", type=_checked(
        lambda text: tuple(int(v) for v in text.split(",")),
        lambda v: len(v) == 3 and min(v) >= 1, "three positive ints H,W,Z"))
    gen.add_argument("--noise-sigma",
                     type=_checked(float, lambda v: v >= 0, "a value >= 0"))
    gen.add_argument("--margin",
                     type=_checked(float, lambda v: v > 0, "a value > 0"))
    gen.set_defaults(func=cmd_gen_synthetic)

    def common(p: argparse.ArgumentParser, folds: bool = False) -> None:
        p.add_argument("--manifest", required=True, type=Path)
        p.add_argument("--config", default="small",
                       help="preset name (small, full) or JSON config path")
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=seed, help="override the config seed")
        p.add_argument("--ablation", choices=ABLATIONS, default="none")
        p.add_argument("--truncate-layer5", action="store_true")
        if folds:
            p.add_argument("--folds", default=5,
                           type=_checked(int, lambda v: v >= 2, "at least 2"))
            p.add_argument("--fraction", default=1.0,
                           type=_checked(float, lambda v: 0 < v <= 1,
                                         "a value in (0, 1]"),
                           help="per-class subject fraction to keep")
            p.add_argument("--threads", default=os.cpu_count() or 1,
                           type=_checked(int, lambda v: v >= 1, "at least 1"),
                           help="threads for fold work (default: the CPU "
                                "count); SVMs run serially")

    fit = sub.add_parser("fit", help="fit a model on every manifest subject")
    common(fit)
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="classify manifest subjects with a model")
    pred.add_argument("--model", required=True, type=Path)
    pred.add_argument("--manifest", required=True, type=Path)
    pred.add_argument("--out", required=True, type=Path)
    pred.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    common(ev, folds=True)
    ev.set_defaults(func=cmd_evaluate)

    ins = sub.add_parser("inspect", help="dump a fitted model's diagnostics")
    ins.add_argument("--model", required=True, type=Path)
    ins.add_argument("--out", required=True, type=Path)
    ins.set_defaults(func=cmd_inspect)
    return parser


def _resolve_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    name = getattr(args, "config", "small")
    if name in pipeline.PRESETS:
        cfg = pipeline.PRESETS[name]()
    else:
        path = Path(name)
        try:
            cfg = pipeline.PipelineConfig.from_dict(
                dataio.read_json(path, "config"))
        except (TypeError, ValueError) as exc:
            raise BadHeaderError(f"{path}: malformed config: {exc}") from exc
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "truncate_layer5", False):
        cfg = replace(cfg, truncate_layer5=True)
    ablation = getattr(args, "ablation", "none")
    if ablation == "no-cefs":
        cfg = replace(cfg, keep_ratio=1.0)
    elif ablation == "no-ic":
        cfg = replace(cfg, concat_mode="plain")
    return cfg


def _write_resolved(args: argparse.Namespace, cfg: pipeline.PipelineConfig | None,
                    out_dir: Path, extra: dict | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"command": args.command}
    if cfg is not None:
        doc["config"] = cfg.to_dict()
    for key in ("folds", "fraction", "ablation", "threads"):
        if hasattr(args, key):
            doc[key] = getattr(args, key)
    if extra:
        doc.update(extra)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_params(breakdown: dict, out_dir: Path) -> None:
    (out_dir / "params.json").write_text(
        json.dumps(breakdown, indent=2, sort_keys=True) + "\n")


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    spec = dataio.SyntheticSpec(**{f.name: getattr(args, f.name)
                                   for f in fields(dataio.SyntheticSpec)
                                   if hasattr(args, f.name)})
    manifest = dataio.gen_synthetic(spec, args.out)
    _write_resolved(args, None, args.out, extra={"synthetic": asdict(spec)})
    log.info("wrote %d subjects to %s", len(manifest.records), args.out)
    print(json.dumps({"manifest": str(args.out / "manifest.json"),
                      "subjects": len(manifest.records)}))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest = dataio.load_manifest(args.manifest)
    records = dataio.load_subjects(manifest)
    samples = [pipeline.assemble_sample(r.ed, r.es, cfg, r.label, r.subject_id)
               for r in records]
    model = pipeline.fit_pipeline(samples, cfg,
                                  class_count=manifest.class_count,
                                  class_table=manifest.classes)
    args.out.mkdir(parents=True, exist_ok=True)
    model_path = model_io.save_model(model, args.out / "model.sslm")
    _write_resolved(args, cfg, args.out)
    _write_params(pipeline.parameter_breakdown(cfg, model.input_dims,
                                               model.class_count), args.out)
    log.info("fitted %d subjects -> %s", len(samples), model_path)
    print(json.dumps({"model": str(model_path),
                      "feature_dim": model.feature_dim,
                      "parameters": pipeline.count_parameters(model)}))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = model_io.load_model(args.model)
    manifest = dataio.load_manifest(args.manifest)
    table = model.class_table      # a manifest names a subset of its classes
    for cid, name in manifest.classes.items():
        if cid >= model.class_count or (table and name != table[cid]):
            raise UnknownLabelError(
                f"manifest class {cid} {name!r} is not one of the model's "
                f"classes {list(table or range(model.class_count))}")
    records = dataio.load_subjects(manifest)
    cfg = model.config
    samples = [pipeline.assemble_sample(r.ed, r.es, cfg, r.label, r.subject_id)
               for r in records]
    pred, scores = pipeline.predict_samples(model, samples)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "label", "predicted"]
                        + [f"score_{c}" for c in range(model.class_count)])
        for r, p, row in zip(records, pred, scores):
            writer.writerow([r.subject_id, r.label, int(p)]
                            + [repr(float(v)) for v in row])
    _write_resolved(args, cfg, args.out)
    accuracy = float(np.mean(pred == np.array([r.label for r in records])))
    print(json.dumps({"predictions": str(args.out / "predictions.csv"),
                      "accuracy": accuracy}))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest = dataio.load_manifest(args.manifest)
    if args.fraction != 1.0:
        manifest = dataio.subset_manifest(manifest, args.fraction,
                                          cfg.seed)
    records = dataio.load_subjects(manifest)
    report = evaluate.cross_validate(records, cfg, folds=args.folds,
                                     seed=cfg.seed, threads=args.threads,
                                     class_table=manifest.classes)
    args.out.mkdir(parents=True, exist_ok=True)
    evaluate.write_report_json(report, args.out / "report.json")
    evaluate.write_roc_csv(report, args.out / "roc.csv")
    evaluate.write_confusion_csv(report, args.out / "confusion.csv")
    evaluate.write_predictions_csv(report, args.out / "predictions.csv")
    sample_dims = pipeline.assemble_sample(records[0].ed, records[0].es, cfg,
                                           records[0].label,
                                           records[0].subject_id).dims
    _write_params(pipeline.parameter_breakdown(cfg, sample_dims,
                                               manifest.class_count), args.out)
    _write_resolved(args, cfg, args.out)
    log.info("evaluate: accuracy=%.4f macro_auc=%.4f",
             report.pooled_accuracy, report.macro_auc)
    print(json.dumps({"pooled_accuracy": report.pooled_accuracy,
                      "macro_auc": report.macro_auc,
                      "per_fold_accuracy": list(report.per_fold_accuracy)}))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = model_io.load_model(args.model)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "energy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "direction", "component", "ratio", "cumulative"])
        for d, per_dir in enumerate(model.stages):
            for li, stage in enumerate(per_dir):
                energy = stage.kernel.energy
                for ci, (ratio, cum) in enumerate(zip(energy, np.cumsum(energy))):
                    writer.writerow([li + 1, d, ci + 1, repr(float(ratio)),
                                     repr(float(cum))])
    with open(args.out / "entropy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "direction", "channel", "entropy", "kept"])
        for d, per_dir in enumerate(model.stages):
            for li, stage in enumerate(per_dir):
                kept = set(stage.entropy.kept.tolist())
                for ch, val in enumerate(stage.entropy.per_channel):
                    writer.writerow([li + 1, d, ch, repr(float(val)),
                                     int(ch in kept)])
    with open(args.out / "ledger.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        rows = [asdict(e) for e in model.ledger]
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow("x".join(map(str, v)) if isinstance(v, tuple) else v
                            for v in row.values())
    breakdown = pipeline.parameter_breakdown(model.config, model.input_dims,
                                             model.class_count)
    _write_params({"from_config": breakdown,
                   "from_arrays": pipeline.count_parameters(model)}, args.out)
    _write_resolved(args, model.config, args.out)
    print(json.dumps({"feature_dim": model.feature_dim,
                      "parameters": pipeline.count_parameters(model)}))
    return 0


def _emit_error(exc: BaseException, code: int) -> None:
    print(json.dumps({"error": {"type": type(exc).__name__,
                                "message": str(exc), "exit_code": code}}),
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("SSLHOP_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # numpy's floating-point warnings would precede the JSON error on
        # stderr; every non-finite result is refused by a typed check
        with np.errstate(all="ignore"):
            return args.func(args)
    except SslhopError as exc:
        _emit_error(exc, exc.exit_code)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - CLI boundary: internal failure
        _emit_error(exc, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())
