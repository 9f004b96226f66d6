"""Shared fixtures and the acceptance-summary terminal hook.

Expensive artifacts (synthetic cohorts, cross-validation reports) are
session-scoped so the acceptance tests and the unit tests can share them.
Everything here is seeded; rerunning the suite must reproduce identical
numbers.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import struct
import time
import zlib

import numpy as np
import pytest

import sslhop as sh
import sslhop.pipeline
from sslhop.errors import SslhopError
from sslhop.model_io import _HEADER

# Outcome of every test marked @pytest.mark.acceptance, keyed by nodeid.
_ACCEPTANCE_RESULTS: dict[str, tuple[int, str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): end-to-end acceptance criterion; the "
        "terminal summary prints one PASS/FAIL line per criterion")


def pytest_runtest_logreport(report):
    if report.when not in ("setup", "call"):
        return
    marker_args = getattr(report, "_acceptance", None)
    if marker_args is None:
        return
    num, title = marker_args
    outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    prev = _ACCEPTANCE_RESULTS.get(report.nodeid)
    if prev is None or outcome == "FAIL" or prev[2] != "FAIL":
        _ACCEPTANCE_RESULTS[report.nodeid] = (num, title, outcome)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        report._acceptance = (marker.args[0], marker.args[1])


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    rows = sorted(set(_ACCEPTANCE_RESULTS.values()))
    for num, title, outcome in rows:
        terminalreporter.write_line(f"[ACCEPT] criterion {num:2d} ({title}): {outcome}")


# -- synthetic cohorts ---------------------------------------------------------------


@pytest.fixture(scope="session")
def standard_spec() -> sh.SyntheticSpec:
    """The default synthetic recipe every benchmark number is pinned to."""
    return sh.SyntheticSpec()


@pytest.fixture(scope="session")
def cohort_manifest(standard_spec, tmp_path_factory) -> sh.DatasetManifest:
    out = tmp_path_factory.mktemp("cohort")
    return sh.gen_synthetic(standard_spec, out)


@pytest.fixture(scope="session")
def cohort_records(cohort_manifest) -> list[sh.SubjectRecord]:
    return sh.load_subjects(cohort_manifest)


@pytest.fixture(scope="session")
def small_cfg() -> sh.PipelineConfig:
    return sh.small_config(seed=42)


@pytest.fixture(scope="session")
def tiny_cohort(tmp_path_factory):
    """Cheap 3-class cohort for pipeline unit tests (seconds, not minutes)."""
    spec = sh.SyntheticSpec(classes=3, per_class=4, dims=(12, 12, 6),
                            noise_sigma=0.4, seed=7)
    out = tmp_path_factory.mktemp("tiny")
    manifest = sh.gen_synthetic(spec, out)
    return manifest, sh.load_subjects(manifest)


@pytest.fixture(scope="session")
def tiny_cfg() -> sh.PipelineConfig:
    """Two layers sized for the 12x12x6 tiny cohort (depth 12 interlaced)."""
    return sh.PipelineConfig(
        layers=(sh.LayerSpec(window=(3, 3, 4), channels=4),
                sh.LayerSpec(window=(3, 3, 3), channels=5)),
        centroids_per_class=2, seed=11)


@pytest.fixture(scope="session")
def tiny_model(tiny_cohort, tiny_cfg) -> sh.PipelineModel:
    _, records = tiny_cohort
    samples = [sh.assemble_sample(r.ed, r.es, tiny_cfg, r.label, r.subject_id)
               for r in records]
    return sh.fit_pipeline(samples, tiny_cfg)


# -- shared cross-validation runs ----------------------------------------------------
#
# The benchmark criteria all consume seed-42 five-fold runs over the standard
# cohort.  Each distinct configuration is fit once per session.


@pytest.fixture(scope="session")
def benchmark_run(cohort_manifest, cohort_records, small_cfg):
    """Default-configuration benchmark run plus its wall-clock seconds.

    The timer covers what a user would run: cohort generation is excluded
    (already timed into the fixture chain), model fitting and scoring for
    all five folds are included.
    """
    t0 = time.perf_counter()
    report = sh.cross_validate(cohort_records, small_cfg, folds=5, seed=42,
                               threads=1, class_table=cohort_manifest.classes)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ablation_runs(cohort_manifest, cohort_records, small_cfg):
    """Seed-matched runs with channel selection / interlacing disabled."""
    out = {}
    for name, cfg in (
            ("no-cefs", dataclasses.replace(small_cfg, keep_ratio=1.0)),
            ("no-ic", dataclasses.replace(small_cfg, concat_mode="plain"))):
        out[name] = sh.cross_validate(cohort_records, cfg, folds=5, seed=42,
                                      threads=1,
                                      class_table=cohort_manifest.classes)
    return out


@pytest.fixture(scope="session")
def subset_runs(cohort_manifest, small_cfg):
    """Seed-matched runs on 75% and 50% of the standard cohort."""
    out = {}
    for fraction in (0.75, 0.50):
        sub = sh.subset_manifest(cohort_manifest, fraction, seed=42)
        records = sh.load_subjects(sub)
        out[fraction] = sh.cross_validate(records, small_cfg, folds=5, seed=42,
                                          threads=1, class_table=sub.classes)
    return out


# -- assorted helpers ----------------------------------------------------------------

# A negative, a bool and a non-integral seed: each entry point that takes a
# seed refuses all three.
BAD_SEEDS = (-1, True, 3.7)


@pytest.fixture()
def edit_model_meta():
    """Copy a model file with its JSON metadata edited and the CRC fixed up,
    so that only the edit can make the loader refuse it."""
    def edit(src, dst, change):
        raw = src.read_bytes()
        magic, major, minor, meta_len = _HEADER.unpack_from(raw)
        meta = json.loads(raw[_HEADER.size:_HEADER.size + meta_len].decode())
        change(meta)
        new_meta = json.dumps(meta, sort_keys=True,
                              separators=(",", ":")).encode()
        body = (_HEADER.pack(magic, major, minor, len(new_meta)) + new_meta
                + raw[_HEADER.size + meta_len:-4])
        dst.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        return dst
    return edit


def _one_direction(meta):
    meta["stages"] = meta["stages"][:1]


def _one_layer_short(meta):
    meta["stages"][0] = meta["stages"][0][:-1]


@pytest.fixture(params=[_one_direction, _one_layer_short],
                ids=["one-direction", "one-layer-short"])
def stage_edit(request):
    """A metadata edit that leaves a model's stages off its ledger: one
    direction instead of three, or one layer fewer than the ledger's in
    one direction."""
    return request.param


# What a mutated JSON node becomes: a value of each other JSON type, or a
# bool, NaN, zero, negative or huge int where a reader may want a count.
_JSON_SWAPS = (None, True, False, 1.5, "4", [3], {"a": 1}, 7, 0, -1,
               float("nan"), 2 ** 63 + 1, 10 ** 30)


def json_mutant(rng: np.random.Generator, doc):
    """A copy of the JSON document ``doc`` with one seeded edit at a node
    drawn from its whole tree: the key or item dropped (a third of the
    time), or its value swapped for one of ``_JSON_SWAPS``."""
    doc = copy.deepcopy(doc)
    nodes = []                               # (container, key) pairs

    def walk(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            nodes.append((node, key))
            walk(child)

    walk(doc)
    parent, key = nodes[rng.integers(len(nodes))]
    if rng.integers(3) == 0:
        del parent[key]
    else:
        parent[key] = _JSON_SWAPS[rng.integers(len(_JSON_SWAPS))]
    return doc


def assert_mutants_read_or_refused(count: int, write, read) -> None:
    """Write ``count`` seeded mutants of a file with ``write()`` and read
    each with ``read()``, which returns whether what it read is finite.
    Each one must read to a finite result or raise an
    :class:`SslhopError` (exit 3), and none may fail any other way; both
    outcomes must occur, so the mutants reach past the first check."""
    outcomes = {"read": 0, "refused": 0}
    bad = []
    for m in range(count):
        write()
        try:
            finite = read()
        except SslhopError:
            outcomes["refused"] += 1
            continue
        except Exception as exc:  # noqa: BLE001 - any other failure
            bad.append((m, repr(exc)))
            continue
        if finite:
            outcomes["read"] += 1
        else:
            bad.append((m, "a non-finite result"))
    assert bad == [], f"{len(bad)} of {count} mutants: {bad[:5]}"
    assert min(outcomes.values()) > 0, outcomes


def plan_unions(maps, window) -> list[np.ndarray]:
    """The union row matrices of a (N, H, W, Z, C) stack's slabs, gathered
    in the order :func:`sslhop.slab_plan` lays them out."""
    return [sh.extract_unions(maps[run][:, y], window)
            for run, ys in sh.slab_plan(maps.shape, window) for y in ys]


def plan_project(kernels, maps, window, block=None) -> np.ndarray:
    """The (G, N, H', W', Z', F) conv stack of a (G, N, H, W, Z, C) stack
    of maps, with ``kernels`` one per group (a stack of one group takes
    every kernel), before the offsets, taken run by run of its slab plan
    in z-blocks of ``block`` origins, as the layer steps take them, in the
    maps' dtype; by default in the layer steps' own block for these maps."""
    if block is None:
        block = sslhop.pipeline._z_block(window, maps.shape[-4:])
    matrix = sslhop.pipeline._bands(kernels, window, block).astype(
        maps.dtype, order="K")
    return np.concatenate(
        [sslhop.pipeline._project(matrix, maps[:, run], window, block, ys)
         for run, ys in sh.slab_plan(maps.shape, window)], axis=1)


def pool_layer(kernels, maps, window, shapes, **kwargs) -> np.ndarray:
    """One layer step of a (G, N, H, W, Z, C) stack of maps with
    ``kernels``, one per group, projected as a fit projects them."""
    return sslhop.pipeline._pool_layer(
        sslhop.pipeline._projections(kernels, window, shapes.input_dims),
        maps, window, shapes, **kwargs)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
