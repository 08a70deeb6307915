"""Build (and cache) datasets from scenarios.

Scenario runs are deterministic but not free; the builder memoises them
per-process and can persist them through the content-addressed
:class:`~repro.datasets.cache.DatasetCache`, so analyses, tests, and
benchmarks — including concurrent experiment workers — share one build
per (builder, scale, seed, schema-version) key.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Optional, Union

from ..simulation.scenarios import (
    Scenario,
    dataset_a_scenario,
    dataset_b_scenario,
    dataset_c_scenario,
)
from .cache import CacheKey, DatasetCache, write_entry
from .columnar import load_dataset_file
from .dataset import Dataset
from .gcpolicy import gc_paused
from .io import dataset_path

_MEMORY_CACHE: dict[tuple[str, int, float], Dataset] = {}


def _cache_key(scenario: Scenario) -> tuple[str, int, float]:
    return (scenario.name, scenario.seed, scenario.engine_config.duration)


def disk_cache_key(scenario: Scenario) -> CacheKey:
    """The persistent-cache key of a scenario's dataset."""
    return CacheKey(
        builder=scenario.name, scale=scenario.scale, seed=scenario.seed
    )


def build_dataset(
    scenario: Scenario,
    cache_dir: Optional[Union[str, Path]] = None,
    use_memory_cache: bool = True,
    cache: Optional[DatasetCache] = None,
) -> Dataset:
    """Run ``scenario`` (or fetch a cached result) and return its dataset.

    Lookup order: in-process memo, then the persistent ``cache`` (if
    given), then a fresh simulation whose result is written back to both
    caches.  ``cache_dir`` is the legacy flat layout kept for explicit
    exports; prefer ``cache``, whose keys include scale and schema
    version and whose builds are lockfile-coordinated across processes.
    """
    key = _cache_key(scenario)
    if use_memory_cache and key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    # A memoised dataset lives as long as the process: freeze it so no
    # later collection walks it again (see :mod:`.gcpolicy`).
    with gc_paused(freeze=use_memory_cache):
        dataset = _load_or_build(scenario, cache_dir, cache)
    if use_memory_cache:
        _MEMORY_CACHE[key] = dataset
    return dataset


def _load_or_build(
    scenario: Scenario,
    cache_dir: Optional[Union[str, Path]],
    cache: Optional[DatasetCache],
) -> Dataset:
    if cache is not None:
        return cache.get_or_build(
            disk_cache_key(scenario), lambda: scenario.run().dataset
        )
    path = None
    if cache_dir is not None:
        path = dataset_path(cache_dir, scenario.name, scenario.seed)
        if path.exists():
            return load_dataset_file(path)
    dataset = scenario.run().dataset
    if path is not None:
        write_entry(dataset, path)
    return dataset


def clear_memory_cache() -> None:
    """Drop all memoised datasets (mainly for tests and benchmarks).

    Also unfreezes what :func:`build_dataset` froze, so the collector
    again reclaims whatever of it is now garbage.
    """
    _MEMORY_CACHE.clear()
    gc.unfreeze()


def build_dataset_a(
    scale: float = 1.0,
    seed: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional[DatasetCache] = None,
) -> Dataset:
    """The dataset-A analogue at the requested scale."""
    scenario = (
        dataset_a_scenario(scale=scale)
        if seed is None
        else dataset_a_scenario(seed=seed, scale=scale)
    )
    return build_dataset(scenario, cache_dir=cache_dir, cache=cache)


def build_dataset_b(
    scale: float = 1.0,
    seed: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional[DatasetCache] = None,
) -> Dataset:
    """The dataset-B analogue at the requested scale."""
    scenario = (
        dataset_b_scenario(scale=scale)
        if seed is None
        else dataset_b_scenario(seed=seed, scale=scale)
    )
    return build_dataset(scenario, cache_dir=cache_dir, cache=cache)


def build_dataset_c(
    scale: float = 1.0,
    seed: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional[DatasetCache] = None,
) -> Dataset:
    """The dataset-C analogue (misbehaviour included) at the requested scale."""
    scenario = (
        dataset_c_scenario(scale=scale)
        if seed is None
        else dataset_c_scenario(seed=seed, scale=scale)
    )
    return build_dataset(scenario, cache_dir=cache_dir, cache=cache)
