"""Serving layer: concurrent batching and caching over one translator.

The ROADMAP's north star is serving heavy question traffic; this
package is the front door for that.  A :class:`TranslationService`
wraps one shared :class:`~repro.core.pipeline.NL2CM` with a bounded LRU
:class:`TranslationCache`, a ``ThreadPoolExecutor`` batch path with
single-flight deduplication, and a :class:`ServiceStats` snapshot the
admin monitor renders (see :func:`repro.ui.admin.render_service_stats`).

Quickstart::

    from repro.service import TranslationService

    service = TranslationService(workers=4, cache=512)
    items = service.translate_batch(questions)
    print(service.stats().cache_hit_rate)

Exports are lazy (PEP 562), so a process that only reads stats
(:mod:`repro.service.stats`) or the cache never imports the translator.
"""

from importlib import import_module

_LOCATIONS = {
    "BatchItem": "repro.service.service",
    "CacheStats": "repro.service.cache",
    "ServiceStats": "repro.service.stats",
    "StageStat": "repro.service.stats",
    "TranslationCache": "repro.service.cache",
    "TranslationService": "repro.service.service",
}

__all__ = list(_LOCATIONS)


def __getattr__(name: str):
    module_name = _LOCATIONS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.service' has no attribute {name!r}"
        )
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
