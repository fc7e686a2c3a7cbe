"""User-interaction layer: the paper's UI, minus the browser.

NL2CM's web UI (Figures 3-6) drives four optional interaction points:
IX verification, entity disambiguation, LIMIT/THRESHOLD selection and
variable projection.  This package models each point as a typed request
and lets callers plug in a provider:

* :class:`AutoInteraction` — administrator defaults, no user (the
  "always skip" configuration of Section 4.1);
* :class:`ScriptedInteraction` — pre-recorded answers, for tests and the
  scripted demo;
* :class:`ConsoleInteraction` — interactive terminal prompts, for the
  runnable examples.

:class:`NL2CMSession` adds the Figure 6 flow: manual query editing and
direct submission to the OASSIS engine.

Attribute access is lazy (PEP 562): the session module imports the
pipeline, which imports the interaction module — laziness breaks the
cycle regardless of import order.
"""

from importlib import import_module

__all__ = [
    "AutoInteraction",
    "ConsoleInteraction",
    "DisambiguationRequest",
    "InteractionProvider",
    "LimitRequest",
    "NL2CMSession",
    "ProjectionRequest",
    "ScriptedInteraction",
    "SessionEntry",
    "ThresholdRequest",
    "VerifyIXRequest",
    "render_service_stats",
]

_LOCATIONS = {
    "AutoInteraction": "repro.ui.interaction",
    "ConsoleInteraction": "repro.ui.interaction",
    "DisambiguationRequest": "repro.ui.interaction",
    "InteractionProvider": "repro.ui.interaction",
    "LimitRequest": "repro.ui.interaction",
    "ProjectionRequest": "repro.ui.interaction",
    "ScriptedInteraction": "repro.ui.interaction",
    "ThresholdRequest": "repro.ui.interaction",
    "VerifyIXRequest": "repro.ui.interaction",
    "NL2CMSession": "repro.ui.session",
    "SessionEntry": "repro.ui.session",
    "render_service_stats": "repro.ui.admin",
}


def __getattr__(name: str):
    module_name = _LOCATIONS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.ui' has no attribute {name!r}")
    return getattr(import_module(module_name), name)


def __dir__():
    return sorted(__all__)
