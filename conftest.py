"""Repo-wide pytest configuration.

Registers the opt-in markers and keeps what they mark out of the
tier-1 suite: ``pytest -x -q`` (the verify command) skips anything
marked ``perf`` or ``chaos_large``; run them explicitly with
``pytest -m perf`` (``make perf``) / ``pytest -m chaos_large``. The
benchmark itself is ``python3 -m bench`` (``make bench``); the ``perf``
tests only assert on the records it produces.
"""

import pytest


#: Markers that keep a test out of tier-1 (``pytest -x -q`` skips
#: them); each is selected explicitly with ``-m <marker>``.
OPT_IN_MARKERS = {
    "perf": "guards over full-scale traced bench records (non-tier-1; "
    "select with -m perf)",
    "chaos_large": "full-size no-fault control runs of the chaos "
    "harness (CI chaos lane; select with -m chaos_large)",
}


def pytest_configure(config):
    for name, description in OPT_IN_MARKERS.items():
        config.addinivalue_line("markers", f"{name}: {description}")


def pytest_collection_modifyitems(config, items):
    selected = config.option.markexpr or ""
    for name in OPT_IN_MARKERS:
        if name in selected:
            continue
        skip = pytest.mark.skip(reason=f"opt-in lane: run with -m {name}")
        for item in items:
            if name in item.keywords:
                item.add_marker(skip)
