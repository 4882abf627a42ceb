"""Picklable update-function specifications for the runtime backend.

Worker processes receive their program over a pipe, so everything in
the :class:`~repro.runtime.worker_base.WorkerInitBase` payload must
pickle. Plain module-level update functions (``tests``' ``flood_max``
style) pickle by reference and can be passed to
:class:`~repro.runtime.engine.RuntimeChromaticEngine` directly — but
the apps build their updates with *factories*
(``make_pagerank_update(epsilon=...)`` returns a closure, which cannot
cross a process boundary). :class:`UpdateProgram` carries
the factory reference plus its arguments instead; every worker calls the
factory once at init, so each process gets its own closure over the same
configuration. This mirrors the paper's requirement that update
functions be stateless (Sec. 3.2): a program is pure configuration, and
any state lives in the graph or the sync-maintained globals.
"""

from __future__ import annotations

import importlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.core.update import UpdateFunction
from repro.errors import EngineError


@dataclass(frozen=True)
class UpdateProgram:
    """``factory(*args, **kwargs) -> update_fn``, shipped by reference.

    ``factory`` must be importable from the worker process (a module-
    level callable); ``args``/``kwargs`` must pickle. Example::

        UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-4})
    """

    factory: Callable[..., UpdateFunction]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def resolve(self) -> UpdateFunction:
        """Instantiate the update function in the current process."""
        fn = self.factory(*self.args, **self.kwargs)
        if not callable(fn):
            raise EngineError(
                f"update-program factory {self.factory!r} returned "
                f"non-callable {fn!r}"
            )
        return fn


def resolve_program(program: Any) -> UpdateFunction:
    """An :class:`UpdateProgram` or a bare callable -> the update function."""
    if isinstance(program, UpdateProgram):
        return program.resolve()
    if callable(program):
        return program
    raise EngineError(
        f"expected an UpdateProgram or a callable, got {program!r}"
    )


#: Registered runtime-executable programs: name -> (module, factory).
#: Resolved lazily so the registry never imports the apps package at
#: module load (apps import this module for :class:`UpdateProgram`).
REGISTERED_PROGRAMS: Dict[str, Tuple[str, str]] = {
    "pagerank": ("repro.apps.pagerank", "make_pagerank_update"),
    "pagerank_delta": ("repro.apps.pagerank", "make_pagerank_delta_update"),
    "lbp": ("repro.apps.lbp", "make_lbp_update_typed"),
    "als": ("repro.apps.als", "make_als_update"),
    "coem": ("repro.apps.coem", "make_coem_update"),
}


def named_program(name: str, *args: Any, **kwargs: Any) -> UpdateProgram:
    """Build an :class:`UpdateProgram` from the registered-program table.

    The app factories are the registry's values, so
    ``named_program("als", 5, epsilon=1e-3)`` is exactly
    ``UpdateProgram(make_als_update, (5,), {"epsilon": 1e-3})`` — a
    stable, importable-by-name entry point for benchmarks, examples, and
    anything driving the runtime engines from configuration.
    """
    try:
        module_name, factory_name = REGISTERED_PROGRAMS[name]
    except KeyError:
        raise EngineError(
            f"unknown program {name!r}; registered: "
            f"{sorted(REGISTERED_PROGRAMS)}"
        ) from None
    factory = getattr(importlib.import_module(module_name), factory_name)
    return UpdateProgram(factory, args=args, kwargs=kwargs)


def check_picklable(program: Any) -> None:
    """Fail fast — with a pointed hint — on unpicklable programs.

    Called before any worker process is spawned so a closure passed
    where an :class:`UpdateProgram` was needed dies with an actionable
    message instead of a bare ``PicklingError`` mid-launch.
    """
    try:
        pickle.dumps(program)
    except Exception as exc:
        raise EngineError(
            f"update program {program!r} cannot be pickled for worker "
            "processes; pass a module-level function, or wrap the "
            "factory call in UpdateProgram(factory, args, kwargs) "
            f"({exc})"
        ) from exc
