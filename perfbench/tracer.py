"""In-memory span tracing of the repro layers, patched in from outside.

The traced run wraps each layer's public entry points with a recording
wrapper; nothing inside ``src/repro`` knows it is being traced. A span
is one call: ``[name, start, end, parent, run_id, note]`` where
``parent`` is the index of the enclosing span (``-1`` at the top) and
``note`` holds what the per-layer metrics need from the call's
arguments or return value (flow counts, ``None`` fallbacks).

:class:`Tracer` patches class methods on the class and module-level
functions at every binding a ``from ... import`` created, records
spans while installed, and :meth:`Tracer.uninstall` puts every
original object back, so an untraced run measures unwrapped code.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Modules scanned for function bindings: the package under test.
PACKAGE = "repro"


def _package_modules() -> List[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans around patched callables; see the module doc."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run_id = ""
        self._stack: List[int] = []
        # (owner, key, original, is_item): owner is a class, module or
        # dict; is_item marks a dict entry rather than an attribute.
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused while the tracer lives.
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    # -- recording -----------------------------------------------------

    def wrap(
        self,
        name: str,
        func: Callable,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[Any, Any], Any]] = None,
    ) -> Callable:
        """A wrapper recording one span named ``name`` per call.

        ``before(args)`` runs ahead of the span's start time, so its
        cost never counts as the layer's; ``after(state, result)``
        turns its state and the call's result into the span's note.
        """
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.run_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                record[5] = after(state, result)
            return result

        self._wrappers[id(wrapper)] = (wrapper, func)
        return wrapper

    # -- patching ------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` on the class itself (keeps the descriptor)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self.wrap(name, raw.__func__, **hooks))
        else:
            patched = self.wrap(name, raw, **hooks)
        setattr(cls, attr, patched)
        self._patches.append((cls, attr, raw, False))

    def patch_function(self, func: Callable, name: str, **hooks) -> int:
        """Wrap ``func`` at every binding in the loaded package modules.

        Returns how many bindings were patched.
        """
        wrapper = self.wrap(name, func, **hooks)
        count = 0
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, func, False))
                    count += 1
        return count

    def patch_item(
        self, mapping: dict, key: str, index: int, name: str
    ) -> None:
        """Wrap element ``index`` of the tuple stored at ``mapping[key]``."""
        entry = mapping[key]
        items = list(entry)
        items[index] = self.wrap(name, entry[index])
        mapping[key] = tuple(items)
        self._patches.append((mapping, key, entry, True))

    def uninstall(self) -> List[str]:
        """Restore every original; returns the bindings still wrapped.

        Bindings to a wrapper that a lazy ``from ... import`` made after
        the patch are found by scanning the package and restored too.
        An empty list means every patched attribute is the original
        object again.
        """
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                original = self._original_of(value)
                if original is not None:
                    setattr(module, attr, original)
        return self.leftovers()

    def _original_of(self, value: Any) -> Optional[Callable]:
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def leftovers(self) -> List[str]:
        """Patched bindings that are not the original object."""
        bad = []
        for owner, key, original, is_item in self._patches:
            current = owner[key] if is_item else vars(owner).get(key)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', 'dict')}.{key}")
        for module in _package_modules():
            for attr, value in vars(module).items():
                if self._original_of(value) is not None:
                    bad.append(f"{module.__name__}.{attr}")
        return bad

    @property
    def patches(self) -> List[Tuple[Any, str, Any, bool]]:
        return list(self._patches)


# ---------------------------------------------------------------------------
# The entry points of each layer
# ---------------------------------------------------------------------------

def _is_none(_state, result) -> bool:
    return result is None


def _grid_lanes(args) -> int:
    return len(args[1])


def _grid_note(lanes, result):
    return [lanes, result is None]


class _AllocationRepeats:
    """Flags ``allocate`` calls whose flow set equals the previous call's
    on the same allocator (a reallocation that could not change rates)."""

    def __init__(self) -> None:
        # id -> (allocator, key); the allocator is held so its id is
        # never reused by another object while tracing.
        self._last: Dict[int, Tuple[Any, tuple]] = {}

    def before(self, args) -> List:
        allocator, flows = args[0], args[1]
        key = tuple(
            (f.flow_id, f.weight, f.priority, f.rate_cap, tuple(f.links))
            for f in flows
        )
        previous = self._last.get(id(allocator))
        self._last[id(allocator)] = (allocator, key)
        return [len(key), previous is not None and previous[1] == key]

    @staticmethod
    def after(state, _result):
        return state


def install_layers(tracer: Tracer, experiments: dict) -> None:
    """Patch every layer entry point the per-layer metrics read.

    ``experiments`` is the CLI's artifact registry; its drivers become
    ``experiments.<artifact>`` spans.
    """
    from repro import io
    from repro.cc.dcqcn import DcqcnFluidSimulator
    from repro.cc.grid_bank import GridBank
    from repro.cc.link_engine import LinkSenderBank
    from repro.cc.sender_bank import SenderBank
    from repro.core import optimize
    from repro.core.cluster_compat import ClusterCompatibilityProblem
    from repro.core.incremental import IncrementalCompatibilityEngine
    from repro.net.fluid import FluidAllocator
    from repro.net.phasesim import PhaseLevelSimulator
    from repro.runner import backends, cache, grid, parallel
    from repro.scheduler.service import ClusterService
    from repro.sim.engine import Simulator
    from repro.telemetry.session import Telemetry

    repeats = _AllocationRepeats()
    method = tracer.patch_method
    method(PhaseLevelSimulator, "run", "net.phasesim_run")
    method(FluidAllocator, "allocate", "net.allocate",
           before=repeats.before, after=repeats.after)
    method(Simulator, "run", "sim.run")
    method(DcqcnFluidSimulator, "run", "cc.dcqcn_run")
    method(SenderBank, "build", "cc.vector_build", after=_is_none)
    method(LinkSenderBank, "build", "cc.vector_build", after=_is_none)
    method(GridBank, "build", "cc.grid_build",
           before=_grid_lanes, after=_grid_note)
    method(GridBank, "run", "cc.grid_run")
    method(cache.ResultCache, "get", "runner.cache_get")
    method(cache.ResultCache, "put", "runner.cache_put")
    method(Telemetry, "merge_worker_state", "telemetry.merge")
    method(ClusterCompatibilityProblem, "solve", "core.cluster_solve")
    method(IncrementalCompatibilityEngine, "try_admit", "core.try_admit")
    method(ClusterService, "run", "scheduler.service_run")
    seen = set()
    for backend_name in backends.backend_names():
        cls = type(backends.get_backend(backend_name))
        if cls not in seen:
            seen.add(cls)
            method(cls, "execute", f"runner.backend.{backend_name}")

    function = tracer.patch_function
    function(parallel.run_many, "runner.run_many")
    function(grid.execute_batched, "runner.batch_exec", after=_is_none)
    function(optimize.solve, "core.solve")
    function(io.run_result_from_dict, "io.decode_result")
    function(io.run_result_to_dict, "io.encode_result")
    function(io.save_trace, "io.save_trace")
    for artifact in sorted(experiments):
        tracer.patch_item(experiments, artifact, 1,
                          f"experiments.{artifact}")
