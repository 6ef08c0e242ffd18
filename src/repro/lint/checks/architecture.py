"""ARCH001: the layer DAG — upward imports and import cycles.

The repo's packages form an explicit layering (configured under
``[tool.repro-lint]`` in pyproject.toml, rendered in DESIGN.md)::

    units/errors/floats/faults  ->  sim/net/core  ->  cc/mechanisms/switches
        ->  workloads/scheduler  ->  runner  ->  experiments/cli

with ``telemetry`` and ``io`` declared cross-cutting. A package may
import its own layer and anything below; an *upward* import couples a
foundation to the machinery built on top of it — exactly the kind of
edge that made the pre-PR-8 tree accrete hidden knots (``scheduler``
quietly importing ``experiments`` helpers is the canonical failure).

Two finding families:

* **upward import** — any import whose target's layer is strictly
  higher than the importer's. ``if TYPE_CHECKING:`` imports are exempt
  (they are erased at runtime); function-local lazy imports are *not*
  (the runtime dependency is real — suppress with a written
  justification where the inversion is deliberate).
* **import cycle** — strongly connected components in the module-level
  import-time graph (lazy and TYPE_CHECKING imports excluded, mirroring
  what the interpreter actually executes).
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding, Severity
from ..rules import BaseProjectRule, register_rule


@register_rule
class LayerDagRule(BaseProjectRule):
    """ARCH001: enforce the declared package layering."""

    code = "ARCH001"
    name = "layer-dag"
    severity = Severity.ERROR
    description = (
        "packages form a DAG (units/errors/floats/faults -> sim/net/core "
        "-> cc/mechanisms/switches -> workloads/scheduler -> runner "
        "-> experiments/cli, telemetry+io cross-cutting); upward "
        "imports and module cycles knot foundations to the machinery "
        "built on them."
    )
    hint = (
        "depend downward only: move shared types down a layer, use an "
        "`if TYPE_CHECKING:` import for annotations, or justify the "
        "inversion with a simlint suppression"
    )

    def check_project(self, project) -> Iterator[Finding]:
        yield from self._upward_imports(project)
        yield from self._cycles(project)

    def _upward_imports(self, project) -> Iterator[Finding]:
        config = project.config
        layer_of = config.layer_of()
        cross_cutting = set(config.cross_cutting)
        root = None
        for index in project.modules.values():
            root = index.module.split(".")[0]
            break
        for name in sorted(project.modules):
            index = project.modules[name]
            if not index.package_parts:
                continue  # the root package __init__ is unconstrained
            importer = index.package_parts[0]
            if importer in cross_cutting or importer not in layer_of:
                continue
            # One finding per import statement: a ``from x import a, b``
            # yields one site per name, all at the same position.
            seen = set()
            for site in index.imports:
                parts = site.target.split(".")
                if len(parts) < 2 or parts[0] != root:
                    continue
                target = parts[1]
                if target == importer or target in cross_cutting:
                    continue
                if target not in layer_of:
                    continue
                if site.type_checking:
                    continue
                key = (site.line, site.col, target)
                if key in seen:
                    continue
                if layer_of[target] > layer_of[importer]:
                    seen.add(key)
                    yield self.project_finding(
                        index.path,
                        site.line,
                        site.col,
                        f"upward import: `{importer}` (layer "
                        f"{layer_of[importer]}) imports `{target}` "
                        f"(layer {layer_of[target]})",
                    )

    def _cycles(self, project) -> Iterator[Finding]:
        for component in project.strongly_connected_modules():
            chain = " -> ".join([*component, component[0]])
            members = set(component)
            for name in component:
                index = project.modules[name]
                site = self._edge_into(project, index, members)
                if site is None:
                    continue
                yield self.project_finding(
                    index.path,
                    site.line,
                    site.col,
                    f"module import cycle: {chain}",
                )

    @staticmethod
    def _edge_into(project, index, members):
        """First import-time edge from ``index`` into the cycle."""
        for site in index.imports:
            if site.type_checking or site.function_scope:
                continue
            resolved = project.resolve_module(site.target)
            if resolved in members and resolved != index.module:
                return site
        return None
