"""Rules guarding the long-lived workers' fork-inherited state.

Forked campaign workers snapshot the parent's module globals when they
start.  Two structural hazards follow:

- a *mutable module-level global* the epoch does not know about
  (:mod:`repro.util.invalidation`) can drift between parent and workers
  with no invalidation — so every such global must be declared with
  :func:`~repro.util.invalidation.register_worker_state`;
- a *registration executed inside a function body* mutates a registry at
  some arbitrary later time, after workers may already have snapshotted it
  — registries must be populated at import time (module scope), which is
  exactly when every process, parent or worker, replays them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, dotted_name
from repro.analysis.registry import register_rule

#: Constructors whose result is shared mutable state when bound at
#: module level.  Includes the repo's own mutable-container classes.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "OrderedDict",
        "defaultdict",
        "deque",
        "Counter",
        "ChainMap",
        "BoundedDict",
        "Registry",
    }
)


def _is_mutable_value(node: ast.AST) -> bool:
    """Whether a module-level binding to ``node`` is shared mutable state."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        return dotted.rsplit(".", 1)[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _declared_worker_state(tree: ast.Module) -> set[str]:
    """Names declared via ``register_worker_state(__name__, "NAME")``."""
    declared: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if dotted_name(node.func) not in (
            "register_worker_state",
            "invalidation.register_worker_state",
        ):
            continue
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            value = node.args[1].value
            if isinstance(value, str):
                declared.add(value)
    return declared


def _module_level_mutables(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    """``(name, stmt)`` for every top-level mutable-container binding."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, stmt


def _global_statement_targets(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    """``(name, stmt)`` for every ``global NAME`` inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield name, node


@register_rule(
    "worker-state-registry",
    description=(
        "every mutable module-level global (and `global` target) must be "
        "declared via register_worker_state so the pool epoch can see it"
    ),
)
def worker_state_registry(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag undeclared fork-inherited mutable globals.

    A declaration is a module-level
    ``register_worker_state(__name__, "NAME", note=...)`` call; the note
    records the discipline (epoch-bumped on mutation, or constant after
    import).  Only modules under the ``repro`` package are checked —
    scripts and tests are not imported by workers.
    """
    if not ctx.in_package("repro"):
        return
    declared = _declared_worker_state(ctx.tree)
    seen: set[str] = set()
    for name, stmt in _module_level_mutables(ctx.tree):
        if name in declared or name in seen:
            continue
        seen.add(name)
        yield ctx.finding(
            stmt,
            "worker-state-registry",
            f"mutable module-level global {name!r} is not declared to the "
            "worker-state epoch; add register_worker_state(__name__, "
            f"{name!r}, note=...) (repro.util.invalidation) or the forked "
            "pool can snapshot state the epoch cannot invalidate",
        )
    for name, stmt in _global_statement_targets(ctx.tree):
        if name in declared or name in seen:
            continue
        seen.add(name)
        yield ctx.finding(
            stmt,
            "worker-state-registry",
            f"module global {name!r} is reassigned via a `global` statement "
            "but never declared with register_worker_state(__name__, "
            f"{name!r}, note=...); the worker-state epoch cannot invalidate "
            "state it does not know about",
        )


@register_rule(
    "nested-registration",
    description=(
        "register_* calls must execute at module scope — a registration "
        "inside a function body races the pool's import-time snapshot"
    ),
)
def nested_registration(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``register_*(...)`` / ``REGISTRY.register(...)`` in function bodies.

    Registries are replayed by import in every process; a registration
    deferred into a function body only happens in processes that call
    that function, so a forked worker can disagree with its parent about
    what exists.  Calls through ``self`` are exempt (that is the
    registry implementing its own decorator protocol), as are test and
    example trees (not checked here at all — the rule only fires inside
    the ``repro`` package).
    """
    if not ctx.in_package("repro"):
        return
    yield from _scan_for_nested_registrations(ctx, ctx.tree, None)


def _scan_for_nested_registrations(
    ctx: ModuleContext, node: ast.AST, enclosing: str | None
) -> Iterator[Finding]:
    """Recursive walk tracking the enclosing function, if any.

    A ``FunctionDef``'s decorators and default expressions evaluate in
    the *enclosing* scope (import time for module-level defs), so they
    inherit ``enclosing``; only the body descends into the function.
    """
    if isinstance(node, ast.Call) and enclosing is not None:
        flagged = _registration_target(node)
        if flagged is not None:
            yield ctx.finding(
                node,
                "nested-registration",
                f"registration call {flagged!r} inside function "
                f"{enclosing!r}: registries must be populated at module "
                "scope so every process (parent and forked worker) "
                "replays the same table at import time",
            )
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for decorator in node.decorator_list:
            yield from _scan_for_nested_registrations(ctx, decorator, enclosing)
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None:
                yield from _scan_for_nested_registrations(ctx, default, enclosing)
        for stmt in node.body:
            yield from _scan_for_nested_registrations(ctx, stmt, node.name)
        return
    for child in ast.iter_child_nodes(node):
        yield from _scan_for_nested_registrations(ctx, child, enclosing)


def _registration_target(node: ast.Call) -> str | None:
    """The flagged registration name for a call, if it is one."""
    target = node.func
    if isinstance(target, ast.Name) and target.id.startswith("register_"):
        return target.id
    if isinstance(target, ast.Attribute):
        if target.attr.startswith("register_") or target.attr == "register":
            if not (
                isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                return dotted_name(target) or target.attr
    return None
