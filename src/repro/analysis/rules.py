"""The repo-specific lint rules (``TA001``...``TA010``; the
concurrency rules ``TA011``...``TA015`` live in
:mod:`repro.analysis.concurrency` and join the registry here).

Each rule is small, syntactic, and tied to a property the engine
actually relies on; DESIGN.md §8 documents the rationale behind every
code.  To add a rule: subclass :class:`~repro.analysis.lint.Rule`,
give it the next free ``TAxxx`` code, implement ``applies_to`` (path
scoping) and ``check`` (AST visit), add it to :func:`default_rules`,
drop a deliberate violation into ``tests/analysis/fixtures/``, and
describe it in DESIGN.md.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint import ProjectIndex, Rule, SourceFile, Violation, _index_class

__all__ = [
    "EvaluatorProtocolRule",
    "SlotsOnNodeClassesRule",
    "SwallowedExceptionRule",
    "WallClockRule",
    "MutableDefaultRule",
    "BoundaryValidationRule",
    "SetIterationRule",
    "AnnotationGateRule",
    "JournalBypassRule",
    "HotLoopRule",
    "default_rules",
]

#: Classes whose ``evaluate`` is abstract: inheriting only *their*
#: ``evaluate`` does not make an evaluator concrete.
_ABSTRACT_EVALUATOR_ROOTS = frozenset({"Evaluator"})

#: Modules whose merge/stitch paths must stay order-deterministic.
_ORDER_SENSITIVE_BASENAMES = frozenset({"partition.py", "parallel.py"})

#: Modules that are engine boundaries: every public function must
#: route (possibly via another public function here) through
#: ``repro.exec.validation``.  ``evaluator.py`` is the shard-result
#: cache's entry point (``repro.cache.evaluator``).
_BOUNDARY_BASENAMES = frozenset({"engine.py", "evaluator.py"})


class EvaluatorProtocolRule(Rule):
    """TA001 — registered evaluators and relations honor their protocol.

    A class that transitively subclasses ``Evaluator`` *and* declares a
    registry ``name`` is a registered strategy: it must define or
    inherit a concrete ``evaluate`` (the abstract base's
    ``NotImplementedError`` stub does not count).  Likewise a class
    offering ``scan_triples`` is a relation the planner can be pointed
    at, so it must also provide ``statistics()`` — the planner's only
    input.
    """

    code = "TA001"
    name = "evaluator-protocol"
    description = (
        "registered Evaluator subclasses must define/inherit evaluate(); "
        "scan_triples providers must define statistics()"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return bool(source.scope)

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _index_class(node, source.display_path)
            if (
                "name" in info.class_attrs
                and index.inherits_from(info, "Evaluator")
                and not index.defines_method(
                    info, "evaluate", skip_roots=_ABSTRACT_EVALUATOR_ROOTS
                )
            ):
                yield self.violation(
                    source,
                    node,
                    f"registered evaluator {node.name!r} neither defines nor "
                    "inherits a concrete evaluate() (the abstract base "
                    "stub does not count)",
                )
            if "scan_triples" in info.methods and not index.defines_method(
                info, "statistics"
            ):
                yield self.violation(
                    source,
                    node,
                    f"relation class {node.name!r} defines scan_triples() but "
                    "not statistics(); the planner cannot choose a strategy "
                    "for it",
                )


def _dataclass_slots(node: ast.ClassDef) -> bool:
    """``@dataclass(slots=True)`` counts as declaring ``__slots__``."""
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, (ast.Name, ast.Attribute))
            and (
                decorator.func.id
                if isinstance(decorator.func, ast.Name)
                else decorator.func.attr
            )
            == "dataclass"
        ):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


class SlotsOnNodeClassesRule(Rule):
    """TA002 — hot-path node classes declare ``__slots__``.

    Tree nodes and list cells are allocated once per constant interval;
    a forgotten ``__slots__`` silently adds a ``__dict__`` per node —
    and Python gives subclasses of slotted classes a ``__dict__`` again
    unless *they* re-declare slots, so every class in the chain must.
    """

    code = "TA002"
    name = "slots-on-node-classes"
    description = "core/ classes named *Node/*Cell (or subclassing one) need __slots__"

    @staticmethod
    def _is_node_name(name: str) -> bool:
        bare = name.lstrip("_")
        return bare.endswith("Node") or bare.endswith("Cell")

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_scope("core")

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _index_class(node, source.display_path)
            hot = self._is_node_name(node.name) or any(
                self._is_node_name(ancestor.name)
                for ancestor in index.ancestors(info)
            )
            if hot and not info.has_slots and not _dataclass_slots(node):
                yield self.violation(
                    source,
                    node,
                    f"hot-path node class {node.name!r} does not declare "
                    "__slots__ (each instance grows a __dict__; subclasses "
                    "of slotted classes must re-declare)",
                )


def _handler_catches(handler: ast.ExceptHandler, names: FrozenSet[str]) -> bool:
    kind = handler.type
    candidates: List[ast.expr] = []
    if isinstance(kind, ast.Tuple):
        candidates = list(kind.elts)
    elif kind is not None:
        candidates = [kind]
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in names:
            return True
    return False


def _body_only_passes(body: List[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ) and statement.value.value is Ellipsis:
            continue
        return False
    return True


class SwallowedExceptionRule(Rule):
    """TA003 — no bare ``except:``; no ``except Exception: pass`` in
    ``core``/``exec``.

    A wrong partial aggregate does not crash — it just returns wrong
    rows.  The one thing the engine must never do is eat the exception
    that would have revealed it.
    """

    code = "TA003"
    name = "swallowed-exception"
    description = (
        "bare except anywhere; except Exception/BaseException with a "
        "pass-only body in core/ and exec/"
    )

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        broad = frozenset({"Exception", "BaseException"})
        in_engine_paths = source.in_scope("core", "exec")
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    source,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                    "hides every failure; name the exceptions",
                )
            elif (
                in_engine_paths
                and _handler_catches(node, broad)
                and _body_only_passes(node.body)
            ):
                yield self.violation(
                    source,
                    node,
                    "except Exception with a pass-only body swallows the "
                    "error that would reveal a corrupted aggregate; narrow "
                    "the type or handle it",
                )


class WallClockRule(Rule):
    """TA004 — deadline-sensitive code uses the monotonic clock only.

    ``time.time()`` jumps under NTP slew; a deadline computed from it
    can fire early, late, or never.  ``core``/``exec`` must use
    ``time.monotonic()`` (or ``perf_counter`` for measurement).
    """

    code = "TA004"
    name = "wall-clock-in-deadline-code"
    description = "no time.time() in core/, exec/, or replicate/ (monotonic only)"

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_scope("core", "exec", "replicate")

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "time"
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ):
                yield self.violation(
                    source,
                    node,
                    "time.time() is not monotonic; deadlines and backoff in "
                    "this layer must use time.monotonic()",
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        yield self.violation(
                            source,
                            node,
                            "importing time.time into deadline-sensitive "
                            "code; use time.monotonic()",
                        )


class MutableDefaultRule(Rule):
    """TA005 — no mutable default arguments, anywhere.

    A ``def f(acc=[])`` default is allocated once at definition time
    and shared across calls; in an engine that reuses evaluators this
    turns into cross-query state leakage.
    """

    code = "TA005"
    name = "mutable-default-argument"
    description = "no list/dict/set (display or constructor) default arguments"

    _CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in self._CONSTRUCTORS
        )

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        source,
                        default,
                        f"mutable default argument in {node.name}(); the "
                        "object is shared across every call — default to "
                        "None and allocate inside",
                    )


class BoundaryValidationRule(Rule):
    """TA006 — engine-boundary public functions route through
    ``exec.validation``.

    The evaluators' hot paths assume validated input; the contract is
    that *every* public entry point in an engine-boundary module either
    calls a ``repro.exec.validation`` helper itself or delegates to a
    public sibling that does.
    """

    code = "TA006"
    name = "boundary-validation"
    description = (
        "public functions in engine-boundary modules (engine.py, the "
        "cache's evaluator.py) must (transitively) call into "
        "repro.exec.validation"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.basename in _BOUNDARY_BASENAMES and bool(source.scope)

    @staticmethod
    def _validation_names(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
        """(names imported from exec.validation, module aliases of it)."""
        names: Set[str] = set()
        modules: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.module.endswith("exec.validation"):
                    for alias in node.names:
                        names.add(alias.asname or alias.name)
                elif node.module.endswith("exec"):
                    for alias in node.names:
                        if alias.name == "validation":
                            modules.add(alias.asname or "validation")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith("exec.validation"):
                        modules.add(alias.asname or alias.name.split(".")[0])
        return names, modules

    @staticmethod
    def _uses_validation(
        function: ast.FunctionDef, names: Set[str], modules: Set[str]
    ) -> bool:
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id in names:
                return True
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                return True
        return False

    @staticmethod
    def _called_functions(function: ast.FunctionDef) -> Set[str]:
        return {
            node.func.id
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        names, modules = self._validation_names(source.tree)
        top_level: Dict[str, ast.FunctionDef] = {
            statement.name: statement
            for statement in source.tree.body
            if isinstance(statement, ast.FunctionDef)
        }
        validated: Set[str] = {
            name
            for name, function in top_level.items()
            if self._uses_validation(function, names, modules)
        }
        # Propagate through intra-module calls to a fixed point: a
        # function that calls a validated sibling is itself validated.
        changed = True
        while changed:
            changed = False
            for name, function in top_level.items():
                if name in validated:
                    continue
                if self._called_functions(function) & validated:
                    validated.add(name)
                    changed = True
        for name, function in top_level.items():
            if name.startswith("_") or name in validated:
                continue
            yield self.violation(
                source,
                function,
                f"engine-boundary public function {name}() never routes "
                "through repro.exec.validation (directly or via a public "
                "sibling); unvalidated triples corrupt sweep ordering",
            )


class SetIterationRule(Rule):
    """TA007 — no nondeterministic ``set`` iteration in merge/stitch
    paths.

    ``set`` iteration order depends on insertion history and hash
    seeds; in the seam-stitching and shard-merge code a
    nondeterministic visit order silently reorders rows between runs.
    Iterate ``sorted(...)`` instead (membership tests remain fine).
    """

    code = "TA007"
    name = "set-iteration-in-merge-path"
    description = (
        "partition.py/parallel.py must not iterate sets directly; "
        "wrap in sorted()"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.basename in _ORDER_SENSITIVE_BASENAMES and source.in_scope(
            "core"
        )

    def _produces_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._produces_set(node.left) or self._produces_set(node.right)
        return False

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(generator.iter for generator in node.generators)
            for candidate in iters:
                if self._produces_set(candidate):
                    yield self.violation(
                        source,
                        candidate,
                        "iterating a set in a merge/stitch path is "
                        "nondeterministic across runs; iterate "
                        "sorted(...) instead",
                    )


class AnnotationGateRule(Rule):
    """TA008 — the public API of the gated packages is fully annotated.

    The stdlib-enforced half of the strict typing gate: every public
    module-level function and every public method (plus ``__init__``)
    annotates all parameters and its return type, so mypy ``--strict``
    has real signatures to check rather than inferring ``Any``.
    """

    code = "TA008"
    name = "annotation-gate"
    description = (
        "public functions/methods in core/, exec/, analysis/, serve/, "
        "cache/, metrics/ and tsql2/ must annotate every parameter and "
        "the return type"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_scope(
            "core", "exec", "analysis", "serve", "cache", "metrics", "tsql2"
        )

    @staticmethod
    def _is_static(function: ast.FunctionDef) -> bool:
        return any(
            isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
            for decorator in function.decorator_list
        )

    def _missing(
        self, function: ast.FunctionDef, *, is_method: bool
    ) -> List[str]:
        missing: List[str] = []
        args = function.args
        positional = list(args.posonlyargs) + list(args.args)
        if is_method and not self._is_static(function) and positional:
            positional = positional[1:]  # self / cls
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        for variadic, prefix in ((args.vararg, "*"), (args.kwarg, "**")):
            if variadic is not None and variadic.annotation is None:
                missing.append(prefix + variadic.arg)
        if function.returns is None:
            missing.append("return")
        return missing

    def _checkable(self, name: str) -> bool:
        return name == "__init__" or not name.startswith("_")

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        targets: List[Tuple[ast.FunctionDef, bool]] = []
        for statement in source.tree.body:
            if isinstance(statement, ast.FunctionDef):
                targets.append((statement, False))
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for statement in node.body:
                    if isinstance(statement, ast.FunctionDef):
                        targets.append((statement, True))
        for function, is_method in targets:
            if not self._checkable(function.name):
                continue
            missing = self._missing(function, is_method=is_method)
            if missing:
                yield self.violation(
                    source,
                    function,
                    f"{function.name}() is missing annotations for "
                    f"{', '.join(missing)}; the strict typing gate needs "
                    "full public signatures",
                )


class JournalBypassRule(Rule):
    """TA009 — storage code routes writes through the journal API.

    The durability contract (DESIGN.md §10) holds only if every
    write-capable file open and every unlink in ``storage/`` goes
    through :mod:`repro.storage.journal`'s sanctioned helpers
    (``data_open``/``scratch_open``/``scratch_unlink``): those apply
    fault injection and keep the write-ahead ordering observable.  A
    direct ``open(path, "wb")`` or ``os.remove`` bypasses both — it can
    clobber acknowledged data without a journal record and is invisible
    to the crash matrix.  The helpers themselves carry
    ``# ta: ignore[TA009]`` on their sanctioned calls.
    """

    code = "TA009"
    name = "journal-bypass-write"
    description = (
        "storage/ must not call open() with a write mode or os.remove/"
        "os.unlink directly; use the repro.storage.journal helpers"
    )

    _UNLINK_NAMES = frozenset({"remove", "unlink"})

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_scope("storage")

    @staticmethod
    def _write_mode(call: ast.Call) -> Optional[str]:
        """The mode string if it is a write-capable constant, else None."""
        mode: Optional[ast.expr] = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
            return None
        if any(flag in mode.value for flag in ("w", "a", "x", "+")):
            return mode.value
        return None

    @staticmethod
    def _os_unlink_aliases(tree: ast.Module) -> Set[str]:
        """Bare names bound to ``os.remove``/``os.unlink`` via import."""
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in JournalBypassRule._UNLINK_NAMES:
                        aliases.add(alias.asname or alias.name)
        return aliases

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        unlink_aliases = self._os_unlink_aliases(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            function = node.func
            if isinstance(function, ast.Name) and function.id == "open":
                mode = self._write_mode(node)
                if mode is not None:
                    yield self.violation(
                        source,
                        node,
                        f"direct open(..., {mode!r}) in storage/ bypasses "
                        "the journal API; use data_open/scratch_open from "
                        "repro.storage.journal",
                    )
            elif (
                isinstance(function, ast.Attribute)
                and function.attr in self._UNLINK_NAMES
                and isinstance(function.value, ast.Name)
                and function.value.id == "os"
            ):
                yield self.violation(
                    source,
                    node,
                    f"os.{function.attr}() in storage/ deletes files behind "
                    "the journal's back; use scratch_unlink from "
                    "repro.storage.journal",
                )
            elif (
                isinstance(function, ast.Name)
                and function.id in unlink_aliases
            ):
                yield self.violation(
                    source,
                    node,
                    f"{function.id}() (imported from os) in storage/ deletes "
                    "files behind the journal's back; use scratch_unlink "
                    "from repro.storage.journal",
                )


class HotLoopRule(Rule):
    """TA010 — marked hot loops stay free of tuple builds and unbound
    attribute lookups.

    The columnar pipeline's speed claim rests on its inner loops doing
    no per-event allocation or dynamic dispatch.  Loops annotated
    ``# ta: hot`` in the hot-path modules (``columnar_sweep.py``,
    ``sweep.py``, ``partition.py``, ``codec.py``) are that claim made
    checkable: inside them the rule forbids

    * constructing a project NamedTuple (``ConstantInterval``,
      ``TemporalTuple``, ...) — per-event object churn; batch-convert
      outside the loop instead, and
    * calling through an attribute lookup (``obj.method(...)``) — an
      interpreted dict probe per iteration; hoist the bound method to a
      local before the loop.

    Unmarked loops are exempt — the marker is the author's statement
    that the loop is performance-bearing.
    """

    code = "TA010"
    name = "hot-loop-allocation"
    description = (
        "loops marked '# ta: hot' in hot-path modules must not build "
        "NamedTuples or call through attribute lookups; hoist and batch"
    )

    _HOT_BASENAMES = frozenset(
        {"columnar_sweep.py", "sweep.py", "partition.py", "codec.py"}
    )
    _MARKER = "ta: hot"

    def applies_to(self, source: SourceFile) -> bool:
        return source.basename in self._HOT_BASENAMES and source.in_scope(
            "core", "storage"
        )

    def _is_marked(self, source: SourceFile, node: ast.stmt) -> bool:
        """Marker on the loop header line or the line directly above."""
        for lineno in (node.lineno, node.lineno - 1):
            if 1 <= lineno <= len(source.lines):
                line = source.lines[lineno - 1]
                if "#" in line and self._MARKER in line.split("#", 1)[1]:
                    return True
        return False

    @staticmethod
    def _is_namedtuple_name(name: str, index: ProjectIndex) -> bool:
        for info in index.classes.get(name, []):
            if "NamedTuple" in info.bases or index.inherits_from(
                info, "NamedTuple"
            ):
                return True
        return False

    def check(self, source: SourceFile, index: ProjectIndex) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            if not self._is_marked(source, node):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                function = inner.func
                if isinstance(function, ast.Attribute):
                    yield self.violation(
                        source,
                        inner,
                        f"attribute-lookup call .{function.attr}(...) inside "
                        "a '# ta: hot' loop; hoist the bound method to a "
                        "local before the loop",
                    )
                elif isinstance(
                    function, ast.Name
                ) and self._is_namedtuple_name(function.id, index):
                    yield self.violation(
                        source,
                        inner,
                        f"NamedTuple {function.id}(...) constructed inside a "
                        "'# ta: hot' loop; accumulate plain tuples and "
                        "batch-convert after the loop",
                    )


def default_rules() -> List[Rule]:
    """Every rule, in code order (the registry the CLI and tests use)."""
    from repro.analysis.concurrency import (
        BlockingCallUnderLockRule,
        EscapingGuardedStateRule,
        GuardedAttributeRule,
        LockOrderRule,
        LockPerCallRule,
    )

    return [
        EvaluatorProtocolRule(),
        SlotsOnNodeClassesRule(),
        SwallowedExceptionRule(),
        WallClockRule(),
        MutableDefaultRule(),
        BoundaryValidationRule(),
        SetIterationRule(),
        AnnotationGateRule(),
        JournalBypassRule(),
        HotLoopRule(),
        GuardedAttributeRule(),
        LockOrderRule(),
        EscapingGuardedStateRule(),
        BlockingCallUnderLockRule(),
        LockPerCallRule(),
    ]
