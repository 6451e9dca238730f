"""Phase 1 of the whole-program analyzer: the per-file symbol index.

One walk over each file's tree produces a :class:`FileIndex` — pure
data, no AST references — recording everything the project-wide
analysis passes need:

* every function/method with its **call sites** (callees resolved
  lexically through imports, module-local definitions, and
  ``self.``/``cls.`` receivers),
* **direct nondeterminism sources** per taint category (the tables in
  :mod:`repro.lint.sources`),
* **shared-state facts** for the parallelism audit: module-level
  mutables and singletons, class-level mutable attributes, function-code
  writes to any of them, and loop-variable closure captures,
* the file's ``# repro: noqa`` directive lines, so the taint pass can
  treat reasoned suppressions as declared boundaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.lint import sources
from repro.lint.context import ImportTable

#: Constructors/literals that make a module-level binding a shared
#: mutable container.
MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.deque",
    "collections.Counter", "collections.OrderedDict",
})

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "reverse", "setdefault", "sort", "update",
})

#: Decorators installing a process-wide memo table.
CACHE_DECORATORS = frozenset({"functools.lru_cache", "functools.cache"})

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                     ast.ListComp, ast.SetComp)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def module_name(path: str) -> str:
    """Dotted module name for ``path``, anchored at ``src/`` or ``tests/``.

    ``src/repro/xemem/module.py`` → ``repro.xemem.module``;
    ``tests/obs/test_tracer.py`` → ``tests.obs.test_tracer``; paths
    outside both anchors keep their full (slash→dot) spelling so
    distinct fixture files cannot collide.
    """
    p = path.replace("\\", "/")
    if p.endswith(".py"):
        p = p[:-3]
    parts = [x for x in p.split("/") if x and x != "."]
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[cut + 1:]
    elif "tests" in parts:
        cut = len(parts) - 1 - parts[::-1].index("tests")
        parts = parts[cut:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


@dataclass
class CallSite:
    """One call edge candidate inside a function body."""

    line: int
    col: int
    #: dotted callee (``repro.x.f``), or ``self::module.Class.meth``
    #: for receiver-based calls resolved against the class hierarchy.
    callee: str
    display: str  #: the callee expression as written in source


@dataclass
class FunctionInfo:
    """One function/method (or the module's top-level pseudo-function)."""

    qualname: str
    path: str
    line: int
    calls: list = field(default_factory=list)
    #: taint code -> [[line, col, source label], ...] direct sources
    taints: dict = field(default_factory=dict)
    #: names bound locally (params + assignments); sorted for stability
    locals: list = field(default_factory=list)
    #: line of a functools.lru_cache/cache decorator, 0 when absent
    cached: int = 0


@dataclass
class ClassInfo:
    """Shared-state facts about one class definition."""

    qualname: str
    path: str
    line: int
    bases: list = field(default_factory=list)  #: resolved dotted names
    #: class-body mutable containers: attr -> line
    class_mutables: dict = field(default_factory=dict)
    #: attrs assigned through ``self.attr = ...`` anywhere in the class
    instance_assigned: list = field(default_factory=list)
    #: in-place mutations through self: [[attr, line, col, display], ...]
    self_mutations: list = field(default_factory=list)
    #: ``self.attr = NAME`` bindings of a module-level name:
    #: attr -> dotted ``module.NAME``
    state_aliases: dict = field(default_factory=dict)


@dataclass
class StateWrite:
    """One function-code write against module/class-level state."""

    scope: str  #: qualname of the function containing the write
    #: ``global-rebind`` | ``mutate`` | ``subscript`` | ``attr-store``
    #: | ``class-attr``
    kind: str
    target: str  #: bare module-level name, or dotted cross-module path
    line: int
    col: int
    display: str


@dataclass
class FileIndex:
    """Everything the analysis phase needs to know about one file."""

    path: str
    module: str
    functions: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    module_mutables: dict = field(default_factory=dict)  #: name -> line
    #: name -> [line, resolved class dotted name]
    module_singletons: dict = field(default_factory=dict)
    writes: list = field(default_factory=list)
    #: loop-variable closure captures: [[line, col, var, display], ...]
    captures: list = field(default_factory=list)
    #: noqa directive lines: line -> sorted code list
    noqa: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The indexer walk
# ---------------------------------------------------------------------------


class _FunctionFrame:
    """Per-function bookkeeping while the walk is inside it."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.bound: set = set()
        self.globals: set = set()


class _Indexer:
    """One-pass tree walk building a :class:`FileIndex`."""

    def __init__(self, path: str, tree: ast.AST) -> None:
        self.tree = tree
        self.imports = ImportTable(tree)
        self.idx = FileIndex(path=path, module=module_name(path))
        # Module-level definitions, pre-collected so bare-name calls and
        # base classes resolve to this module regardless of order.
        self.top_defs: set = set()
        self.top_classes: set = set()
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.top_defs.add(node.name)
                self.top_classes.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self.top_defs.update(_target_names(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    self.top_defs.add(node.target.id)
        self.class_stack: list = []  # ClassInfo chain
        self.func_stack: list = []  # _FunctionFrame chain
        #: loop-target scopes; None is a function barrier
        self.loop_stack: list = []
        module_fn = FunctionInfo(qualname=self.idx.module, path=path, line=1)
        self.idx.functions[module_fn.qualname] = module_fn
        self.module_frame = _FunctionFrame(module_fn)

    # -- naming -------------------------------------------------------------

    def _scope_prefix(self) -> str:
        parts = [self.idx.module]
        parts.extend(c.qualname.rpartition(".")[2] for c in self.class_stack)
        parts.extend(
            f.info.qualname.rpartition(".")[2] for f in self.func_stack
        )
        return ".".join(parts)

    def current(self) -> _FunctionFrame:
        return self.func_stack[-1] if self.func_stack else self.module_frame

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name via imports, falling back to module-level defs."""
        dotted = self.imports.resolve(node)
        if dotted is not None:
            return dotted
        parts: list = []
        probe = node
        while isinstance(probe, ast.Attribute):
            parts.append(probe.attr)
            probe = probe.value
        if not isinstance(probe, ast.Name):
            return None
        root = probe.id
        if root not in self.top_defs or self._is_local(root):
            return None
        parts.append(root)
        parts.append(self.idx.module)
        return ".".join(reversed(parts))

    def _is_local(self, name: str) -> bool:
        for frame in reversed(self.func_stack):
            if name in frame.globals:
                return False
            if name in frame.bound:
                return True
        return False

    # -- entry point --------------------------------------------------------

    def build(self) -> FileIndex:
        for child in ast.iter_child_nodes(self.tree):
            self._walk(child)
        self._prune_writes()
        return self.idx

    def _prune_writes(self) -> None:
        """Drop bare-name write candidates that cannot hit shared state.

        Local bindings are only complete once the whole file has been
        walked (an assignment anywhere in a function makes the name
        local throughout), so the locals test runs here, not inline.
        """
        kept: list = []
        for w in self.idx.writes:
            if w.kind in ("global-rebind", "class-attr"):
                kept.append(w)
                continue
            base = w.target.rpartition(".")[0] if w.kind == "attr-store" \
                else w.target
            if "." in base:  # dotted cross-module path — analyzed later
                kept.append(w)
                continue
            fn = self.idx.functions.get(w.scope)
            if fn is not None and base in fn.locals:
                continue
            if base in self.idx.module_mutables \
                    or base in self.idx.module_singletons:
                kept.append(w)
        self.idx.writes = kept

    # -- the walk -----------------------------------------------------------

    def _walk(self, node: ast.AST) -> None:
        handler = getattr(self, f"_visit_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _walk_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    # -- scopes -------------------------------------------------------------

    def _visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = f"{self._scope_prefix()}.{node.name}"
        info = ClassInfo(qualname=qual, path=self.idx.path, line=node.lineno,
                         bases=[b for b in
                                (self.resolve(base) for base in node.bases)
                                if b is not None])
        self.idx.classes[qual] = info
        for stmt in node.body:  # class-level mutable attributes
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target = stmt.targets[0].id
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.value is not None:
                target = stmt.target.id
            if target is not None and self._is_mutable_expr(stmt.value):
                info.class_mutables[target] = stmt.lineno
        self.class_stack.append(info)
        for decorator in node.decorator_list:
            self._walk(decorator)
        self._handle_loop_barrier_body(node.body)
        self.class_stack.pop()

    def _visit_FunctionDef(self, node) -> None:
        self._enter_function(node)

    def _visit_AsyncFunctionDef(self, node) -> None:
        self._enter_function(node)

    def _enter_function(self, node) -> None:
        self._check_capture(node)
        qual = f"{self._scope_prefix()}.{node.name}"
        info = FunctionInfo(qualname=qual, path=self.idx.path,
                            line=node.lineno)
        for decorator in node.decorator_list:
            probe = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if self.resolve(probe) in CACHE_DECORATORS:
                info.cached = decorator.lineno
            self._walk(decorator)
        self.idx.functions[qual] = info
        frame = _FunctionFrame(info)
        frame.bound.update(_arg_names(node.args))
        for default in node.args.defaults + \
                [d for d in node.args.kw_defaults if d is not None]:
            self._walk(default)  # defaults evaluate in the outer scope
        self.func_stack.append(frame)
        self._handle_loop_barrier_body(node.body)
        frame.info.locals = sorted(frame.bound)
        self.func_stack.pop()

    def _visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_capture(node)
        for default in node.args.defaults + \
                [d for d in node.args.kw_defaults if d is not None]:
            self._walk(default)
        self.loop_stack.append(None)  # barrier: outer loop vars invisible
        self._walk(node.body)
        self.loop_stack.pop()

    def _handle_loop_barrier_body(self, body: list) -> None:
        self.loop_stack.append(None)
        for stmt in body:
            self._walk(stmt)
        self.loop_stack.pop()

    def _visit_Global(self, node: ast.Global) -> None:
        self.current().globals.update(node.names)

    # -- loops & captures ---------------------------------------------------

    def _visit_For(self, node) -> None:
        self._walk(node.iter)
        self._bind_target(node.target)
        self._walk(node.target)
        self.loop_stack.append(frozenset(_target_names(node.target)))
        for stmt in node.body:
            self._walk(stmt)
        self.loop_stack.pop()
        for stmt in node.orelse:
            self._walk(stmt)

    _visit_AsyncFor = _visit_For

    def _comprehension(self, node) -> None:
        pushed = 0
        for gen in node.generators:
            self._walk(gen.iter)
            self.loop_stack.append(frozenset(_target_names(gen.target)))
            pushed += 1
            for cond in gen.ifs:
                self._walk(cond)
        if isinstance(node, ast.DictComp):
            self._walk(node.key)
            self._walk(node.value)
        else:
            self._walk(node.elt)
        for _ in range(pushed):
            self.loop_stack.pop()

    _visit_ListComp = _comprehension
    _visit_SetComp = _comprehension
    _visit_DictComp = _comprehension
    _visit_GeneratorExp = _comprehension

    def _active_loop_targets(self) -> set:
        names: set = set()
        for entry in reversed(self.loop_stack):
            if entry is None:
                break
            names.update(entry)
        return names

    def _check_capture(self, node) -> None:
        """Flag a closure made inside a loop that reads the loop variable."""
        active = self._active_loop_targets()
        if not active:
            return
        free = _free_names(node) & active
        for name in sorted(free):
            self.idx.captures.append(
                [node.lineno, node.col_offset, name,
                 "lambda" if isinstance(node, ast.Lambda) else node.name]
            )

    # -- statements ---------------------------------------------------------

    def _bind_target(self, target: ast.AST) -> None:
        frame = self.current()
        for name in _target_names(target):
            if name not in frame.globals:
                frame.bound.add(name)

    def _visit_Assign(self, node: ast.Assign) -> None:
        self._walk(node.value)
        at_module = not self.func_stack and not self.class_stack
        for target in node.targets:
            self._record_store(target, node)
            self._bind_target(target)
            if at_module and isinstance(target, ast.Name):
                self._record_module_binding(target.id, node.value)
            self._walk_target_exprs(target)

    def _walk_target_exprs(self, target: ast.AST) -> None:
        """Visit the *expressions* inside an assignment target.

        ``d[key(x)] = v`` evaluates ``d`` and ``key(x)`` — both must go
        through the normal walk (call edges, taint sources) even though
        the target as a whole binds nothing.
        """
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._walk_target_exprs(elt)
        elif isinstance(target, ast.Starred):
            self._walk_target_exprs(target.value)
        elif isinstance(target, ast.Subscript):
            self._walk(target.value)
            self._walk(target.slice)
        elif isinstance(target, ast.Attribute):
            self._walk(target.value)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._walk(node.value)
            self._record_store(node.target, node)
            if not self.func_stack and not self.class_stack \
                    and isinstance(node.target, ast.Name):
                self._record_module_binding(node.target.id, node.value)
        self._bind_target(node.target)
        self._walk_target_exprs(node.target)

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._walk(node.value)
        self._record_store(node.target, node, aug=True)
        if isinstance(node.target, ast.Name):
            self._bind_target(node.target)
        else:
            self._walk_target_exprs(node.target)

    def _visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record_store(target, node)
                self._walk_target_exprs(target)
            else:
                self._walk(target)

    def _record_module_binding(self, name: str, value: ast.AST) -> None:
        if self._is_mutable_expr(value):
            self.idx.module_mutables[name] = value.lineno
        elif isinstance(value, ast.Call):
            cls = self.resolve(value.func)
            if cls is not None and cls not in MUTABLE_CALLS:
                self.idx.module_singletons[name] = [value.lineno, cls]

    def _is_mutable_expr(self, value) -> bool:
        if isinstance(value, _MUTABLE_LITERALS):
            return True
        return (isinstance(value, ast.Call)
                and self.resolve(value.func) in MUTABLE_CALLS)

    def _record_store(self, target: ast.AST, stmt: ast.AST,
                      aug: bool = False) -> None:
        """Classify one assignment target as a shared-state write."""
        if not self.func_stack:
            return  # module/class-level initialization is not a write
        frame = self.current()
        if isinstance(target, ast.Name):
            if target.id in frame.globals:
                self._write("global-rebind", target.id, stmt,
                            f"global {target.id}")
            return
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._self_mutation(attr, stmt, f"self.{attr}[...]")
                return
            base = self._state_base(target.value)
            if base is not None:
                self._write("subscript", base, stmt, f"{base}[...]")
            return
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) \
                    and target.value.id == "self" and self.class_stack:
                cls = self.class_stack[-1]
                if aug:
                    self._self_mutation(
                        target.attr, stmt, f"self.{target.attr} (augmented)"
                    )
                else:
                    if target.attr not in cls.instance_assigned:
                        cls.instance_assigned.append(target.attr)
                    alias = self._module_name_of(stmt.value)
                    if alias is not None:
                        cls.state_aliases[target.attr] = alias
                return
            cls = self._class_receiver(target.value)
            if cls is not None:
                self._write("class-attr", f"{cls}.{target.attr}", stmt,
                            f"{cls.rpartition('.')[2]}.{target.attr}")
                return
            base = self._state_base(target.value)
            if base is not None:
                self._write("attr-store", f"{base}.{target.attr}", stmt,
                            f"{base}.{target.attr}")

    def _self_attr(self, node: ast.AST) -> Optional[str]:
        """``attr`` when ``node`` is exactly ``self.attr``."""
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self" and self.class_stack:
            return node.attr
        return None

    def _module_name_of(self, node: ast.AST) -> Optional[str]:
        """Dotted ``module.NAME`` when ``node`` names a module-level
        binding, here or imported; else None."""
        if isinstance(node, ast.Name) and self._is_local(node.id):
            return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            return self.resolve(node)
        return None

    def _self_mutation(self, attr: str, stmt: ast.AST,
                       display: str) -> None:
        self.class_stack[-1].self_mutations.append(
            [attr, stmt.lineno, stmt.col_offset, display]
        )

    def _state_base(self, node: ast.AST) -> Optional[str]:
        """Bare or dotted base name when ``node`` may be shared state."""
        if isinstance(node, ast.Name):
            if self._is_local(node.id):
                return None
            return self.imports.resolve(node) or node.id
        return self.resolve(node)

    def _class_receiver(self, node: ast.AST) -> Optional[str]:
        """Class qualname when ``node`` denotes a class object."""
        if isinstance(node, ast.Attribute) and node.attr == "__class__" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls"):
            if self.class_stack:
                return self.class_stack[-1].qualname
            return f"{self.idx.module}.<class>"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "type" and len(node.args) == 1 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in ("self", "cls"):
            if self.class_stack:
                return self.class_stack[-1].qualname
            return f"{self.idx.module}.<class>"
        if isinstance(node, ast.Name) and not self._is_local(node.id):
            for cls in reversed(self.class_stack):
                if cls.qualname.rpartition(".")[2] == node.id:
                    return cls.qualname
            if node.id in self.top_classes:
                return f"{self.idx.module}.{node.id}"
        return None

    def _write(self, kind: str, target: str, stmt: ast.AST,
               display: str) -> None:
        self.idx.writes.append(
            StateWrite(scope=self.current().info.qualname, kind=kind,
                       target=target, line=stmt.lineno,
                       col=stmt.col_offset, display=display)
        )

    # -- expressions --------------------------------------------------------

    def _visit_Call(self, node: ast.Call) -> None:
        self._classify_call(node)
        self._walk(node.func)
        for arg in node.args:
            self._walk(arg)
        for kw in node.keywords:
            self._walk(kw.value)

    def _visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load) \
                and self.resolve(node.value) in sources.ENV_MAPPING:
            self._taint("REP103", node, "os.environ[...]")
        self._walk_children(node)

    def _taint(self, code: str, node: ast.AST, label: str) -> None:
        fn = self.current().info
        fn.taints.setdefault(code, []).append(
            [node.lineno, node.col_offset, label]
        )

    def _classify_call(self, node: ast.Call) -> None:
        fn = node.func
        info = self.current().info
        # Receiver-based call: resolve against the class hierarchy later.
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                and fn.value.id in ("self", "cls") and self.class_stack:
            info.calls.append(CallSite(
                line=node.lineno, col=node.col_offset,
                callee=f"self::{self.class_stack[-1].qualname}.{fn.attr}",
                display=f"{fn.value.id}.{fn.attr}",
            ))
            return
        resolved = self.resolve(fn)
        if resolved is None:
            if isinstance(fn, ast.Name) and not self._is_local(fn.id):
                if fn.id in sources.ADDRESS_CALLS:
                    self._taint("REP104", node, fn.id)
                elif fn.id == "setattr" and node.args and self.func_stack:
                    base = self._state_base(node.args[0])
                    if base is not None:
                        self._write("attr-store", f"{base}.*", node,
                                    f"setattr({base}, ...)")
            elif isinstance(fn, ast.Attribute) \
                    and fn.attr in MUTATOR_METHODS and self.func_stack:
                attr = self._self_attr(fn.value)
                if attr is not None:
                    self._self_mutation(attr, node,
                                        f"self.{attr}.{fn.attr}()")
            return
        if resolved in sources.WALLCLOCK_CALLS:
            self._taint("REP101", node, resolved)
            return
        entropy = sources.entropy_source_name(node, resolved)
        if entropy:
            self._taint("REP102", node, entropy)
            return
        if resolved in sources.ENV_READ_CALLS:
            self._taint("REP103", node, resolved)
            return
        if isinstance(fn, ast.Attribute) \
                and fn.attr in sources.ENV_MAPPING_READERS \
                and self.resolve(fn.value) in sources.ENV_MAPPING:
            self._taint("REP103", node, f"os.environ.{fn.attr}")
            return
        if resolved == "builtins.setattr" or (
                isinstance(fn, ast.Name) and fn.id == "setattr"
                and not self._is_local("setattr")):
            if node.args and self.func_stack:
                base = self._state_base(node.args[0])
                if base is not None:
                    self._write("attr-store", f"{base}.*", node,
                                f"setattr({base}, ...)")
            return
        if isinstance(fn, ast.Attribute) and fn.attr in MUTATOR_METHODS \
                and self.func_stack:
            base = self._state_base(fn.value)
            if base is not None:
                self._write("mutate", base, node, f"{base}.{fn.attr}()")
                return
        info.calls.append(CallSite(
            line=node.lineno, col=node.col_offset, callee=resolved,
            display=_display(fn),
        ))


def _display(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, AttributeError):  # pragma: no cover
        return "<call>"


def _arg_names(args: ast.arguments) -> list:
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _target_names(target: ast.AST) -> list:
    """Names *bound* by an assignment/loop target.

    ``x``, ``(a, b)``, ``[a, *rest]`` bind names; ``obj.attr`` and
    ``d[k]`` bind nothing (they mutate an existing object), so their
    base names must not be mistaken for locals.
    """
    out: list = []
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
    return out


def _free_names(node) -> set:
    """Names a closure reads from enclosing scopes (body only)."""
    bound = set(_arg_names(node.args))
    loads: set = set()
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    loads.add(sub.id)
                else:
                    bound.add(sub.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(sub.name)
            elif isinstance(sub, ast.arg):
                bound.add(sub.arg)
    return loads - bound


def build_file_index(path: str, tree: ast.AST,
                     noqa_directives: Optional[dict] = None) -> FileIndex:
    """Index one parsed file; ``noqa_directives`` come from
    :func:`repro.lint.noqa.scan` (line → Directive)."""
    idx = _Indexer(path, tree).build()
    if noqa_directives:
        idx.noqa = {
            line: sorted(d.codes) for line, d in noqa_directives.items()
        }
    return idx
