"""Phase 2 of the whole-program analyzer: the project call graph.

A :class:`ProjectIndex` merges the per-file indexes from
:mod:`repro.lint.index` into one namespace — every function, class,
module-level mutable, and singleton in the project — resolves call
edges (including ``self.``/``cls.`` receivers through the class
hierarchy and method calls on module singletons), and runs the
interprocedural analyses the REP1xx rules consume:

* :meth:`ProjectIndex.taint` — reverse-edge BFS from nondeterminism
  sources (:data:`repro.lint.sources.TAINT_CATEGORIES`), honoring
  sanctioned boundary modules and reasoned ``noqa`` cuts, with a
  shortest propagation chain recorded per tainted function;
* :meth:`ProjectIndex.state_owner` — classifies a state write's target
  as a module-level mutable or a module singleton, across modules.

Everything here is deterministic by construction: iteration is over
sorted qualnames/paths, and BFS discovery order is fixed, so two runs
over the same tree emit byte-identical findings (the analyzer holds
itself to the contract it enforces).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.lint.index import FileIndex
from repro.lint.sources import TAINT_CATEGORIES


def _norm(path: str) -> str:
    return path.replace("\\", "/")


class ProjectIndex:
    """The merged, queryable view of every indexed file."""

    def __init__(self) -> None:
        self.files: dict = {}  #: path -> FileIndex
        self.functions: dict = {}  #: qualname -> FunctionInfo
        self.classes: dict = {}  #: qualname -> ClassInfo
        self.modules: dict = {}  #: module -> path
        #: "module.NAME" -> [line, class dotted name, path]
        self.singletons: dict = {}
        #: "module.NAME" -> [line, path]
        self.mutables: dict = {}
        self._resolved: dict = {}
        self._reverse: Optional[dict] = None
        self._taint_cache: dict = {}

    def add(self, idx: FileIndex) -> None:
        self.files[idx.path] = idx
        self.modules[idx.module] = idx.path
        self.functions.update(idx.functions)
        self.classes.update(idx.classes)
        for name, line in idx.module_mutables.items():
            self.mutables[f"{idx.module}.{name}"] = [line, idx.path]
        for name, (line, cls) in idx.module_singletons.items():
            self.singletons[f"{idx.module}.{name}"] = [line, cls, idx.path]

    # -- name resolution ----------------------------------------------------

    def _mro(self, cls_qual: str):
        """``cls_qual`` and its project bases, breadth first, once each."""
        queue: deque = deque([cls_qual])
        seen: set = set()
        while queue:
            cls = queue.popleft()
            if cls in seen:
                continue
            seen.add(cls)
            yield cls
            info = self.classes.get(cls)
            if info is not None:
                queue.extend(info.bases)

    def method(self, cls_qual: str, meth: str) -> Optional[str]:
        """Resolve ``meth`` against ``cls_qual``'s project MRO (BFS)."""
        for cls in self._mro(cls_qual):
            qual = f"{cls}.{meth}"
            if qual in self.functions:
                return qual
        return None

    def resolve_callee(self, callee: str) -> Optional[str]:
        """Map a call-site callee string to a known function qualname.

        Handles plain functions, class constructors (``C()`` →
        ``C.__init__``), ``self::``/``cls``-receiver markers from the
        indexer, and method calls on module singletons
        (``FIDELITY.set_mode()`` → ``Fidelity.set_mode``). ``None`` means
        the edge leaves the project (stdlib, third-party, dynamic).
        """
        if callee in self._resolved:
            return self._resolved[callee]
        result = self._resolve_uncached(callee)
        self._resolved[callee] = result
        return result

    def _resolve_uncached(self, callee: str) -> Optional[str]:
        if callee.startswith("self::"):
            cls_qual, _, meth = callee[len("self::"):].rpartition(".")
            return self.method(cls_qual, meth)
        if callee in self.functions:
            return callee
        if callee in self.classes:
            return self.method(callee, "__init__")
        prefix, _, meth = callee.rpartition(".")
        if prefix in self.classes:
            return self.method(prefix, meth)
        if prefix in self.singletons:
            return self.method(self.singletons[prefix][1], meth)
        return None

    # -- noqa / boundary plumbing -------------------------------------------

    def noqa_codes(self, path: str, line: int) -> frozenset:
        idx = self.files.get(path)
        if idx is None:
            return frozenset()
        return frozenset(idx.noqa.get(line, ()))

    @staticmethod
    def in_boundary(path: str, suffixes) -> bool:
        p = _norm(path)
        return any(p.endswith(_norm(s)) for s in suffixes)

    # -- interprocedural taint ----------------------------------------------

    def reverse_edges(self) -> dict:
        """callee qualname -> [(caller qualname, CallSite), ...]."""
        if self._reverse is None:
            rev: dict = {}
            for caller in sorted(self.functions):
                fn = self.functions[caller]
                for site in fn.calls:
                    callee = self.resolve_callee(site.callee)
                    if callee is not None:
                        rev.setdefault(callee, []).append((caller, site))
            self._reverse = rev
        return self._reverse

    def taint(self, code: str) -> dict:
        """Tainted functions for one REP1xx category.

        Returns ``{qualname: entry}`` where ``entry`` is either
        ``("source", path, line, label)`` for a function containing an
        unsanctioned direct source, or ``("edge", path, line, display,
        callee_qualname)`` recording the first (shortest) call edge that
        taints it. Sanctions that stop seeding/propagation:

        * the function's file is in the category's boundary tuple;
        * the source line carries a reasoned noqa for the category code
          or its per-file twin (``REP001``/``REP002``) — the suppression
          is a declared boundary, not just a silenced message;
        * a call edge whose line carries such a noqa cuts propagation
          to the caller (the edge itself is still reported, and the
          same noqa suppresses it).
        """
        if code in self._taint_cache:
            return self._taint_cache[code]
        twin, boundaries = TAINT_CATEGORIES[code]
        sanction = frozenset(c for c in (code, twin) if c)
        tainted: dict = {}
        queue: deque = deque()
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            if self.in_boundary(fn.path, boundaries):
                continue
            for line, col, label in sorted(fn.taints.get(code, ())):
                if self.noqa_codes(fn.path, line) & sanction:
                    continue
                tainted[qual] = ("source", fn.path, line, label)
                queue.append(qual)
                break
        rev = self.reverse_edges()
        while queue:
            callee = queue.popleft()
            for caller, site in rev.get(callee, ()):
                if caller in tainted:
                    continue
                fn = self.functions[caller]
                if self.in_boundary(fn.path, boundaries):
                    continue
                if self.noqa_codes(fn.path, site.line) & sanction:
                    continue  # reasoned cut: edge reported, not spread
                tainted[caller] = ("edge", fn.path, site.line, site.display,
                                   callee)
                queue.append(caller)
        self._taint_cache[code] = tainted
        return tainted

    def chain(self, qualname: str, code: str) -> tuple:
        """Propagation chain from ``qualname`` down to the source.

        A tuple of ``(path, line, text)`` steps, ending at the direct
        source; empty when ``qualname`` is not tainted for ``code``.
        """
        tainted = self.taint(code)
        steps: list = []
        cursor: Optional[str] = qualname
        while cursor is not None:
            entry = tainted.get(cursor)
            if entry is None:
                break
            if entry[0] == "source":
                _, path, line, label = entry
                steps.append((path, line, f"{cursor}: source {label}"))
                break
            _, path, line, display, callee = entry
            steps.append((path, line, f"{cursor} calls {display}"))
            cursor = callee
        return tuple(steps)

    # -- shared-state ownership ---------------------------------------------

    def state_owner(self, target: str, idx: FileIndex) -> Optional[tuple]:
        """Classify a write target as project-level shared state.

        ``target`` is a bare module-level name (same-module write) or a
        dotted path (cross-module, via imports). Returns ``(kind, key,
        extra)`` with ``kind`` in ``{"mutable", "singleton"}``, ``key``
        the fully-qualified ``module.NAME``, and ``extra`` the
        singleton's class dotted name (``""`` for mutables); ``None``
        when the target is not recognizable shared state.
        """
        if "." not in target:
            key = f"{idx.module}.{target}"
            if target in idx.module_mutables:
                return ("mutable", key, "")
            if target in idx.module_singletons:
                return ("singleton", key, idx.module_singletons[target][1])
            return None
        parts = target.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module not in self.modules:
                continue
            key = f"{module}.{parts[i]}"
            if key in self.mutables:
                return ("mutable", key, "")
            if key in self.singletons:
                return ("singleton", key, self.singletons[key][1])
            return None
        return None

    def mro_alias(self, cls_qual: str, attr: str) -> Optional[str]:
        """The module-level name ``self.attr`` is bound to, nearest
        first in the MRO, or None."""
        for cls in self._mro(cls_qual):
            info = self.classes.get(cls)
            if info is not None and attr in info.state_aliases:
                return info.state_aliases[attr]
        return None

    def mro_attr(self, cls_qual: str, attr: str, field: str) -> bool:
        """True when ``attr`` is in ``field`` anywhere in the MRO."""
        return any(attr in getattr(self.classes[cls], field)
                   for cls in self._mro(cls_qual) if cls in self.classes)

