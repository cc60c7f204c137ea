"""Whole-program call graph over every parsed :class:`SourceModule`.

PR 8's rules were *intra-module*: each one walked a single file's AST.
The interprocedural analyses (cross-module plan purity, secret taint,
lock discipline) all need the same substrate — who may call whom across
the whole tree — so this module builds it once per lint run:

* every function, method and class is indexed under a dotted *qualname*
  (``repro.core.agent.StegAgent.update_range``) derived from its file
  path;
* call sites resolve through import aliases (``from repro.core.plan
  import fuse`` / ``import repro.core.plan as plan``), through
  ``self.``-method dispatch over a class-hierarchy map (MRO bases plus
  subclass overrides — virtual dispatch is may-call), and through a
  light receiver-type inference (``self.x`` assignments and parameter
  annotations, followed transitively along attribute chains);
* receivers typed as a :class:`typing.Protocol` resolve to every class
  that structurally conforms to the protocol;
* a last-resort *name-unique* fallback links ``obj.method()`` to the
  project methods of that name, except for generic names (``append``,
  ``get``, ``close`` …) where name matching would connect unrelated
  code;
* Tarjan's algorithm condenses the graph into strongly connected
  components, giving the fixpoint analyses a reverse-topological
  order and making reachability queries loop-safe.

The graph is a *may-call* over-approximation where receivers resolve
and an under-approximation where they do not (dynamic callables such as
``request.call()`` produce no edge); each rule documents how it
lives with that.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.lint.cfg import ControlFlowGraph
    from repro.lint.core import SourceModule

#: Attribute names too generic for the name-based fallback: linking
#: ``items.append(...)`` to ``Session.append`` would wire unrelated code
#: together.  Typed receivers still resolve these precisely.
GENERIC_METHOD_NAMES = frozenset(
    {
        "acquire",
        "add",
        "all",
        "any",
        "append",
        "appendleft",
        "astype",
        "clear",
        "close",
        "copy",
        "count",
        "decode",
        "digest",
        "encode",
        "endswith",
        "extend",
        "fill",
        "flush",
        "format",
        "get",
        "hex",
        "hexdigest",
        "index",
        "insert",
        "is_alive",
        "is_set",
        "item",
        "items",
        "join",
        "keys",
        "max",
        "mean",
        "min",
        "notify",
        "notify_all",
        "open",
        "pop",
        "popitem",
        "popleft",
        "put",
        "read",
        "readline",
        "release",
        "remove",
        "replace",
        "reshape",
        "reverse",
        "rotate",
        "seek",
        "set",
        "setdefault",
        "sort",
        "split",
        "start",
        "startswith",
        "strip",
        "sum",
        "tell",
        "tobytes",
        "tolist",
        "update",
        "values",
        "wait",
        "write",
    }
)


def module_name_for(path: str) -> str:
    """Dotted module name a file path denotes (``src/repro/a.py`` → ``repro.a``).

    Fixture trees mirror the real layout (``.../src/repro/...``), so the
    name is taken from the segment after the *last* ``src`` directory;
    without one it starts at the first ``repro`` segment, and failing
    that it is just the file stem.
    """
    parts = list(PurePosixPath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("src") + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<module>"


@dataclass
class CallSite:
    """One ``ast.Call`` inside a function, with its resolution."""

    call: ast.Call
    #: Final attribute / bare name of the callee expression.
    name: str
    #: Dotted receiver text for display (``self.volume`` → ``volume``),
    #: empty for bare-name calls.
    receiver: str
    #: True when the callee expression is an attribute access.
    is_attribute: bool
    #: Resolved targets: ``(function, bound)`` pairs; ``bound`` is True
    #: when the call binds the receiver to the first parameter.
    targets: list[tuple["FunctionNode", bool]] = field(default_factory=list)


@dataclass
class FunctionNode:
    """A function or method plus its outgoing call sites."""

    qualname: str
    display: str  # "Class.method" or "function" — what findings print
    module: "SourceModule"
    cls: "ClassInfo | None"
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[CallSite] = field(default_factory=list)
    #: ``id(ast.Call)`` → call site, so AST-walking analyses can look up
    #: the resolution of the exact node they are visiting.
    call_index: dict[int, CallSite] = field(default_factory=dict)

    def callees(self) -> Iterator["FunctionNode"]:
        for site in self.calls:
            for target, _bound in site.targets:
                yield target


@dataclass
class ClassInfo:
    """One class: bases, methods, inferred attribute types."""

    qualname: str
    name: str
    module: "SourceModule"
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionNode] = field(default_factory=dict)
    #: Attribute name → class qualname, from ``self.x = Type(...)``,
    #: ``self.x = annotated_param`` and ``self.x: Type`` assignments.
    attr_types: dict[str, str] = field(default_factory=dict)
    is_protocol: bool = False


class CallGraph:
    """Project-wide may-call graph with SCC condensation and reachability."""

    def __init__(self, modules: Sequence["SourceModule"]):
        self.modules = list(modules)
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        self._methods_by_name: dict[str, list[FunctionNode]] = {}
        self._module_names: dict[str, str] = {}
        self._mro_cache: dict[str, list[ClassInfo]] = {}
        self._subclasses: dict[str, list[ClassInfo]] = {}
        self._conformers_cache: dict[str, list[ClassInfo]] = {}
        self._collect()
        self._link_hierarchy()
        self._infer_attr_types()
        self._resolve_calls()
        self._sccs: list[list[str]] | None = None
        self._scc_of: dict[str, int] = {}
        self._cfg_cache: dict[str, "ControlFlowGraph"] = {}

    # -- construction ----------------------------------------------------------------

    def _collect(self) -> None:
        for module in self.modules:
            mod_name = module_name_for(module.path)
            self._module_names[module.path] = mod_name
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(module, node, None, mod_name)
                elif isinstance(node, ast.ClassDef):
                    info = ClassInfo(
                        qualname=f"{mod_name}.{node.name}",
                        name=node.name,
                        module=module,
                        node=node,
                    )
                    for base in node.bases:
                        resolved = module.resolve(base)
                        if resolved is None and isinstance(base, ast.Name):
                            resolved = f"{mod_name}.{base.id}"
                        if resolved is not None:
                            info.base_names.append(resolved)
                            if resolved.rsplit(".", 1)[-1] == "Protocol":
                                info.is_protocol = True
                    self.classes[info.qualname] = info
                    self._classes_by_name.setdefault(info.name, []).append(info)
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._add_function(module, item, info, mod_name)

    def _add_function(
        self,
        module: "SourceModule",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
        mod_name: str,
    ) -> None:
        if cls is None:
            qualname = f"{mod_name}.{node.name}"
            display = node.name
        else:
            qualname = f"{cls.qualname}.{node.name}"
            display = f"{cls.name}.{node.name}"
        fn = FunctionNode(
            qualname=qualname, display=display, module=module, cls=cls, name=node.name, node=node
        )
        self.functions[qualname] = fn
        if cls is not None:
            cls.methods[node.name] = fn
            self._methods_by_name.setdefault(node.name, []).append(fn)

    def _link_hierarchy(self) -> None:
        for info in self.classes.values():
            for base_name in info.base_names:
                base = self._class_for_dotted(base_name)
                if base is not None:
                    self._subclasses.setdefault(base.qualname, []).append(info)

    def _class_for_dotted(self, dotted: str) -> ClassInfo | None:
        if dotted in self.classes:
            return self.classes[dotted]
        tail = dotted.rsplit(".", 1)[-1]
        candidates = self._classes_by_name.get(tail, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, info: ClassInfo) -> list[ClassInfo]:
        """Linearised in-project ancestry (BFS; cycles tolerated)."""
        cached = self._mro_cache.get(info.qualname)
        if cached is not None:
            return cached
        order: list[ClassInfo] = []
        seen: set[str] = set()
        frontier = [info]
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            order.append(current)
            for base_name in current.base_names:
                base = self._class_for_dotted(base_name)
                if base is not None:
                    frontier.append(base)
        self._mro_cache[info.qualname] = order
        return order

    def subclasses(self, info: ClassInfo) -> list[ClassInfo]:
        """Transitive subclasses of a class."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        frontier = list(self._subclasses.get(info.qualname, []))
        while frontier:
            current = frontier.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            frontier.extend(self._subclasses.get(current.qualname, []))
        return out

    def conformers(self, protocol: ClassInfo) -> list[ClassInfo]:
        """Classes structurally implementing every method of a protocol."""
        cached = self._conformers_cache.get(protocol.qualname)
        if cached is not None:
            return cached
        wanted = {
            name
            for name, method in protocol.methods.items()
            if not name.startswith("__")
            and not any(
                isinstance(dec, ast.Name) and dec.id == "property"
                for dec in method.node.decorator_list
            )
        }
        out: list[ClassInfo] = []
        for info in self.classes.values():
            if info is protocol or info.is_protocol:
                continue
            provided: set[str] = set()
            for ancestor in self.mro(info):
                provided.update(ancestor.methods)
            if wanted and wanted <= provided:
                out.append(info)
        self._conformers_cache[protocol.qualname] = out
        return out

    def resolve_method(self, info: ClassInfo, name: str) -> list[FunctionNode]:
        """May-targets of ``instance.name()`` for an instance typed ``info``.

        MRO lookup gives the static binding; subclass overrides are
        added because the instance may be of any subtype (virtual
        dispatch); protocols resolve through their conformers.
        """
        targets: list[FunctionNode] = []
        seen: set[str] = set()

        def add(fn: FunctionNode | None) -> None:
            if fn is not None and fn.qualname not in seen:
                seen.add(fn.qualname)
                targets.append(fn)

        bases: list[ClassInfo] = [info]
        if info.is_protocol:
            bases.extend(self.conformers(info))
        for base in bases:
            for ancestor in self.mro(base):
                if name in ancestor.methods:
                    add(ancestor.methods[name])
                    break
            for sub in self.subclasses(base):
                add(sub.methods.get(name))
        return targets

    # -- attribute / local type inference ----------------------------------------------

    def _annotation_class(self, module: "SourceModule", annotation: ast.expr | None) -> str | None:
        """Class qualname an annotation denotes, unwrapping ``X | None``/Optional."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            left = self._annotation_class(module, annotation.left)
            return left if left is not None else self._annotation_class(module, annotation.right)
        if isinstance(annotation, ast.Subscript):
            return self._annotation_class(module, annotation.slice)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
            return self._annotation_class(module, parsed)
        dotted = module.resolve(annotation)
        if dotted is None and isinstance(annotation, ast.Name):
            dotted = annotation.id
        if dotted is None and isinstance(annotation, ast.Attribute):
            dotted = annotation.attr
        if dotted is None:
            return None
        cls = self._class_for_dotted(dotted)
        return cls.qualname if cls is not None else None

    def _infer_attr_types(self) -> None:
        for info in self.classes.values():
            for method in info.methods.values():
                params = self._param_annotations(method)
                for stmt in ast.walk(method.node):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    annotation: ast.expr | None = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        target, value, annotation = stmt.target, stmt.value, stmt.annotation
                    if (
                        not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"
                    ):
                        continue
                    attr = target.attr
                    inferred = self._annotation_class(info.module, annotation)
                    if inferred is None and isinstance(value, ast.Call):
                        dotted = info.module.resolve(value.func)
                        if dotted is None and isinstance(value.func, ast.Name):
                            dotted = value.func.id
                        if dotted is not None:
                            cls = self._class_for_dotted(dotted)
                            inferred = cls.qualname if cls is not None else None
                    if inferred is None and isinstance(value, ast.Name):
                        inferred = params.get(value.id)
                    if inferred is not None and attr not in info.attr_types:
                        info.attr_types[attr] = inferred

    def _param_annotations(self, fn: FunctionNode) -> dict[str, str]:
        params: dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            inferred = self._annotation_class(fn.module, arg.annotation)
            if inferred is not None:
                params[arg.arg] = inferred
        return params

    # -- call resolution ---------------------------------------------------------------

    def _receiver_class(
        self, fn: FunctionNode, expr: ast.expr, locals_: dict[str, str]
    ) -> ClassInfo | None:
        """Class of the object an expression evaluates to, where inferrable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and fn.cls is not None:
                return fn.cls
            dotted = locals_.get(expr.id)
            return self.classes.get(dotted) if dotted is not None else None
        if isinstance(expr, ast.Attribute):
            base = self._receiver_class(fn, expr.value, locals_)
            if base is None:
                return None
            for ancestor in self.mro(base):
                dotted = ancestor.attr_types.get(expr.attr)
                if dotted is not None:
                    return self.classes.get(dotted)
            return None
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id == "super":
                # ``super().m()`` binds within the same hierarchy; using
                # the defining class keeps may-call precision (the exact
                # ancestor is an MRO detail the rules don't need).
                return fn.cls
            dotted = fn.module.resolve(expr.func)
            if dotted is None and isinstance(expr.func, ast.Name):
                dotted = expr.func.id
            if dotted is not None:
                cls = self._class_for_dotted(dotted)
                if cls is not None:
                    return cls
        return None

    def _local_types(self, fn: FunctionNode) -> dict[str, str]:
        locals_: dict[str, str] = dict(self._param_annotations(fn))
        for stmt in ast.walk(fn.node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                name = stmt.targets[0].id
                if isinstance(stmt.value, ast.Call):
                    dotted = fn.module.resolve(stmt.value.func)
                    if dotted is None and isinstance(stmt.value.func, ast.Name):
                        dotted = stmt.value.func.id
                    if dotted is not None:
                        cls = self._class_for_dotted(dotted)
                        if cls is not None:
                            locals_.setdefault(name, cls.qualname)
                elif isinstance(stmt.value, ast.Attribute):
                    # ``agent = self._service.agent`` — follow the typed
                    # attribute chain (ast.walk is pre-order, so chains
                    # through earlier locals usually resolve too).
                    cls = self._receiver_class(fn, stmt.value, locals_)
                    if cls is not None:
                        locals_.setdefault(name, cls.qualname)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                inferred = self._annotation_class(fn.module, stmt.annotation)
                if inferred is not None:
                    locals_.setdefault(stmt.target.id, inferred)
        return locals_

    def _resolve_calls(self) -> None:
        for fn in self.functions.values():
            locals_ = self._local_types(fn)
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                site = self._resolve_one(fn, call, locals_)
                fn.calls.append(site)
                fn.call_index[id(call)] = site

    def _resolve_one(
        self, fn: FunctionNode, call: ast.Call, locals_: dict[str, str]
    ) -> CallSite:
        func = call.func
        if isinstance(func, ast.Name):
            site = CallSite(call=call, name=func.id, receiver="", is_attribute=False)
            dotted = fn.module.resolve(func)
            if dotted is None:
                mod_name = self._module_names[fn.module.path]
                dotted = f"{mod_name}.{func.id}"
            self._add_dotted_targets(site, dotted)
            return site
        if isinstance(func, ast.Attribute):
            site = CallSite(
                call=call,
                name=func.attr,
                receiver=_expr_text(func.value),
                is_attribute=True,
            )
            dotted = fn.module.resolve(func)
            if dotted is not None:
                # Module-qualified call (``plan.fuse()``) or classmethod
                # access through an imported class.
                self._add_dotted_targets(site, dotted)
                if site.targets:
                    return site
            receiver = self._receiver_class(fn, func.value, locals_)
            if receiver is not None:
                for target in self.resolve_method(receiver, func.attr):
                    site.targets.append((target, True))
                return site
            if func.attr not in GENERIC_METHOD_NAMES and not func.attr.startswith("__"):
                for target in self._methods_by_name.get(func.attr, []):
                    site.targets.append((target, True))
            return site
        return CallSite(call=call, name=_expr_text(func), receiver="", is_attribute=False)

    def _add_dotted_targets(self, site: CallSite, dotted: str) -> None:
        fn = self.functions.get(dotted)
        if fn is not None:
            site.targets.append((fn, False))
            return
        cls = self.classes.get(dotted) or self._class_for_dotted(dotted)
        if cls is not None:
            # Constructor call: the body that runs is __init__ (searched
            # through the MRO).
            for ancestor in self.mro(cls):
                init = ancestor.methods.get("__init__")
                if init is not None:
                    site.targets.append((init, False))
                    break
            return
        # ``module.func`` spelled through an ``import module`` alias.
        tail_fn = self.functions.get(dotted)
        if tail_fn is not None:
            site.targets.append((tail_fn, False))

    # -- control-flow graphs -----------------------------------------------------------

    def cfg_of(self, qualname: str) -> "ControlFlowGraph":
        """The (cached) control-flow graph of one function.

        Post-dominators and regions are lazily computed on the returned
        graph; caching here lets the typestate and obliviousness rules
        share one CFG (and its dominator solutions) per function.
        """
        cached = self._cfg_cache.get(qualname)
        if cached is None:
            from repro.lint.cfg import build_cfg

            cached = build_cfg(self.functions[qualname].node)
            self._cfg_cache[qualname] = cached
        return cached

    # -- SCC condensation and reachability --------------------------------------------

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in reverse topological order.

        Callees come before callers, which is the evaluation order the
        fixpoint analyses want: by the time a caller is summarised, its
        (acyclic) callees already are.
        """
        if self._sccs is not None:
            return self._sccs
        index_counter = 0
        stack: list[str] = []
        on_stack: set[str] = set()
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        result: list[list[str]] = []

        for root in self.functions:
            if root in index:
                continue
            # Iterative Tarjan: (node, iterator over callees).
            work: list[tuple[str, Iterator[str]]] = [(root, self._callee_names(root))]
            index[root] = lowlink[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for callee in it:
                    if callee not in index:
                        index[callee] = lowlink[callee] = index_counter
                        index_counter += 1
                        stack.append(callee)
                        on_stack.add(callee)
                        work.append((callee, self._callee_names(callee)))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[node] = min(lowlink[node], index[callee])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(component)
        self._sccs = result
        for position, component in enumerate(result):
            for member in component:
                self._scc_of[member] = position
        return result

    def _callee_names(self, qualname: str) -> Iterator[str]:
        fn = self.functions[qualname]
        for callee in fn.callees():
            yield callee.qualname

    def scc_of(self, qualname: str) -> int:
        """Index of the SCC containing a function (see :meth:`sccs`)."""
        self.sccs()
        return self._scc_of[qualname]

    def reachable(self, seeds: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """Functions reachable from ``seeds``; each maps to a witness chain.

        The chain is the BFS path of *display* names from the seed to
        the function, the text findings print.
        """
        chains: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for seed in seeds:
            fn = self.functions.get(seed)
            if fn is not None and seed not in chains:
                chains[seed] = (fn.display,)
                frontier.append(seed)
        while frontier:
            current = frontier.pop(0)
            chain = chains[current]
            for callee in self.functions[current].callees():
                if callee.qualname not in chains:
                    chains[callee.qualname] = chain + (callee.display,)
                    frontier.append(callee.qualname)
        return chains

    def reverse_reachable(self, targets: Iterable[str]) -> dict[str, tuple[str, ...]]:
        """Functions that may reach ``targets``; each maps to a witness chain.

        The chain runs caller → … → target, i.e. it reads in call
        direction even though the walk goes backwards.
        """
        callers: dict[str, list[FunctionNode]] = {}
        for fn in self.functions.values():
            for callee in fn.callees():
                callers.setdefault(callee.qualname, []).append(fn)
        chains: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for target in targets:
            fn = self.functions.get(target)
            if fn is not None and target not in chains:
                chains[target] = (fn.display,)
                frontier.append(target)
        while frontier:
            current = frontier.pop(0)
            chain = chains[current]
            for caller in callers.get(current, []):
                if caller.qualname not in chains:
                    chains[caller.qualname] = (caller.display,) + chain
                    frontier.append(caller.qualname)
        return chains


def _expr_text(expr: ast.expr) -> str:
    """Compact dotted rendering of a receiver expression for messages."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts or not isinstance(node, ast.expr):
        parts.append("<expr>")
    else:
        return "<expr>"
    return ".".join(reversed(parts))
