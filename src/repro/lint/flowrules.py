"""The project-wide rule families: timebase flow, trace contract, RNG streams.

Where the D-series checks one file at a time, these rules consume the
:mod:`repro.lint.project` model (and, for the E-series, the runtime's
own event schema) to catch the cross-cutting failure modes:

========  ===========================================================
``T101``  cross-timebase arithmetic: ``+``/``-`` between expressions
          whose inferred unit domains disagree (``t_us + timeout_s``)
``T102``  cross-timebase comparison: any comparison between
          expressions of different unit domains
``T103``  call-argument unit mismatch: an argument whose inferred
          unit disagrees with the parameter's declared unit, resolved
          across module boundaries via the project model
``E201``  unknown or non-literal trace-event name at an ``emit()``
          call site
``E202``  ``emit()`` call missing a required payload field (or a
          required ``t_us``/``node``) for its event kind
``E203``  ``emit()`` call passing fields the event's schema does not
          declare (including ``t_us``/``node`` on events that forbid
          them)
``E204``  trace payload unit violation: a non-microsecond time-suffixed
          payload key, or a value whose inferred unit contradicts the
          key's ``_us`` suffix
``R301``  RNG generator construction outside the seeded-stream
          plumbing: unseeded anywhere, any construction inside kernel
          packages
``R302``  RNG object crossing the protocol-driver seam: multi-hop
          protocol state taking or storing a generator instead of
          drawing through ``ctx.slot_rng``
``R303``  RNG draw inside unordered iteration — draw *order* is part
          of the stream contract, so an unordered loop scrambles every
          draw after it
========  ===========================================================

The E-series loads :mod:`repro.obs.events_schema` **by file location**
(not import), so linting works without numpy on the path and without
executing ``repro.obs``'s package ``__init__`` — while still checking
against the exact schema the runtime validates traces with.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import FunctionSig, ModuleInfo, ProjectModel
from repro.lint.rules import FileContext, Rule, describe_unordered, qualify
from repro.lint.timebase import (
    CALL_PARAM_UNITS,
    call_leaf,
    iter_scoped_nodes,
    unit_of_expr,
    unit_of_identifier,
)

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

_SCHEMAS: Optional[Dict[str, object]] = None
_SCHEMAS_LOADED = False


def load_event_schemas() -> Optional[Dict[str, object]]:
    """The runtime's ``EVENT_SCHEMAS``, loaded by file location (cached).

    Loading by location rather than ``import repro.obs.events_schema``
    keeps the linter runnable on a bare interpreter: executing the
    ``repro.obs`` package ``__init__`` would drag in numpy. Returns
    None when the schema module is missing (linting a foreign tree) —
    the E-series rules then disable themselves rather than guess.
    """
    global _SCHEMAS, _SCHEMAS_LOADED
    if _SCHEMAS_LOADED:
        return _SCHEMAS
    _SCHEMAS_LOADED = True
    schema_path = Path(__file__).resolve().parents[1] / "obs" / "events_schema.py"
    if not schema_path.exists():
        return None
    spec = importlib.util.spec_from_file_location(
        "_reprolint_events_schema", schema_path
    )
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    # The dataclass machinery resolves the class's module through
    # sys.modules, so the module must be registered before executing.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    _SCHEMAS = dict(module.EVENT_SCHEMAS)
    return _SCHEMAS


def _is_emit_call(node: ast.Call, ctx: FileContext) -> bool:
    qual = qualify(node.func, ctx.aliases)
    return qual is not None and qual in ctx.config.emit_funcs


def _project_of(ctx: FileContext) -> Optional[ProjectModel]:
    project = ctx.project
    return project if isinstance(project, ProjectModel) else None


def _module_of(ctx: FileContext) -> Optional[ModuleInfo]:
    module = ctx.module
    return module if isinstance(module, ModuleInfo) else None


class _EmitCall:
    """One decoded ``emit()`` call site."""

    def __init__(self, node: ast.Call, env: Dict[str, str]) -> None:
        self.node = node
        self.env = env
        args = node.args
        self.event_node: Optional[ast.expr] = args[0] if args else None
        self.extra_positional: List[ast.expr] = list(args[3:])
        self.has_star_kwargs = any(kw.arg is None for kw in node.keywords)
        self.keywords: Dict[str, ast.expr] = {
            kw.arg: kw.value for kw in node.keywords if kw.arg is not None
        }
        # Positional slots 1/2 are emit()'s t_us/node parameters.
        for slot, name in ((1, "t_us"), (2, "node")):
            if len(args) > slot and name not in self.keywords:
                self.keywords[name] = args[slot]
        if self.event_node is None and "event" in self.keywords:
            self.event_node = self.keywords.pop("event")

    @property
    def event_name(self) -> Optional[str]:
        node = self.event_node
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def provides(self, name: str) -> bool:
        """Whether the call passes ``name`` with a non-None value."""
        value = self.keywords.get(name)
        if value is None:
            return False
        return not (isinstance(value, ast.Constant) and value.value is None)

    def payload_keys(self) -> Set[str]:
        return set(self.keywords) - {"t_us", "node"}


def _iter_emit_calls(ctx: FileContext) -> Iterator[_EmitCall]:
    for env, node in iter_scoped_nodes(ctx.tree):
        if isinstance(node, ast.Call) and _is_emit_call(node, ctx):
            yield _EmitCall(node, env)


# ---------------------------------------------------------------------------
# T-series: timebase flow
# ---------------------------------------------------------------------------


class CrossTimebaseArithmetic(Rule):
    """T101: ``+``/``-`` between expressions of different unit domains.

    ``t_us + timeout_s`` type-checks, runs, and silently produces a
    number six orders of magnitude off — precisely the bug class the
    paper's microsecond error bounds cannot survive. Conversion goes
    through ``sim.units`` / ``ClockChain``; raw arithmetic across
    domains is always wrong.
    """

    code = "T101"
    title = "cross-timebase arithmetic"
    rationale = (
        "Adding or subtracting values from different time domains (us/ms/s/tu) "
        "produces a silently wrong number — convert through sim.units or the "
        "ClockChain surface first; a genuinely unitless intermediate should "
        "not carry a unit suffix."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag Add/Sub (and augmented +=/-=) across unit domains."""
        for env, node in iter_scoped_nodes(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                pair = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                pair = (node.target, node.value)
            else:
                continue
            left = unit_of_expr(pair[0], env)
            right = unit_of_expr(pair[1], env)
            if left is not None and right is not None and left != right:
                yield self._diag(
                    ctx,
                    node,
                    f"arithmetic across time domains ('{left}' vs '{right}') — "
                    "convert through sim.units/ClockChain before combining",
                )


class CrossTimebaseComparison(Rule):
    """T102: comparing expressions of different unit domains.

    A guard like ``if delay_us > timeout_s:`` is effectively always (or
    never) true; unlike T101 the result is not even a number, so the
    bug hides inside control flow.
    """

    code = "T102"
    title = "cross-timebase comparison"
    rationale = (
        "Comparing values from different time domains makes the branch "
        "condition meaningless (a us value dwarfs any s value); convert both "
        "sides to one domain before comparing."
    )

    _OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag comparisons whose adjacent operands' units disagree."""
        for env, node in iter_scoped_nodes(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, self._OPS):
                    continue
                left = unit_of_expr(sides[index], env)
                right = unit_of_expr(sides[index + 1], env)
                if left is not None and right is not None and left != right:
                    yield self._diag(
                        ctx,
                        node,
                        f"comparison across time domains ('{left}' vs "
                        f"'{right}') — convert both sides to one domain first",
                    )
                    break


class CallArgumentUnitMismatch(Rule):
    """T103: argument unit disagrees with the parameter's unit.

    Resolves the callee through the project model — its own module, an
    imported module, or a package re-export — and checks every
    positional and keyword argument whose unit *and* whose parameter's
    unit are both known. Also checks the ``sim.units`` converters by
    name (``us_to_s(period_s)``) even when the callee is outside the
    linted path set, and any keyword whose name carries a unit suffix.
    ``emit()`` payloads are excluded — their unit policy is E204's.
    """

    code = "T103"
    title = "call argument in the wrong time domain"
    rationale = (
        "A microsecond value passed where the callee declares seconds (by "
        "suffix or Annotated unit) corrupts the result at the module "
        "boundary, where review is least likely to catch it; convert at the "
        "call site or rename the carrier to its true domain."
    )

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        env: Dict[str, str],
        sig: Optional[FunctionSig],
    ) -> Iterator[Diagnostic]:
        # Keyword-name suffix vs value unit: checkable on any call.
        for kw in call.keywords:
            if kw.arg is None:
                continue
            want = unit_of_identifier(kw.arg)
            got = unit_of_expr(kw.value, env)
            if want is not None and got is not None and want != got:
                yield self._diag(
                    ctx,
                    kw.value,
                    f"keyword '{kw.arg}' declares domain '{want}' but the "
                    f"argument is in '{got}'",
                )
        if sig is not None:
            for pos, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred) or pos >= len(sig.params):
                    break
                param = sig.params[pos]
                got = unit_of_expr(arg, env)
                if param.unit is not None and got is not None and param.unit != got:
                    yield self._diag(
                        ctx,
                        arg,
                        f"argument {pos + 1} of {sig.qualname}() is in "
                        f"'{got}' but parameter '{param.name}' declares "
                        f"'{param.unit}'",
                    )
            for kw in call.keywords:
                if kw.arg is None:
                    continue
                param = sig.param_named(kw.arg)
                if param is None:
                    continue
                # Suffix-derived keyword units were checked above; only
                # an Annotated override adds information here.
                if param.unit is None or param.unit == unit_of_identifier(kw.arg):
                    continue
                got = unit_of_expr(kw.value, env)
                if got is not None and got != param.unit:
                    yield self._diag(
                        ctx,
                        kw.value,
                        f"keyword '{kw.arg}' of {sig.qualname}() declares "
                        f"domain '{param.unit}' but the argument is in "
                        f"'{got}'",
                    )
        else:
            leaf = call_leaf(call)
            expected = CALL_PARAM_UNITS.get(leaf or "")
            if expected:
                for pos, arg in enumerate(call.args[: len(expected)]):
                    want = expected[pos]
                    got = unit_of_expr(arg, env)
                    if want is not None and got is not None and want != got:
                        yield self._diag(
                            ctx,
                            arg,
                            f"argument {pos + 1} of {leaf}() must be in "
                            f"'{want}' but the expression is in '{got}'",
                        )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag unit conflicts at resolvable (and converter) call sites."""
        project = _project_of(ctx)
        module = _module_of(ctx)
        for env, node in iter_scoped_nodes(ctx.tree):
            if not isinstance(node, ast.Call) or _is_emit_call(node, ctx):
                continue
            sig = None
            if project is not None and module is not None:
                sig = project.resolve_call(node, module)
            yield from self._check_call(ctx, node, env, sig)


# ---------------------------------------------------------------------------
# E-series: trace contract
# ---------------------------------------------------------------------------


class UnknownTraceEvent(Rule):
    """E201: ``emit()`` with an unknown or non-literal event name.

    The event inventory is :data:`repro.obs.events_schema.EVENT_SCHEMAS`
    — the same mapping the runtime derives its catalog from and
    validates traces against. An unknown name here would produce
    records ``read_events(validate=True)`` rejects; a non-literal name
    cannot be checked at all, which the trace contract forbids.
    """

    code = "E201"
    title = "unknown trace-event name at emit() call site"
    rationale = (
        "Every emit() must name an event declared in "
        "repro.obs.events_schema.EVENT_SCHEMAS (as a string literal, so the "
        "contract is statically checkable); an undeclared name produces "
        "trace records downstream validators and the docs catalog know "
        "nothing about."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag emit() calls whose event name is missing/dynamic/unknown."""
        schemas = load_event_schemas()
        if schemas is None:
            return
        for call in _iter_emit_calls(ctx):
            if call.event_node is None:
                yield self._diag(ctx, call.node, "emit() call without an event name")
            elif call.event_name is None:
                yield self._diag(
                    ctx,
                    call.event_node,
                    "emit() event name must be a string literal so the trace "
                    "contract is statically checkable",
                )
            elif call.event_name not in schemas:
                yield self._diag(
                    ctx,
                    call.event_node,
                    f"unknown trace event '{call.event_name}' — declare it in "
                    "repro.obs.events_schema.EVENT_SCHEMAS first",
                )


class MissingTracePayload(Rule):
    """E202: ``emit()`` missing required fields for its event kind.

    A record missing a required payload key (or a required ``t_us`` /
    ``node``) fails strict validation and breaks every consumer that
    indexes on that key. Calls forwarding ``**payload`` are skipped —
    the static view cannot see through the dict.
    """

    code = "E202"
    title = "emit() call missing required trace fields"
    rationale = (
        "The event schema declares which payload keys (and which of "
        "t_us/node) every record of a kind must carry; a call site that "
        "omits one writes records read_events(validate=True) rejects and "
        "analysis code crashes on."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag emit() calls omitting schema-required fields."""
        schemas = load_event_schemas()
        if schemas is None:
            return
        for call in _iter_emit_calls(ctx):
            spec = schemas.get(call.event_name or "")
            if spec is None or call.has_star_kwargs:
                continue
            missing = [
                key for key in spec.required if key not in call.payload_keys()
            ]
            for envelope in ("t_us", "node"):
                if getattr(spec, envelope) == "required" and not call.provides(
                    envelope
                ):
                    missing.insert(0, envelope)
            if missing:
                yield self._diag(
                    ctx,
                    call.node,
                    f"emit('{call.event_name}') missing required field(s) "
                    f"{', '.join(sorted(missing))}",
                )


class UndeclaredTracePayload(Rule):
    """E203: ``emit()`` passing fields the event schema does not declare.

    Extra keys would make the written record fail strict validation;
    the schema (not the call site) is where a new field gets added, so
    the docs catalog, validator and linter move together.
    """

    code = "E203"
    title = "emit() call with undeclared trace fields"
    rationale = (
        "Payload keys not declared (required or optional) for the event — "
        "including t_us/node on events whose schema forbids them — produce "
        "records strict validation rejects; declare the field in "
        "EVENT_SCHEMAS or drop it."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag schema-undeclared payload keys and forbidden envelope use."""
        schemas = load_event_schemas()
        if schemas is None:
            return
        for call in _iter_emit_calls(ctx):
            spec = schemas.get(call.event_name or "")
            if spec is None:
                continue
            declared = set(spec.required) | set(spec.optional)
            for key in sorted(call.payload_keys() - declared):
                yield self._diag(
                    ctx,
                    call.keywords[key],
                    f"emit('{call.event_name}') passes undeclared field "
                    f"'{key}' — declare it in EVENT_SCHEMAS or drop it",
                )
            for envelope in ("t_us", "node"):
                if getattr(spec, envelope) == "absent" and call.provides(envelope):
                    yield self._diag(
                        ctx,
                        call.keywords[envelope],
                        f"emit('{call.event_name}') passes '{envelope}' but "
                        "the event's schema declares it absent",
                    )
            for extra in call.extra_positional:
                yield self._diag(
                    ctx,
                    extra,
                    "emit() takes at most event, t_us, node positionally — "
                    "payload fields must be keywords",
                )


class TracePayloadUnitViolation(Rule):
    """E204: trace payload values that contradict the µs-only unit policy.

    The trace schema has a single time domain — every time-valued
    payload field is microseconds, suffix ``_us`` (enforced on the
    schema itself by an import-time assertion). This rule holds the
    *call sites* to it: no ``_ms``/``_s``/``_tu``-suffixed keys, and no
    value whose inferred domain contradicts a ``_us`` key (including
    ``t_us`` itself).
    """

    code = "E204"
    title = "trace payload unit violation"
    rationale = (
        "Trace records carry exactly one time domain (microseconds, suffix "
        "_us) so consumers never guess units; a key in another domain or a "
        "non-us value bound to a _us key silently corrupts every downstream "
        "analysis — convert at the call site."
    )

    _BAD_SUFFIXES = ("ms", "s", "tu")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag non-µs keys and unit-contradicting values in emit() calls."""
        for call in _iter_emit_calls(ctx):
            for key, value in sorted(call.keywords.items()):
                unit = unit_of_identifier(key)
                if unit in self._BAD_SUFFIXES:
                    yield self._diag(
                        ctx,
                        value,
                        f"trace payload key '{key}' is in domain '{unit}' — "
                        "trace records are microseconds-only; convert and "
                        "rename to *_us",
                    )
                elif unit == "us":
                    got = unit_of_expr(value, call.env)
                    if got is not None and got != "us":
                        yield self._diag(
                            ctx,
                            value,
                            f"trace payload key '{key}' is microseconds but "
                            f"the value is in '{got}' — convert before "
                            "emitting",
                        )


# ---------------------------------------------------------------------------
# R-series: RNG streams
# ---------------------------------------------------------------------------

#: Generator constructions R301 polices. ``random.Random`` and
#: ``numpy.random.RandomState`` are already D001 findings; these two
#: are the *sanctioned* constructors whose placement still matters.
_RNG_CONSTRUCTORS = frozenset({"numpy.random.default_rng", "numpy.random.Generator"})

#: Method names that advance a generator's stream.
_DRAW_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "exponential",
        "gauss",
        "integers",
        "normal",
        "permutation",
        "poisson",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)


def _rng_named(name: str) -> bool:
    """Whether an identifier names an RNG by this repo's conventions."""
    return name in ("rng", "_rng", "generator") or name.endswith("_rng")


class StrayRngConstruction(Rule):
    """R301: generator construction outside the seeded-stream plumbing.

    Every stream must descend from the root seed through ``derive_seed``
    / ``RngRegistry``. Unseeded construction (OS entropy) is flagged
    everywhere; *any* construction inside kernel packages is flagged —
    kernel code receives its streams from the registry or the driver
    seam, it never mints them.
    """

    code = "R301"
    title = "RNG construction outside the seeded-stream plumbing"
    rationale = (
        "default_rng() with no seed draws OS entropy and is unreproducible "
        "by construction; and even a seeded generator minted inside kernel "
        "code bypasses the derive_seed/RngRegistry stream naming that keeps "
        "draws independent of worker count and call order — take streams "
        "from the registry (or, in multi-hop protocols, from ctx.slot_rng)."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag unseeded (anywhere) and kernel-package constructions."""
        if ctx.rel in ctx.config.rng_construct_allow:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualify(node.func, ctx.aliases)
            if qual not in _RNG_CONSTRUCTORS:
                continue
            leaf = qual.rsplit(".", 1)[1]
            if not node.args and not node.keywords:
                yield self._diag(
                    ctx,
                    node,
                    f"unseeded {leaf}() draws OS entropy — derive the seed "
                    "via sim.rng.derive_seed and pass it explicitly",
                )
            elif ctx.package in ctx.config.rng_kernel_packages:
                yield self._diag(
                    ctx,
                    node,
                    f"{leaf}() constructed inside kernel package "
                    f"'{ctx.package}' — kernel code takes named streams from "
                    "sim.rng.RngRegistry (or ctx.slot_rng at the multi-hop "
                    "seam), it never constructs generators",
                )


class RngAcrossSeam(Rule):
    """R302: an RNG object crossing the protocol-driver seam.

    The multi-hop seam contract is that protocol state is RNG-free: all
    stochastic inputs arrive through ``MultiHopContext.slot_rng`` and
    ``MultiHopContext.sample_timestamp_errors``, keyed by (period, slot,
    node), so per-node draw streams are independent of protocol
    implementation and beacon arrival order. A protocol that
    accepts or stores a generator re-couples its draws to call order.
    """

    code = "R302"
    title = "RNG object crossing the protocol-driver seam"
    rationale = (
        "Multi-hop protocol state holding its own generator couples draw "
        "streams to message-processing order, breaking cross-protocol parity "
        "of environment noise; draw through ctx.slot_rng / "
        "ctx.sample_timestamp_errors instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag rng-named params and attribute stores in seam modules."""
        if ctx.rel in ctx.config.rng_seam_allow:
            return
        if not any(fnmatch(ctx.rel, pat) for pat in ctx.config.rng_seam_modules):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                every = (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                )
                for arg in every:
                    if arg.arg not in ("self", "cls") and _rng_named(arg.arg):
                        yield self._diag(
                            ctx,
                            arg,
                            f"parameter '{arg.arg}' passes an RNG across the "
                            "protocol-driver seam — draw through ctx.slot_rng "
                            "/ ctx.sample_timestamp_errors instead",
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and _rng_named(
                        target.attr
                    ):
                        yield self._diag(
                            ctx,
                            target,
                            f"protocol state stores an RNG ('{target.attr}') "
                            "— the multi-hop seam contract keeps protocol "
                            "objects RNG-free",
                        )


class RngDrawInUnorderedIteration(Rule):
    """R303: advancing an RNG stream inside unordered iteration.

    Draw *order* is part of the stream contract: two runs that visit a
    set in different orders assign different variates to the same
    logical entity, even with identical seeds. Shares D003's definition
    of "unordered"; fires on the draw itself so the finding points at
    the stream being scrambled, not just the loop.
    """

    code = "R303"
    title = "RNG draw inside unordered iteration"
    rationale = (
        "A seeded stream only reproduces if draws happen in a fixed order; "
        "drawing inside iteration over a set/dict-keys/filesystem listing "
        "binds variates to entities in platform-dependent order — sort the "
        "iterable (which also clears D003) before drawing."
    )

    def _draw_calls(self, root: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in _DRAW_METHODS:
                continue
            owner = func.value
            name = None
            if isinstance(owner, ast.Name):
                name = owner.id
            elif isinstance(owner, ast.Attribute):
                name = owner.attr
            if name is not None and _rng_named(name):
                yield node

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag rng draw calls under unordered for/comprehension targets."""
        if ctx.package not in ctx.config.ordered_packages:
            return
        for node in ast.walk(ctx.tree):
            scopes: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if describe_unordered(node.iter, ctx.aliases) is not None:
                    scopes = list(node.body) + list(node.orelse)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if any(
                    describe_unordered(gen.iter, ctx.aliases) is not None
                    for gen in node.generators
                ):
                    scopes = [node]
            for scope in scopes:
                for call in self._draw_calls(scope):
                    yield self._diag(
                        ctx,
                        call,
                        "RNG draw inside unordered iteration — the stream's "
                        "draw order becomes platform-dependent; sort the "
                        "iterable before drawing",
                    )


#: The project-wide rule families, ordered by code.
FLOW_RULES: Tuple[Rule, ...] = (
    CrossTimebaseArithmetic(),
    CrossTimebaseComparison(),
    CallArgumentUnitMismatch(),
    UnknownTraceEvent(),
    MissingTracePayload(),
    UndeclaredTracePayload(),
    TracePayloadUnitViolation(),
    StrayRngConstruction(),
    RngAcrossSeam(),
    RngDrawInUnorderedIteration(),
)

#: Sanity: codes must be unique and family-prefixed.
_CODE_RE = re.compile(r"^[TER]\d{3}$")
assert all(_CODE_RE.match(r.code) for r in FLOW_RULES)
assert len({r.code for r in FLOW_RULES}) == len(FLOW_RULES)
