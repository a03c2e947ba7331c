"""The reprolint ruleset: determinism and unit-safety checks.

Each rule targets a failure mode that historically corrupts simulation
results *silently* — nothing crashes, the numbers are just wrong, and
the byte-identical-CSV / lane-parity guarantees quietly stop holding:

========  ===========================================================
``D001``  process-global randomness (``random.*``, ``np.random.*``
          module state) outside the seeded-stream registry
``D002``  wall-clock reads (``time.time`` …, ``datetime.now``) outside
          the orchestrator's progress/ETA reporting and the profiling
          module (``obs/profile.py``)
``D003``  iteration over unordered collections (``set`` literals,
          ``set()``/``frozenset()`` calls, ``dict.keys()``, filesystem
          enumeration) in result-affecting packages
``D004``  float ``==``/``!=`` on time-valued expressions (``*_us``,
          ``*_ms``, ``*_s``, ``*_tu`` names)
``D005``  mutable default arguments
``D006``  direct ``hashlib`` use outside ``crypto/primitives.py``
========  ===========================================================

Rules are syntactic: they resolve imported names (``import numpy as
np`` makes ``np.random.seed`` recognisable) but do not infer types, so
a variable *holding* a set cannot be caught — see
``docs/static-analysis.md`` for the limitations and the suppression
policy (``# reprolint: disable=Dxxx``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import ClassVar, Dict, FrozenSet, Iterator, Optional, Tuple

from repro.lint.diagnostics import Diagnostic

#: Result-affecting subpackages: anything whose control flow or output
#: feeds a simulation result, a job key, or a cache key. ``experiments``
#: is included because job payload functions live there; ``analysis``
#: and ``apps`` reduce already-computed traces and are covered by the
#: sweep job-key path instead.
DEFAULT_ORDERED_PACKAGES: FrozenSet[str] = frozenset(
    {
        "clocks",
        "core",
        "crypto",
        "experiments",
        "fastlane",
        "faults",
        "lint",
        "mac",
        "multihop",
        "network",
        "obs",
        "phy",
        "protocols",
        "security",
        "sim",
        "sweep",
    }
)


@dataclass(frozen=True)
class LintConfig:
    """Per-repository policy knobs for the ruleset.

    The defaults encode *this* repository's layout; tests and other
    trees can pass their own instance. Paths are package-relative with
    posix separators, e.g. ``"sim/rng.py"`` (see
    :func:`repro.lint.engine.package_relative`).
    """

    #: Modules allowed to touch global RNG machinery (D001) — the one
    #: place seeded streams are derived.
    rng_allow: FrozenSet[str] = frozenset({"sim/rng.py"})
    #: Modules allowed to read the host clock (D002): progress/ETA
    #: reporting in the sweep orchestrator, plus the profiling module
    #: (``repro.obs.profile``) — the single sanctioned home for section
    #: timers; everything else takes time from the simulation engine.
    wallclock_allow: FrozenSet[str] = frozenset(
        {"sweep/orchestrator.py", "obs/profile.py"}
    )
    #: First path components where unordered iteration (D003) is an
    #: error because it can reorder results.
    ordered_packages: FrozenSet[str] = DEFAULT_ORDERED_PACKAGES
    #: Modules allowed to call hashlib directly (D006): the crypto
    #: primitive layer that owns digest/truncation policy.
    hash_allow: FrozenSet[str] = frozenset({"crypto/primitives.py"})
    #: Identifier suffixes that mark a name as time-valued for D004.
    time_suffixes: Tuple[str, ...] = ("_us", "_ms", "_s", "_tu")
    #: Dotted names of the trace-event bus entry point; calls to these
    #: are what the E-series checks against the event schema (and what
    #: T103 skips — payload unit policy is E204's job).
    emit_funcs: FrozenSet[str] = frozenset(
        {"repro.obs.events.emit", "repro.obs.emit"}
    )
    #: Kernel packages where *any* RNG generator construction is an
    #: R301 finding: kernel code receives streams from the registry /
    #: driver seam, it never mints them. Orchestration layers
    #: (``experiments``, ``analysis``, ``sweep``) may construct
    #: generators — from derived seeds; unseeded construction is
    #: flagged everywhere.
    rng_kernel_packages: FrozenSet[str] = frozenset(
        {
            "clocks",
            "core",
            "crypto",
            "fastlane",
            "faults",
            "mac",
            "multihop",
            "network",
            "phy",
            "protocols",
            "security",
        }
    )
    #: Modules exempt from R301 entirely — the seeded-stream factory.
    rng_construct_allow: FrozenSet[str] = frozenset({"sim/rng.py"})
    #: Glob patterns (against the package-relative path) selecting the
    #: modules held to the RNG-free protocol-driver seam contract
    #: (R302): protocol state must draw via ``ctx.slot_rng`` /
    #: ``ctx.sample_timestamp_errors``, never hold a generator.
    rng_seam_modules: Tuple[str, ...] = ("protocols/multihop_*.py",)
    #: Seam modules exempt from R302 — the seam *definition* itself.
    rng_seam_allow: FrozenSet[str] = frozenset({"protocols/multihop_base.py"})


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    #: Path string exactly as the engine will report it.
    path: str
    #: Package-relative posix path ("sim/rng.py") used by allowlists.
    rel: str
    #: The parsed module.
    tree: ast.AST
    #: Active configuration.
    config: LintConfig
    #: Local name -> dotted module/attribute path, from the file's
    #: imports (``{"np": "numpy", "perf_counter": "time.perf_counter"}``).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: This file's :class:`repro.lint.project.ModuleInfo`, when the
    #: engine built a project model (typed loosely to keep the import
    #: direction rules -> project -> flowrules -> engine acyclic).
    module: Optional[object] = None
    #: The :class:`repro.lint.project.ProjectModel` spanning every file
    #: of the run — what lets T103 resolve cross-module call signatures.
    project: Optional[object] = None

    @property
    def package(self) -> str:
        """First path component of :attr:`rel` ("" for root modules)."""
        return self.rel.split("/", 1)[0] if "/" in self.rel else ""


def build_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to dotted import paths for one module.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from time
    import perf_counter`` yields ``{"perf_counter":
    "time.perf_counter"}``. Relative imports are skipped — they can
    never name stdlib/numpy modules, which is all the rules care about.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def qualify(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to its dotted import path, if any.

    With ``{"np": "numpy"}``, the expression ``np.random.seed``
    resolves to ``"numpy.random.seed"``. Returns None for chains not
    rooted in an imported name (locals, attributes of call results, …).
    """
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = aliases.get(current.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


class Rule:
    """One lint rule: a stable code plus a check over a parsed file.

    Subclasses set :attr:`code`, :attr:`title` and :attr:`rationale`
    (the *why*, surfaced by ``--list-rules`` and the docs) and
    implement :meth:`check`. Pragma and baseline filtering happen in
    the engine, not here.
    """

    code: ClassVar[str] = ""
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield every finding of this rule in ``ctx`` (unfiltered)."""
        raise NotImplementedError

    def _diag(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        diag_line = getattr(node, "lineno", 1)
        diag_col = getattr(node, "col_offset", 0)
        return Diagnostic(ctx.path, diag_line, diag_col, self.code, message)


#: numpy.random attributes that are fine: explicit-seed constructors and
#: generator/bit-generator types — everything that does *not* touch the
#: hidden module-global RandomState.
_NUMPY_RANDOM_OK: FrozenSet[str] = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


class UnseededRandomness(Rule):
    """D001: randomness that does not flow from a seeded stream.

    Flags any use of the stdlib ``random`` module (its functions share
    one hidden process-global state) and numpy module-state calls
    (``np.random.seed/random/randint/…``). Explicitly seeded
    constructions — ``np.random.default_rng(seed)``, ``Generator``,
    ``SeedSequence`` — are fine.
    """

    code = "D001"
    title = "unseeded or process-global randomness"
    rationale = (
        "A draw from shared global state makes every downstream draw depend on "
        "call order and other consumers, so runs stop being reproducible; all "
        "randomness must come from named streams (sim.rng.RngRegistry) or an "
        "explicitly seeded Generator."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag ``random.*`` and numpy module-state randomness uses."""
        if ctx.rel in ctx.config.rng_allow:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            qual = qualify(node, ctx.aliases)
            if qual is None:
                continue
            if qual.startswith("random."):
                yield self._diag(
                    ctx,
                    node,
                    f"use of process-global stdlib randomness '{qual}' — draw from "
                    "a named stream (sim.rng.RngRegistry) or a seeded "
                    "np.random.Generator instead",
                )
            elif qual.startswith("numpy.random."):
                leaf = qual.split(".")[2]
                if leaf not in _NUMPY_RANDOM_OK:
                    yield self._diag(
                        ctx,
                        node,
                        f"numpy module-state randomness '{qual}' — use a seeded "
                        "Generator (sim.rng.RngRegistry or "
                        "np.random.default_rng(seed)) instead",
                    )


#: Fully qualified callables that read the host's clock.
_WALLCLOCK: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRead(Rule):
    """D002: reading the host's clock inside the simulation stack.

    Simulated time comes from the event engine; host time leaking into
    model code makes results depend on machine speed and scheduling.
    Only the allowlisted orchestrator (progress/ETA display) and the
    profiling module (section timers that report, never feed back into
    results) may look at the real clock.
    """

    code = "D002"
    title = "wall-clock read outside orchestration"
    rationale = (
        "Host-clock reads make results a function of machine load and break "
        "run-to-run and worker-count invariance; simulation code must take "
        "time from the engine, never from the host."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag ``time.*``/``datetime.now``-style host-clock reads."""
        if ctx.rel in ctx.config.wallclock_allow:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            qual = qualify(node, ctx.aliases)
            if qual in _WALLCLOCK:
                yield self._diag(
                    ctx,
                    node,
                    f"wall-clock read '{qual}' — simulation code must take time "
                    "from the engine; only orchestrator progress/ETA reporting "
                    "may read the host clock",
                )


def _iteration_targets(tree: ast.AST) -> Iterator[ast.expr]:
    """Yield every expression a ``for`` or comprehension iterates over."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter


_FS_METHODS = frozenset({"glob", "rglob", "iterdir"})
_FS_FUNCS = frozenset({"os.listdir", "os.scandir"})


def describe_unordered(target: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Describe why an iteration target is unordered, or None if it isn't.

    Shared by D003 (unordered iteration) and R303 (RNG draws inside
    unordered iteration), so both agree on what "unordered" means: set
    literals/comprehensions, ``set()``/``frozenset()`` calls,
    ``.keys()``, and filesystem enumeration.
    """
    if isinstance(target, ast.Set):
        return "a set literal"
    if isinstance(target, ast.SetComp):
        return "a set comprehension"
    if isinstance(target, ast.Call):
        func = target.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute):
            if func.attr == "keys":
                return ".keys()"
            if func.attr in _FS_METHODS:
                return f".{func.attr}(...) (filesystem order is platform-dependent)"
        if qualify(func, aliases) in _FS_FUNCS:
            return f"{qualify(func, aliases)}(...) (filesystem order is platform-dependent)"
    return None


class UnorderedIteration(Rule):
    """D003: iterating an unordered collection where order reaches results.

    Flags ``for``/comprehension iteration whose target is a set literal,
    set comprehension, ``set()``/``frozenset()`` call, ``.keys()`` call,
    or a filesystem enumeration (``glob``/``rglob``/``iterdir``/
    ``os.listdir``/``os.scandir``) — all sources whose order can vary
    between runs or platforms. ``sorted(set(...))`` is the fix and is
    not flagged. Purely syntactic: a *variable* holding a set is not
    detectable.
    """

    code = "D003"
    title = "unordered iteration in a result-affecting module"
    rationale = (
        "Set and filesystem iteration order can differ between processes and "
        "platforms, silently reordering beacons, job dispatch or CSV rows and "
        "breaking the byte-identical-output and lane-parity guarantees; "
        "wrap the iterable in sorted(...)."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag unordered iteration targets in scoped packages."""
        if ctx.package not in ctx.config.ordered_packages:
            return
        for target in _iteration_targets(ctx.tree):
            what = describe_unordered(target, ctx.aliases)
            if what is not None:
                yield self._diag(
                    ctx,
                    target,
                    f"iteration over {what} in a result-affecting module — "
                    "wrap the iterable in sorted(...) to pin the order",
                )


class TimeFloatEquality(Rule):
    """D004: ``==``/``!=`` between float time values.

    Simulation times are float microseconds; slewing (eqs. 2–5 of the
    paper) makes exact equality a rounding accident. Flags equality
    comparisons where either operand's name carries a time suffix
    (``*_us``, ``*_ms``, ``*_s``, ``*_tu``) or is a unit-conversion
    call from ``sim.units``.
    """

    code = "D004"
    title = "float equality on time-valued expressions"
    rationale = (
        "After drift and (k, b) slewing two clocks agree only approximately; "
        "exact float equality on *_us/*_s values flips on 1-ulp differences "
        "between lanes, breaking parity — compare with a tolerance "
        "(math.isclose, abs(a-b) <= eps) or quantise to integer ticks."
    )

    _UNIT_FUNCS = frozenset({"us_to_s", "s_to_us"})

    def _time_name(self, node: ast.expr, config: LintConfig) -> Optional[str]:
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            leaf = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if leaf in self._UNIT_FUNCS:
                return f"{leaf}(...)"
            return None
        if name is not None and any(name.endswith(s) for s in config.time_suffixes):
            return name
        return None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag Eq/NotEq comparisons touching time-named operands."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (sides[index], sides[index + 1])
                if any(
                    isinstance(s, ast.Constant) and (s.value is None or isinstance(s.value, str))
                    for s in pair
                ):
                    continue
                named = next(
                    (n for n in (self._time_name(s, ctx.config) for s in pair) if n),
                    None,
                )
                if named is not None:
                    yield self._diag(
                        ctx,
                        node,
                        f"float equality on time-valued expression '{named}' — "
                        "compare with a tolerance (math.isclose, abs(a-b) <= eps) "
                        "or quantise to integer ticks first",
                    )
                    break


class MutableDefaultArg(Rule):
    """D005: mutable default argument values.

    A default is evaluated once at ``def`` time; mutating it leaks
    state across calls — and across *simulations* when the function is
    a runner entry point, which is a determinism bug, not just a style
    one.
    """

    code = "D005"
    title = "mutable default argument"
    rationale = (
        "Defaults are shared across every call; a list/dict/set default that "
        "gets mutated carries state from one run into the next, so replaying "
        "the same seed no longer replays the same results — default to None "
        "and construct inside the function."
    )

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            leaf = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return leaf in self._MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag list/dict/set(-building) default values."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self._diag(
                        ctx,
                        default,
                        f"mutable default argument '{ast.unparse(default)}' — "
                        "default to None and construct inside the function",
                    )


class DirectHashlib(Rule):
    """D006: importing ``hashlib`` outside the crypto primitive layer.

    ``crypto/primitives.py`` owns digest choice and the paper's
    truncation policy (``HASH_BYTES``); ad-hoc hashing elsewhere forks
    that policy and silently weakens or desynchronises it.
    """

    code = "D006"
    title = "direct hashlib use outside crypto/primitives"
    rationale = (
        "Digest algorithm and truncation policy live in repro.crypto.primitives; "
        "a second direct hashlib call site can disagree on either, which breaks "
        "interoperability of authenticated beacons — route hashing through the "
        "primitives (or pragma-justify non-security uses like cache keys)."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Flag ``import hashlib`` / ``from hashlib import …``."""
        if ctx.rel in ctx.config.hash_allow:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                if any(n.name.split(".", 1)[0] == "hashlib" for n in node.names):
                    yield self._diag(
                        ctx,
                        node,
                        "direct hashlib import — route protocol hashing through "
                        "repro.crypto.primitives (pragma-justify non-security "
                        "uses such as cache keys)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if not node.level and node.module == "hashlib":
                    yield self._diag(
                        ctx,
                        node,
                        "direct hashlib import — route protocol hashing through "
                        "repro.crypto.primitives (pragma-justify non-security "
                        "uses such as cache keys)",
                    )


#: The active ruleset, ordered by code.
RULES: Tuple[Rule, ...] = (
    UnseededRandomness(),
    WallClockRead(),
    UnorderedIteration(),
    TimeFloatEquality(),
    MutableDefaultArg(),
    DirectHashlib(),
)

#: Every known code (including D000, the engine's parse-failure code).
ALL_CODES: FrozenSet[str] = frozenset({r.code for r in RULES} | {"D000"})

#: Sanity: codes must be unique and well-formed.
_CODE_RE = re.compile(r"^D\d{3}$")
assert all(_CODE_RE.match(r.code) for r in RULES)
assert len({r.code for r in RULES}) == len(RULES)
