"""Unit-domain inference for the timebase-flow (T-series) rules.

SSTSP mixes three time representations on purpose — TU-granular TSF
timestamps, microsecond offsets and clock readings, second-valued
scenario knobs — and its error bounds only hold when values cross
between them through the declared conversions (``sim.units``,
``ClockChain``), never by raw arithmetic. This module infers a *unit
domain* for an expression so the T-series rules can flag raw crossings:

* identifier suffixes: ``*_us`` -> ``us``, ``*_ms`` -> ``ms``,
  ``*_s`` -> ``s``, ``*_tu`` -> ``tu`` (the repo-wide naming convention
  the existing D004 rule already leans on);
* explicit annotations: ``Annotated[float, "us"]`` on a parameter;
* conversion calls: ``us_to_s(...)`` is seconds, ``s_to_us(...)`` is
  microseconds, and the :class:`~repro.clocks.chain.ClockChain` /
  :func:`~repro.clocks.chain.invert_affine_fixed_point` surface always
  returns microseconds.

Inference is deliberately conservative — multiplication and division
erase the domain (``duration_s * 1e6`` is a legitimate manual rescale,
and dimensional analysis is out of scope), so only expressions whose
unit is *known on both sides* can ever be flagged. A variable that
merely *holds* a time value under a unitless name is invisible, exactly
like D003's variable-holding-a-set blind spot; see
``docs/static-analysis.md`` for the full limitation list.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

#: Recognised unit domains, by identifier suffix.
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_us", "us"),
    ("_ms", "ms"),
    ("_tu", "tu"),
    ("_s", "s"),
)

#: The explicit-annotation spellings accepted inside ``Annotated[...]``.
KNOWN_UNITS = frozenset({"us", "ms", "s", "tu"})

#: Call leaves with a known return domain: the ``sim.units`` converters
#: plus the ClockChain / fixed-point-inversion surface (every clock in
#: the simulator reads in microseconds).
CALL_RETURN_UNITS: Dict[str, str] = {
    "us_to_s": "s",
    "s_to_us": "us",
    "hw_at": "us",
    "adjusted_at": "us",
    "true_at_hw": "us",
    "true_at_adjusted": "us",
    "true_time_at": "us",
    "read_current": "us",
    "synchronized_time": "us",
    "scheduled_true_time": "us",
    "sample_timestamp_error": "us",
    "sample_timestamp_errors": "us",
    "invert_affine_fixed_point": "us",
}

#: Call leaves with known per-parameter units, checkable even when the
#: callee's module is outside the linted path set (``sim.units`` is the
#: canonical conversion seam).
CALL_PARAM_UNITS: Dict[str, Tuple[Optional[str], ...]] = {
    "us_to_s": ("us",),
    "s_to_us": ("s",),
}

#: Numeric built-ins that pass their argument's domain through.
_TRANSPARENT_CALLS = frozenset({"float", "abs", "round", "min", "max"})


def unit_of_identifier(name: str) -> Optional[str]:
    """The unit domain a bare identifier's suffix declares, if any."""
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix) and name != suffix:
            return unit
    return None


def unit_of_annotation(annotation: Optional[ast.expr]) -> Optional[str]:
    """The unit an ``Annotated[<type>, "<unit>"]`` annotation declares."""
    if not isinstance(annotation, ast.Subscript):
        return None
    base = annotation.value
    leaf = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
    if leaf != "Annotated":
        return None
    inner = annotation.slice
    elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
    for element in elements:
        if isinstance(element, ast.Constant) and element.value in KNOWN_UNITS:
            return str(element.value)
    return None


def annotated_param_units(
    func: ast.AST,
) -> Dict[str, str]:
    """Parameter name -> unit for one function's explicit annotations."""
    units: Dict[str, str] = {}
    args = getattr(func, "args", None)
    if args is None:
        return units
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        unit = unit_of_annotation(arg.annotation)
        if unit is not None:
            units[arg.arg] = unit
    return units


def call_leaf(node: ast.Call) -> Optional[str]:
    """The rightmost name of a call's callee (``chain.hw_at`` -> ``hw_at``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unit_of_expr(
    node: ast.expr, env: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """Infer the unit domain of an expression; None when unknown.

    ``env`` maps in-scope names to explicitly annotated units (see
    :func:`annotated_param_units`); identifier suffixes apply either
    way. An Add/Sub whose operands *conflict* infers to None — the
    T101 rule reports the conflict at that node, and refusing to pick
    a side keeps enclosing expressions from double-reporting.
    """
    if isinstance(node, ast.Name):
        if env and node.id in env:
            return env[node.id]
        return unit_of_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_identifier(node.attr)
    if isinstance(node, ast.Call):
        leaf = call_leaf(node)
        if leaf is None:
            return None
        if leaf in CALL_RETURN_UNITS:
            return CALL_RETURN_UNITS[leaf]
        if leaf in _TRANSPARENT_CALLS:
            units = {unit_of_expr(a, env) for a in node.args}
            units.discard(None)
            return units.pop() if len(units) == 1 else None
        return unit_of_identifier(leaf)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = unit_of_expr(node.left, env)
        right = unit_of_expr(node.right, env)
        if left is not None and right is not None:
            return left if left == right else None
        return left if left is not None else right
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return unit_of_expr(node.operand, env)
    if isinstance(node, ast.IfExp):
        body = unit_of_expr(node.body, env)
        orelse = unit_of_expr(node.orelse, env)
        return body if body == orelse else None
    return None


def iter_scoped_nodes(
    tree: ast.AST,
) -> Iterator[Tuple[Dict[str, str], ast.AST]]:
    """Yield every node with the annotated-unit environment of its scope.

    Environments nest lexically: a nested function sees its enclosing
    function's annotated parameters unless it shadows them.
    """

    def visit(
        node: ast.AST, env: Dict[str, str]
    ) -> Iterator[Tuple[Dict[str, str], ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                child_env = dict(env)
                child_env.update(annotated_param_units(child))
                yield child_env, child
                yield from visit(child, child_env)
            else:
                yield env, child
                yield from visit(child, env)

    yield from visit(tree, {})
