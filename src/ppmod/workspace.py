"""Plain-text workspaces binding names to the objects the CLI works on.

A workspace file is a sequence of ``[kind name]`` sections with
``key = value`` lines, one object per section.  Supported kinds are
``algebra``, ``module``, ``formula``, ``context``, and ``budget``.
Bracketed values are Python-style nested integer lists and may span
lines; formula bodies use a small term grammar that matches
:meth:`ppmod.formulas.PpFormula.render`, so rendering and parsing are
mutually inverse.  Serialisation is canonical: fixed section order,
names sorted, one normalised body per formula.  Example::

    version = 1

    [algebra R2]
    field = 2
    labels = 1, t
    unit = [1, 0]
    constants = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]

    [module RR]
    algebra = R2
    side = right
    dim = 2
    actions = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]

    [formula xt0]
    algebra = R2
    side = right
    arity = 1
    body = x1*t = 0
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np

from .algebras import Algebra, make_algebra
from .construct import Budget
from .defcat import DefinableContext, make_context
from .errors import ParseError, PpmodError, UnknownReference, ValidationFailure
from .fields import ELEM, Field
from .formulas import PpFormula, pp_formula
from .memo import memo
from .modules import LEFT, RIGHT, ModuleRep, make_module

_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")
_SECTION_RE = re.compile(r"^\[(\w+)\s+([A-Za-z_]\w*)\]$")
_VAR_RE = re.compile(r"^(x|y)(\d+)$")
_PREFIX_RE = re.compile(r"^E\s+((?:y\d+\s+)*y\d+)\s*\.\s*(.*)$")

_KIND_KEYS = {
    "algebra": ("field", "labels", "unit", "constants"),
    "module": ("algebra", "side", "dim", "actions"),
    "formula": ("algebra", "side", "arity", "body"),
    "context": ("modules", "pairs"),
    "budget": ("bound_vars", "equations", "candidates", "stages"),
}
_KIND_ORDER = ("algebra", "module", "formula", "context", "budget")


@memo(lambda q: q)
def field_from_order(q: int) -> Field:
    """The finite field of order q, for 2 <= q <= 256 (orders are cached)."""
    if q > 256:
        raise ValidationFailure(f"field order {q} exceeds the table limit 256")
    p = 2
    while p <= q:
        if q % p == 0:
            break
        p += 1
    d = 0
    n = q
    while n % p == 0 and n > 1:
        n //= p
        d += 1
    if n != 1 or d == 0:
        raise ValidationFailure(f"{q} is not a prime power")
    return Field(p, d)


class Workspace:
    """Named algebras, modules, formulas, contexts, and budgets."""

    def __init__(self):
        self.algebras: dict[str, Algebra] = {}
        self.modules: dict[str, ModuleRep] = {}
        self.formulas: dict[str, PpFormula] = {}
        self.contexts: dict[str, DefinableContext] = {}
        self.budgets: dict[str, Budget] = {}
        self.module_algebra: dict[str, str] = {}
        self.formula_algebra: dict[str, str] = {}
        self.context_refs: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {}

    # -- named additions ------------------------------------------------

    def _check_name(self, name: str, table: dict) -> None:
        if not _NAME_RE.match(name):
            raise ValidationFailure(f"{name!r} is not a valid workspace name")
        if name in table:
            raise ValidationFailure(f"duplicate name {name!r}")

    def add_algebra(self, name: str, algebra: Algebra) -> None:
        self._check_name(name, self.algebras)
        self.algebras[name] = algebra

    def add_module(self, name: str, algebra_name: str, module: ModuleRep) -> None:
        self._check_name(name, self.modules)
        alg = self.algebra(algebra_name)
        if module.algebra.fingerprint() != alg.fingerprint():
            raise ValidationFailure(
                f"module {name!r} is not over algebra {algebra_name!r}"
            )
        self.modules[name] = module
        self.module_algebra[name] = algebra_name

    def add_formula(self, name: str, algebra_name: str, formula: PpFormula) -> None:
        self._check_name(name, self.formulas)
        alg = self.algebra(algebra_name)
        if formula.algebra.fingerprint() != alg.fingerprint():
            raise ValidationFailure(
                f"formula {name!r} is not over algebra {algebra_name!r}"
            )
        self.formulas[name] = formula
        self.formula_algebra[name] = algebra_name

    def add_context(
        self,
        name: str,
        module_names: list[str] | tuple[str, ...],
        pair_names: list[tuple[str, str]] | tuple[tuple[str, str], ...] = (),
    ) -> DefinableContext:
        self._check_name(name, self.contexts)
        generators = [self.module(n) for n in module_names]
        pairs = [(self.formula(a), self.formula(b)) for a, b in pair_names]
        ctx = make_context(generators, pairs)
        self.contexts[name] = ctx
        self.context_refs[name] = (
            tuple(module_names),
            tuple((a, b) for a, b in pair_names),
        )
        return ctx

    def add_budget(self, name: str, budget: Budget) -> None:
        self._check_name(name, self.budgets)
        self.budgets[name] = budget

    # -- lookups ---------------------------------------------------------

    def algebra(self, name: str) -> Algebra:
        if name not in self.algebras:
            raise UnknownReference(f"no algebra named {name!r}")
        return self.algebras[name]

    def module(self, name: str) -> ModuleRep:
        if name not in self.modules:
            raise UnknownReference(f"no module named {name!r}")
        return self.modules[name]

    def formula(self, name: str) -> PpFormula:
        if name not in self.formulas:
            raise UnknownReference(f"no formula named {name!r}")
        return self.formulas[name]

    def context(self, name: str) -> DefinableContext:
        if name not in self.contexts:
            raise UnknownReference(f"no context named {name!r}")
        return self.contexts[name]

    def budget(self, name: str) -> Budget:
        if name not in self.budgets:
            raise UnknownReference(f"no budget named {name!r}")
        return self.budgets[name]


# -- formula text ---------------------------------------------------------


def _split_top(text: str, sep: str, line: int | None) -> list[str]:
    """Split on a one-character separator at paren depth zero."""
    parts: list[str] = []
    cur: list[str] = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(line, "unbalanced parentheses")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ParseError(line, "unbalanced parentheses")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_element(algebra: Algebra, text: str, line: int | None = None) -> np.ndarray:
    """An algebra element from coefficient text such as ``(1 + 2*t)``."""
    field = algebra.field
    text = text.strip()
    if not text:
        raise ParseError(line, "empty coefficient")
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        closes_at_end = True
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(text) - 1:
                closes_at_end = False
                break
        if closes_at_end:
            text = text[1:-1].strip()
    coords = np.zeros(algebra.dim, dtype=ELEM)
    for atom in _split_top(text, "+", line):
        if not atom:
            raise ParseError(line, "empty summand in coefficient")
        if atom == "0":
            continue
        if "*" in atom:
            code_txt, label = atom.split("*", 1)
            code_txt, label = code_txt.strip(), label.strip()
            if not code_txt.isdigit():
                raise ParseError(line, f"bad coefficient atom {atom!r}")
            code = int(code_txt)
        elif atom.isdigit():
            code = int(atom)
            label = None
        else:
            code = 1
            label = atom
        if code >= field.q:
            raise ParseError(line, f"scalar {code} is out of field range")
        if label is None:
            term = field.mul(np.full(algebra.dim, code, ELEM), algebra.unit)
        else:
            try:
                idx = algebra.label_index(label)
            except KeyError:
                raise ParseError(line, f"unknown basis label {label!r}") from None
            term = np.zeros(algebra.dim, dtype=ELEM)
            term[idx] = code
        coords = field.add(coords, term)
    return coords


def parse_formula_text(
    algebra: Algebra, side: str, arity: int, body: str, line: int | None = None
) -> PpFormula:
    """A pp formula from its workspace body text."""
    body = body.strip()
    nbound = 0
    if body.startswith("E ") or body.startswith("E\t"):
        m = _PREFIX_RE.match(body)
        if not m:
            raise ParseError(line, "malformed bound-variable prefix")
        names = m.group(1).split()
        if names != [f"y{k + 1}" for k in range(len(names))]:
            raise ParseError(line, "bound variables must be y1, y2, ... in order")
        nbound = len(names)
        body = m.group(2).strip()
    equations = _split_top(body, "&", line)
    neq = len(equations)
    a = np.zeros((arity, neq, algebra.dim), dtype=ELEM)
    b = np.zeros((nbound, neq, algebra.dim), dtype=ELEM)
    field = algebra.field
    for j, eq in enumerate(equations):
        sides = _split_top(eq, "=", line)
        if len(sides) != 2:
            raise ParseError(line, f"equation {eq!r} needs exactly one '='")
        lhs, rhs = sides
        if rhs != "0":
            raise ParseError(line, "equation right-hand side must be 0")
        for term in _split_top(lhs, "+", line):
            if not term:
                raise ParseError(line, "empty summand in equation")
            if term == "0":
                continue
            pieces = _split_top(term, "*", line)
            if len(pieces) == 1:
                var_tok, coeff = pieces[0], algebra.unit
            elif side == RIGHT:
                var_tok = pieces[0]
                coeff = parse_element(algebra, "*".join(pieces[1:]), line)
            else:
                var_tok = pieces[-1]
                coeff = parse_element(algebra, "*".join(pieces[:-1]), line)
            m = _VAR_RE.match(var_tok)
            if not m:
                raise ParseError(line, f"bad variable {var_tok!r}")
            idx = int(m.group(2)) - 1
            if m.group(1) == "x":
                if not 0 <= idx < arity:
                    raise ParseError(line, f"free variable {var_tok} out of range")
                a[idx, j] = field.add(a[idx, j], coeff)
            else:
                if not 0 <= idx < nbound:
                    raise ParseError(line, f"bound variable {var_tok} not declared")
                b[idx, j] = field.add(b[idx, j], coeff)
    return pp_formula(algebra, side, arity, a, b)


# -- parsing ---------------------------------------------------------------


def _bracket_depth(text: str) -> int:
    return text.count("[") - text.count("]")


def parse_workspace(text: str) -> Workspace:
    """Parse workspace text; see the module docstring for the format."""
    lines = text.splitlines()
    sections: list[tuple[str, str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    version_seen = False
    i = 0
    while i < len(lines):
        raw = lines[i]
        num = i + 1
        i += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not version_seen:
            m = re.match(r"^version\s*=\s*(\d+)$", stripped)
            if not m:
                raise ParseError(num, "workspace must start with 'version = 1'")
            if m.group(1) != "1":
                raise ParseError(num, f"unsupported workspace version {m.group(1)}")
            version_seen = True
            continue
        m = _SECTION_RE.match(stripped)
        if m:
            kind, name = m.group(1), m.group(2)
            if kind not in _KIND_KEYS:
                raise ParseError(num, f"unknown section kind {kind!r}")
            for other_kind, other_name, other_num, _ in sections:
                if other_kind == kind and other_name == name:
                    raise ParseError(num, f"duplicate {kind} {name!r}")
            current = {}
            sections.append((kind, name, num, current))
            continue
        if "=" not in stripped or current is None:
            raise ParseError(num, f"unexpected line {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        kind = sections[-1][0]
        if key not in _KIND_KEYS[kind]:
            raise ParseError(num, f"unknown key {key!r} in [{kind}] section")
        if key in current:
            raise ParseError(num, f"duplicate key {key!r}")
        depth = _bracket_depth(value)
        while depth > 0 and i < len(lines):
            value += " " + lines[i].strip()
            depth = _bracket_depth(value)
            i += 1
        if depth != 0:
            raise ParseError(num, f"unbalanced brackets in value of {key!r}")
        current[key] = (value, num)
    ws = Workspace()
    for kind in _KIND_ORDER:
        for sec_kind, name, num, keys in sections:
            if sec_kind == kind:
                _resolve_section(ws, kind, name, num, keys)
    return ws


def _require(keys: dict, needed: tuple[str, ...], kind: str, num: int) -> None:
    for key in needed:
        if key not in keys:
            raise ParseError(num, f"[{kind}] section is missing key {key!r}")


def _int_value(keys: dict, key: str) -> int:
    value, num = keys[key]
    if not re.match(r"^-?\d+$", value):
        raise ParseError(num, f"{key} must be an integer, got {value!r}")
    return int(value)


def _count_value(keys: dict, key: str) -> int:
    count = _int_value(keys, key)
    if count < 0:
        raise ParseError(keys[key][1], f"{key} must be >= 0, got {count}")
    return count


def _literal_value(keys: dict, key: str):
    value, num = keys[key]
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError):
        raise ParseError(num, f"cannot parse {key} value {value!r}") from None


def _name_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _side_value(keys: dict) -> str:
    value, num = keys["side"]
    if value not in (LEFT, RIGHT):
        raise ParseError(num, f"side must be {LEFT!r} or {RIGHT!r}")
    return value


def _resolve_section(ws: Workspace, kind: str, name: str, num: int, keys: dict) -> None:
    if kind == "algebra":
        _require(keys, _KIND_KEYS["algebra"], kind, num)
        field = _wrap(field_from_order, kind, name)(_int_value(keys, "field"))
        labels = _name_list(keys["labels"][0])
        unit = _literal_value(keys, "unit")
        constants = _literal_value(keys, "constants")
        alg = _wrap(make_algebra, kind, name)(field, labels, constants, unit)
        ws.add_algebra(name, alg)
    elif kind == "module":
        _require(keys, _KIND_KEYS["module"], kind, num)
        alg_name = keys["algebra"][0]
        alg = ws.algebra(alg_name)
        side = _side_value(keys)
        dim = _count_value(keys, "dim")
        actions = _literal_value(keys, "actions")
        if dim == 0 and actions == [[]] * alg.dim:  # how a dim-0 module renders
            actions = np.zeros((alg.dim, 0, 0), dtype=ELEM)
        mod = _wrap(make_module, kind, name)(alg, side, dim, actions)
        ws.add_module(name, alg_name, mod)
    elif kind == "formula":
        _require(keys, _KIND_KEYS["formula"], kind, num)
        alg_name = keys["algebra"][0]
        alg = ws.algebra(alg_name)
        side = _side_value(keys)
        arity = _count_value(keys, "arity")
        body, body_num = keys["body"]
        ws.add_formula(
            name, alg_name, parse_formula_text(alg, side, arity, body, body_num)
        )
    elif kind == "context":
        module_names = _name_list(keys["modules"][0]) if "modules" in keys else []
        pair_names = []
        if "pairs" in keys:
            value, pair_num = keys["pairs"]
            for item in _name_list(value):
                halves = [h.strip() for h in item.split("/")]
                if len(halves) != 2 or not all(halves):
                    raise ParseError(
                        pair_num, f"pair {item!r} must look like 'phi / psi'"
                    )
                pair_names.append((halves[0], halves[1]))
        _wrap(ws.add_context, kind, name)(name, module_names, pair_names)
    elif kind == "budget":
        _require(keys, _KIND_KEYS["budget"], kind, num)
        budget = _wrap(Budget, kind, name)(
            _int_value(keys, "bound_vars"),
            _int_value(keys, "equations"),
            _int_value(keys, "candidates"),
            _int_value(keys, "stages"),
        )
        ws.add_budget(name, budget)


def _wrap(fn, kind: str, name: str):
    """Tag mathematical failures with the section they came from."""

    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParseError, UnknownReference):
            raise
        except PpmodError as err:
            raise ValidationFailure(f"[{kind} {name}] {err}") from err

    return call


def load_workspace(path) -> Workspace:
    return parse_workspace(Path(path).read_text())


# -- canonical serialisation ------------------------------------------------


def render_workspace(ws: Workspace) -> str:
    """Canonical text for a workspace: fixed order, sorted names."""
    out: list[str] = ["version = 1"]
    for name in sorted(ws.algebras):
        alg = ws.algebras[name]
        out += [
            "",
            f"[algebra {name}]",
            f"field = {alg.field.q}",
            f"labels = {', '.join(alg.labels)}",
            f"unit = {alg.unit.tolist()}",
            f"constants = {alg.constants.tolist()}",
        ]
    for name in sorted(ws.modules):
        mod = ws.modules[name]
        out += [
            "",
            f"[module {name}]",
            f"algebra = {ws.module_algebra[name]}",
            f"side = {mod.side}",
            f"dim = {mod.dim}",
            f"actions = {mod.actions.tolist()}",
        ]
    for name in sorted(ws.formulas):
        f = ws.formulas[name]
        out += [
            "",
            f"[formula {name}]",
            f"algebra = {ws.formula_algebra[name]}",
            f"side = {f.side}",
            f"arity = {f.nfree}",
            f"body = {f.render()}",
        ]
    for name in sorted(ws.contexts):
        module_names, pair_names = ws.context_refs[name]
        out += ["", f"[context {name}]"]
        if module_names:
            out.append(f"modules = {', '.join(module_names)}")
        if pair_names:
            out.append(
                "pairs = " + ", ".join(f"{a} / {b}" for a, b in pair_names)
            )
    for name in sorted(ws.budgets):
        budget = ws.budgets[name]
        out += [
            "",
            f"[budget {name}]",
            f"bound_vars = {budget.bound_vars}",
            f"equations = {budget.equations}",
            f"candidates = {budget.candidates}",
            f"stages = {budget.stages}",
        ]
    return "\n".join(out) + "\n"


def save_workspace(ws: Workspace, path) -> None:
    Path(path).write_text(render_workspace(ws))
