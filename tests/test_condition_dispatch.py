"""No dispatch chain over ``BCKind``: each condition's formulas live in its class.

Dirichlet, Neumann, Robin and Radiative in ``coefficients.py`` each hold
every formula of their condition, and callers reach them through
``DimensionlessProblem.condition`` or the boundary condition itself.  This
test walks the package and fails on any ``BCKind.<MEMBER>`` outside those
classes, so a new per-condition formula has to be added to the classes
instead of as one more ``if kind is ...`` chain.  The only other places that
may name a member are the closed forms, which exist for two conditions only.
Nor may a function outside ``coefficients.py`` merely pass its own
parameters on to a condition formula: its callers can call the class.
"""

import ast
from collections import Counter
from pathlib import Path

import meltfront
from meltfront import BCKind

SRC = Path(meltfront.__file__).parent
CONDITION_CLASSES = {"_Condition", "Dirichlet", "Neumann", "Robin", "Radiative"}
# (module, top-level definition) outside the condition classes, and how many lines each may name a member on
EXCEPTIONS = {
    # the BCKind label of each ClosedFormSolution
    ("closed_form.py", "dirichlet_constant"): 1,
    ("closed_form.py", "neumann_constant"): 1,
    # the choice of closed form for the oracle command
    ("cli.py", "_cmd_oracle"): 2,
}


def _member_lines():
    """(module, top-level definition, line) of each BCKind.<MEMBER> in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "BCKind" and node.attr in BCKind.__members__):
                    found.add((path.name, owner, node.lineno))
    return found


def test_members_are_named_only_by_the_condition_classes_and_the_closed_forms():
    lines = _member_lines()
    outside = Counter((module, owner) for module, owner, _ in lines
                      if not (module == "coefficients.py" and owner in CONDITION_CLASSES))
    assert {place: count for place, count in outside.items() if count > EXCEPTIONS.get(place, 0)} == {}


def test_each_condition_class_names_only_its_own_kind():
    lines = _member_lines()
    in_classes = [(owner, line) for module, owner, line in lines
                  if module == "coefficients.py" and owner in CONDITION_CLASSES]
    assert sorted(owner for owner, _ in in_classes) == ["Dirichlet", "Neumann", "Radiative", "Robin"]


def _pass_throughs():
    """(module, function) of each function outside coefficients.py whose whole body is
    ``return <param>.condition.<formula>(...)`` with only its own parameters as arguments."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "coefficients.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = fn.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
                continue
            call = body[0].value
            params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
            target = call.func
            if not (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "condition" and isinstance(target.value.value, ast.Name)
                    and target.value.value.id in params):
                continue
            arguments = [*call.args, *(k.value for k in call.keywords)]
            if all(isinstance(a, ast.Name) and a.id in params for a in arguments):
                found.append((path.name, fn.name))
    return found


def test_no_function_only_passes_its_parameters_to_a_condition_formula():
    assert _pass_throughs() == []
