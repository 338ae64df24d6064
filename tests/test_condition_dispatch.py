"""No dispatch chain over ``BCKind``: each condition's formulas live in its class.

Dirichlet, Neumann, Robin and Radiative in ``coefficients.py`` each hold
every formula of their condition, and callers reach them through
``DimensionlessProblem.condition`` or the boundary condition itself.  This
test walks the package and fails on any ``BCKind.<MEMBER>`` outside those
classes, so a new per-condition formula has to be added to the classes
instead of as one more ``if kind is ...`` chain.  The only other places that
may name a member are the closed forms, which exist for two conditions only.
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
