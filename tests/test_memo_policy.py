"""Every memo of the package is sized by one of the two policy constants in ``ideals``.

A memo keyed by an ideal, a pair of ideals or an int holds ``_IDEAL_MEMO_SIZE``
entries; one keyed by a label, a weight region or a regularity level holds
``_LABEL_MEMO_SIZE``.
"""

import ast
import importlib
from pathlib import Path

from detthick import ideals

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detthick"
POLICY = ("_IDEAL_MEMO_SIZE", "_LABEL_MEMO_SIZE")


def test_every_memo_has_a_policy_size():
    # each lru_cache a module defines has one of the two sizes at run time, and its decorator
    # names the constant, never a literal; no other module defines a *_SIZE constant
    sizes = {name: getattr(ideals, name) for name in POLICY}
    assert sorted(sizes.values()) == [64, 4096]
    live, named = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        modname = "detthick" if path.stem == "__init__" else f"detthick.{path.stem}"
        module = importlib.import_module(modname)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                live[f"{path.stem}.{name}"] = value.cache_parameters()["maxsize"]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign) and path.stem != "ideals":
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                assert not [t for t in targets if t.endswith("_SIZE")], (path.name, targets)
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "lru_cache":
                    (keyword,) = deco.keywords
                    assert keyword.arg == "maxsize" and not deco.args, (path.name, node.name)
                    named[f"{path.stem}.{node.name}"] = getattr(keyword.value, "id", None)
    assert len(live) >= 9 and set(live) == set(named)
    assert {name: size for name, size in live.items() if size not in sizes.values()} == {}
    assert {name: size for name, size in named.items() if size not in sizes} == {}
    assert {name: sizes[named[name]] for name in live} == live
