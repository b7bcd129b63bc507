import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("mutate", Path(__file__).parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)


def test_return_none_is_not_mutated():
    assert mutate.mutants("def f():\n    return None\n", "f") == []


def test_return_of_a_value_is_made_return_none():
    source = "def f():\n    return 1\n"
    found = {text: (k, j) for k, j, text in mutate.mutants(source, "f")}
    assert set(found) == {"line 2: return -> return None", "line 2: 1 -> 2"}
    assert mutate.apply(source, *found["line 2: return -> return None"]) == "def f():\n    return"
