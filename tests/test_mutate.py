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


def test_function_absent_from_a_module_gives_no_mutants():
    assert mutate.mutants("def g():\n    return 1\n", "f") == []


def test_each_mutant_sees_the_other_modules_unchanged(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "a.py").write_text("X = 1\n")
    (tmp_path / "src" / "b.py").write_text("Y = 1\n")
    (tmp_path / "tests" / "test_a.py").write_text("import a\n\n\ndef test_x():\n    assert a.X == 1\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["mutate.py", "src/a.py", "src/b.py"])
    assert mutate.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "survived: src/b.py, line 1: 1 -> 2",
        "src/a.py: 1 of 1 mutants killed",
        "src/b.py: 0 of 1 mutants killed",
    ]
