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


def tiny_repository(root, listed=()):
    """src/a.py, whose one mutant the test kills, and src/b.py, whose one mutant survives."""
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "a.py").write_text("X = 1\n")
    (root / "src" / "b.py").write_text("Y = 1\n")
    (root / "tests" / "test_a.py").write_text("import a\n\n\ndef test_x():\n    assert a.X == 1\n")
    if listed:
        (root / "tools").mkdir()
        (root / "tools" / "equivalent_mutants.txt").write_text("# key | reason\n" + "".join(f"{e}\n" for e in listed))


def run_audit(root, monkeypatch, *argv):
    monkeypatch.chdir(root)
    monkeypatch.setattr("sys.argv", ["mutate.py", *argv])
    return mutate.main()


def test_each_mutant_sees_the_other_modules_unchanged(tmp_path, monkeypatch, capsys):
    tiny_repository(tmp_path)
    assert run_audit(tmp_path, monkeypatch, "src/a.py", "src/b.py") == 1
    assert capsys.readouterr().out.splitlines() == [
        "survived: src/b.py | <module> | 1 -> 2 | 1 (line 1)",
        "src/a.py: 1 of 1 mutants killed",
        "src/b.py: 0 of 1 mutants killed",
    ]


def test_a_listed_survivor_passes(tmp_path, monkeypatch, capsys):
    tiny_repository(tmp_path, ["src/b.py | <module> | 1 -> 2 | 1 | no test reads Y"])
    assert run_audit(tmp_path, monkeypatch, "src/a.py", "src/b.py") == 0
    assert capsys.readouterr().out.splitlines() == [
        "src/a.py: 1 of 1 mutants killed",
        "src/b.py: 0 of 1 mutants killed",
    ]


def test_a_listed_mutant_that_is_killed_is_reported(tmp_path, monkeypatch, capsys):
    # Only listed keys the run reached are checked: src/b.py's entry is not, when only src/a.py is mutated.
    tiny_repository(tmp_path, ["src/a.py | <module> | 1 -> 2 | 1 | stale", "src/b.py | f | 1 -> 2 | 1 | not reached"])
    assert run_audit(tmp_path, monkeypatch, "src/a.py") == 0
    assert capsys.readouterr().out.splitlines() == [
        "no longer survives: src/a.py | <module> | 1 -> 2 | 1",
        "src/a.py: 1 of 1 mutants killed",
    ]


def test_keys_name_the_enclosing_function_and_count_repeats():
    source = "X = 1\n\n\nclass C:\n    def f(self):\n        return 1 + 1\n"
    found = mutate.mutants(source, None)
    assert sorted(mutate.keys(source, found)) == [
        ("<module>", "1 -> 2", "1"),
        ("C.f", "1 -> 2", "1"),
        ("C.f", "1 -> 2", "2"),
        ("C.f", "Add -> Sub", "1"),
        ("C.f", "return -> return None", "1"),
    ]
