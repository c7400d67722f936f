"""The reachability ratchet's own logic (``tools/reachability.py check``)
on a toy package with a canned entered set: no entry point runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"
_spec = importlib.util.spec_from_file_location("reachability", _TOOL)
reachability = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("reachability", reachability)  # dataclasses look it up
_spec.loader.exec_module(reachability)

_TOY = {
    "mod.py": (
        "def used():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "\n"
        "def dead():\n"
        "    def nested():\n"
        "        pass\n"
        "\n"
        "class C:\n"
        "    def method(self):\n"
        "        pass\n"
        "\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return 1\n"
        "\n"
        "    @prop.setter\n"
        "    def prop(self, value):\n"
        "        pass\n"
    ),
    "sub/__init__.py": "def helper():\n    pass\n",
}
_ENTERED = ["mod.py:used", "mod.py:C.method", "mod.py:C.prop", "sub/__init__.py:helper"]
#: Entered by nothing: ``inner`` (its enclosing ``used`` was entered) and
#: ``dead``, whose ``nested`` its entry covers.
_MATCHING = "mod.py:dead  lead\nmod.py:used.<locals>.inner  closure  # kept\n"


def _check(tmp_path, allow: str) -> list[str]:
    package = tmp_path / "toy"
    for rel, text in _TOY.items():
        (package / rel).parent.mkdir(parents=True, exist_ok=True)
        (package / rel).write_text(text)
    (tmp_path / "allow.txt").write_text("# function  reason\n" + allow)
    return reachability.check(package, set(_ENTERED), tmp_path / "allow.txt")


def test_matching_allow_list_passes(tmp_path, capsys):
    assert _check(tmp_path, _MATCHING) == []
    assert "2 of 7 functions (5 lines) entered by no entry point" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "allow,problem",
    [
        ("mod.py:dead  lead\n",
         "mod.py:used.<locals>.inner: entered by no entry point and not on"),
        (_MATCHING + "mod.py:C.method  lead\n",
         "mod.py:C.method: on the allow-list but entered by an entry point"),
        (_MATCHING + "mod.py:gone  lead\n",
         "mod.py:gone: on the allow-list but no such function"),
        (_MATCHING + "mod.py:dead.<locals>.nested  lead\n",
         "nested: on the allow-list but covered by its enclosing function"),
        (_MATCHING + "sub/__init__.py:helper\n", "want one '<function> <reason>'"),
    ],
    ids=["unlisted", "entered", "missing", "covered", "no-reason"],
)
def test_disagreement_fails(tmp_path, allow, problem):
    problems = _check(tmp_path, allow)
    assert len(problems) == 1
    assert problem in problems[0]
