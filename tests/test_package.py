"""The package surface: ``gencong`` republishes its modules' ``__all__``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gencong
from gencong import arith, reduction


def test_package_republishes_each_modules_all():
    assert gencong.__all__ == [*arith.__all__, *reduction.__all__, "__version__"]
    assert len(set(gencong.__all__)) == len(gencong.__all__)
    for module in (arith, reduction):
        for name in module.__all__:
            exported = getattr(gencong, name)
            assert exported is getattr(module, name), name
            if callable(exported):
                assert exported.__module__ == module.__name__, name
    # primality past psi_13 is Baillie-PSW, with no random bases to count
    assert not hasattr(gencong, "MILLER_RABIN_ROUNDS")
    assert not hasattr(arith, "MILLER_RABIN_ROUNDS")


def test_cli_import_loads_no_introspection_modules():
    # a structural check, not a timing one: dataclasses pulls in the other
    # four, and importing them was the largest share of each CLI start;
    # random is gone with the random primality bases
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "random"]
    src = Path(gencong.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import json, sys, gencong.cli; "
         f"print(json.dumps([[m for m in {heavy!r} if m in sys.modules], "
         "[m for m in sys.modules if m.split('.')[0] not in sys.stdlib_module_names]]))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded_heavy, outside_stdlib = json.loads(proc.stdout)
    assert loaded_heavy == []
    assert sorted(outside_stdlib) == ["__main__", "gencong", "gencong.arith", "gencong.cli",
                                      "gencong.reduction"]
