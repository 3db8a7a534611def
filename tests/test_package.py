"""The package surface: ``gencong`` republishes its modules' ``__all__``."""

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
    assert gencong.MILLER_RABIN_ROUNDS == arith.MILLER_RABIN_ROUNDS
