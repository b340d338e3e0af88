import types

import billzeta


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(billzeta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(billzeta.__all__) == sorted(public)
    assert len(set(billzeta.__all__)) == len(billzeta.__all__)
    for name in billzeta.__all__:
        assert getattr(billzeta, name) is not None
