import cyclicblocks


def test_exports_are_sorted_unique_and_resolve():
    names = cyclicblocks.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(cyclicblocks, name), name
