import netresil


def test_every_export_resolves():
    missing = [name for name in netresil.__all__ if not hasattr(netresil, name)]
    assert not missing, f"netresil.__all__ names missing from the package: {missing}"
    assert len(set(netresil.__all__)) == len(netresil.__all__), "duplicate export"
