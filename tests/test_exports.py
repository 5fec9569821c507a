import dickesim


def test_every_public_name_resolves():
    for name in dickesim.__all__:
        assert getattr(dickesim, name) is not None, name
