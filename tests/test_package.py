import kljnsim

# The package root exports only the version; everything else is imported from its module.
EXPECTED_ALL = {"__version__"}


def test_public_names_pinned():
    assert len(kljnsim.__all__) == len(EXPECTED_ALL)
    assert set(kljnsim.__all__) == EXPECTED_ALL


def test_public_names_resolve():
    for name in kljnsim.__all__:
        assert getattr(kljnsim, name) is not None
