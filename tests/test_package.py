import kljnsim

# The package root re-exports only what the scripts import from it.
EXPECTED_ALL = {
    "__version__",
    "AttenuatorConfig",
    "NetworkConfig",
    "NoiseSpec",
    "PRESETS",
    "analytic_attack_probabilities",
    "analytic_mean_square_currents",
    "chi2_cdf_1",
}


def test_public_names_pinned():
    assert len(kljnsim.__all__) == len(EXPECTED_ALL)
    assert set(kljnsim.__all__) == EXPECTED_ALL


def test_public_names_resolve():
    for name in kljnsim.__all__:
        assert getattr(kljnsim, name) is not None
