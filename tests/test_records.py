"""Result records are immutable NamedTuples: no field can be set, no attribute
added, the two validating records still refuse bad values when built, and no
mutable default is shared between instances."""

import numpy as np
import pytest

from cayleygap import bohr, bounds, experiments, representations, spectra

EXAMPLES = {
    "BoundReport": bounds.BoundReport(bound_name="x", bound_value=0.5, measured=0.6),
    "Progression": bohr.Progression(modulus=5, start=0, step=1, length=3),
    "BohrSizeThresholds": bohr.BohrSizeThresholds(dim=1, half_radius=0.5),
    "LargeSpectrum": bohr.LargeSpectrum(set_size=1, eps=0.5, indices=(0,), labels=("chi0",), norms=(1.0,)),
    "SpectrumReport": spectra.SpectrumReport(
        eigenvalues=np.zeros(1), star_eigenvalues=np.zeros(1), lambda1=0.0, lambda1_star=0.0, path="dense"
    ),
    "SpectralSummary": spectra.SpectralSummary(lambda1=0.0, lambda1_star=0.0, norm=None, path="dense"),
    "WalkEnergyReport": spectra.WalkEnergyReport(
        k=1, set_size=1, group_order=2, convolution_side=0.0, spectral_side=0.0, t1_bound=1.0
    ),
    "FourierCoefficient": representations.FourierCoefficient(rep=None, matrix=np.eye(1)),
}


def test_examples_cover_every_public_record():
    records = {
        name
        for module in (bohr, bounds, experiments, representations, spectra)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == module.__name__ and not name.startswith("_")
    }
    assert records == EXAMPLES.keys()


@pytest.mark.parametrize("record", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_fields_cannot_be_set(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("record", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_no_attribute_can_be_added(record):
    with pytest.raises(AttributeError):
        record.extra = 1


def test_bound_report_refuses_an_unknown_sense():
    with pytest.raises(ValueError, match="sense"):
        bounds.BoundReport(bound_name="x", bound_value=0.5, measured=0.6, sense="=")
    with pytest.raises(ValueError, match="sense"):
        bounds.BoundReport("x", 0.5, 0.6, "=")
    with pytest.raises(ValueError, match="sense"):
        bounds.BoundReport("x", 0.5, 0.6, ">")  # strict only as "<"


@pytest.mark.parametrize("length", [0, 6])
def test_progression_refuses_a_length_outside_the_modulus(length):
    with pytest.raises(ValueError, match="out of range"):
        bohr.Progression(modulus=5, start=0, step=1, length=length)
    with pytest.raises(ValueError, match="out of range"):
        bohr.Progression(5, 0, 1, length)


def test_default_parameters_are_read_only():
    record = EXAMPLES["BoundReport"]
    assert dict(record.parameters) == {}
    with pytest.raises(TypeError):
        record.parameters["key"] = 1


def test_experiment_results_never_share_records():
    first = experiments.run_sidon(101, 2, 0)
    second = experiments.run_sidon(101, 2, 0)
    assert first == second and first is not second
