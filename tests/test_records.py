"""Contract of the result records: fields, repr bytes, immutability,
equality, hashing and copies.

``Allocation``, ``AchievabilityParams`` and ``GrayWynerPoint`` are
NamedTuples and ``CanonicalSpectrum`` is a small ``__slots__`` class. Their
reprs must stay the strings the earlier frozen dataclasses printed. The
input record ``JointGaussianCov`` compares by identity, and its copies keep
frozen blocks.
"""

import copy
import pickle

import pytest

import gausswyner
from gausswyner import Regime
from gausswyner.allocation import Allocation, CanonicalSpectrum
from gausswyner.graywyner import GrayWynerPoint
from gausswyner.scalar import AchievabilityParams

RECORDS = [
    pytest.param(
        Allocation,
        ("gammas", "water_level_beta", "total_value", "saturated", "slack"),
        ((0.1,), 0.25, 1.5, (False,)),
        "Allocation(gammas=(0.1,), water_level_beta=0.25, total_value=1.5, "
        "saturated=(False,), slack=0.0)",
        id="Allocation"),
    pytest.param(
        AchievabilityParams,
        ("alpha_noise", "sigma2_w", "rate_nats", "leakage_nats"),
        (0.25, 0.5, 0.125, 0.1),
        "AchievabilityParams(alpha_noise=0.25, sigma2_w=0.5, "
        "rate_nats=0.125, leakage_nats=0.1)",
        id="AchievabilityParams"),
    pytest.param(
        GrayWynerPoint,
        ("sigma2", "rho", "delta", "alpha_private", "r0", "regime",
         "nu_star"),
        (1.0, 0.5, 0.75, 0.0, 0.2, Regime.BLEND, 0.75),
        "GrayWynerPoint(sigma2=1.0, rho=0.5, delta=0.75, alpha_private=0.0, "
        "r0=0.2, regime=<Regime.BLEND: 'BLEND'>, nu_star=0.75)",
        id="GrayWynerPoint"),
]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS)
class TestNamedTupleRecords:
    def test_fields_in_positional_order(self, cls, fields, values, text):
        record = cls(*values)
        assert cls._fields == fields
        assert tuple(getattr(record, name) for name in fields[:len(values)]) \
            == values

    def test_repr_bytes(self, cls, fields, values, text):
        assert repr(cls(*values)) == text

    def test_assignment_raises(self, cls, fields, values, text):
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])

    def test_equality_and_hash(self, cls, fields, values, text):
        record = cls(*values)
        same = cls(**dict(zip(fields, values)))
        assert record == same
        assert hash(record) == hash(same)
        assert hash(record) == hash(tuple(record))
        assert len({record, same}) == 1
        changed = list(values)
        changed[1] = 0.375
        assert record != cls(*changed)

    def test_is_a_plain_tuple(self, cls, fields, values, text):
        record = cls(*values)
        assert isinstance(record, tuple)
        assert record == tuple(record)
        assert len(record) == len(fields)

    def test_copy_and_pickle_round_trip(self, cls, fields, values, text):
        record = cls(*values)
        for clone in (copy.deepcopy(record), copy.copy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record
            assert repr(clone) == text


class TestLibraryResults:
    """The functions return the record types with the documented reprs."""

    def test_waterfill(self):
        assert repr(gausswyner.waterfill([0.9, 0.5], 0.1)) == (
            "Allocation(gammas=(0.05, 0.05), "
            "water_level_beta=0.31886946750622863, "
            "total_value=1.3837866989048178, saturated=(False, False), "
            "slack=0.0)")

    def test_slack_defaults_to_zero(self):
        assert Allocation((), 0.0, 0.0, ()).slack == 0.0

    def test_common_rate_outside_blend_has_no_nu_star(self):
        point = gausswyner.common_rate(1.0, 0.5, 2.0, 0.0)
        assert type(point) is GrayWynerPoint
        assert repr(point) == (
            "GrayWynerPoint(sigma2=1.0, rho=0.5, delta=2.0, "
            "alpha_private=0.0, r0=0.0, "
            "regime=<Regime.INFEASIBLE_ZERO: 'INFEASIBLE_ZERO'>, "
            "nu_star=None)")


class TestCanonicalSpectrum:
    def test_repr_bytes(self):
        assert repr(CanonicalSpectrum([0.9, 0.5])) == \
            "CanonicalSpectrum(rhos=(0.9, 0.5))"
        assert repr(CanonicalSpectrum([])) == "CanonicalSpectrum(rhos=())"

    def test_keyword_construction(self):
        assert CanonicalSpectrum(rhos=(0.9, 0.5)).rhos == (0.9, 0.5)

    # validation and the clamp band: test_vector's
    # test_clamp_band_via_spectrum_type and test_allocation's
    # TestCanonicalSpectrum

    def test_len_and_iteration(self):
        spectrum = CanonicalSpectrum([0.9, 0.5, 0.0])
        assert len(spectrum) == 3
        assert list(spectrum) == [0.9, 0.5, 0.0]
        assert tuple(spectrum) == spectrum.rhos

    def test_assignment_and_deletion_raise(self):
        spectrum = CanonicalSpectrum([0.9, 0.5])
        with pytest.raises(AttributeError):
            spectrum.rhos = (0.1,)
        with pytest.raises(AttributeError):
            spectrum.other = 1
        with pytest.raises(AttributeError):
            del spectrum.rhos
        assert spectrum.rhos == (0.9, 0.5)

    def test_equality_and_hash(self):
        spectrum = CanonicalSpectrum([0.9, 0.5])
        same = CanonicalSpectrum((0.9, 0.5))
        assert spectrum == same
        assert hash(spectrum) == hash(same)
        assert len({spectrum, same}) == 1
        assert spectrum != CanonicalSpectrum([0.9, 0.4])
        # compared by type, not as a sequence
        assert spectrum != (0.9, 0.5)
        assert spectrum != Allocation((0.9, 0.5), 0.0, 0.0, ())

    def test_built_from_a_spectrum(self):
        spectrum = CanonicalSpectrum([0.9, 0.5])
        assert CanonicalSpectrum(spectrum).rhos is spectrum.rhos

    def test_copy_and_pickle_round_trip(self):
        spectrum = CanonicalSpectrum([1.0 + 5e-10, 0.5, 0.5 + 1e-13, -0.0])
        for clone in (copy.deepcopy(spectrum), copy.copy(spectrum),
                      pickle.loads(pickle.dumps(spectrum))):
            assert type(clone) is CanonicalSpectrum
            assert clone == spectrum
            assert clone.rhos == spectrum.rhos
            assert repr(clone) == repr(spectrum)

    def test_waterfill_accepts_it(self):
        spectrum = CanonicalSpectrum([0.9, 0.5])
        assert gausswyner.waterfill(spectrum, 0.1) == \
            gausswyner.waterfill([0.9, 0.5], 0.1)


class TestPackageNamespace:
    def test_allocation_names_resolve_to_the_module(self):
        from gausswyner import allocation
        for name in ("Allocation", "CanonicalSpectrum", "evaluate_allocation",
                     "saturation_breakpoints", "waterfill"):
            assert getattr(gausswyner, name) is getattr(allocation, name)
            assert name in dir(gausswyner)

    def test_all_is_the_table_plus_version_and_errors(self):
        assert len(set(gausswyner.__all__)) == len(gausswyner.__all__)
        assert set(gausswyner.__all__) == gausswyner._MODULE_OF.keys() | {
            "__version__", "CovarianceError", "GausswynerError",
            "ParameterError"}

    def test_vector_names_resolve_on_access(self):
        namespace = {}
        exec("from gausswyner import *", namespace)
        assert set(gausswyner.__all__) <= namespace.keys()
        from gausswyner import vector
        assert gausswyner.wyner_ci_vector is vector.wyner_ci_vector
        assert namespace["JointGaussianCov"] is vector.JointGaussianCov
        assert set(gausswyner.__all__) <= set(dir(gausswyner))
        with pytest.raises(AttributeError, match="no_such_name"):
            gausswyner.no_such_name


class TestJointGaussianCov:
    """The covariance record compares and hashes by identity, and every copy
    is rebuilt with its own frozen blocks."""

    @staticmethod
    def _cov():
        from gausswyner.vector import JointGaussianCov
        return JointGaussianCov([[1.0, 0.0], [0.0, 1.0]],
                                [[0.9, 0.0], [0.0, 0.2]],
                                [[1.0, 0.0], [0.0, 1.0]])

    def test_equality_and_hash_are_by_identity(self):
        cov, other = self._cov(), self._cov()
        assert cov == cov
        assert cov != other
        assert hash(cov) == hash(cov)
        assert len({cov, other}) == 2

    def test_copy_and_pickle_rebuild_frozen_blocks(self):
        cov = self._cov()
        for clone in (copy.copy(cov), copy.deepcopy(cov),
                      pickle.loads(pickle.dumps(cov))):
            assert type(clone) is type(cov)
            for name in ("k_x", "k_xy", "k_y"):
                block, original = getattr(clone, name), getattr(cov, name)
                assert block is not original
                assert block.tolist() == original.tolist()
                assert not block.flags.writeable
            assert repr(clone) == repr(cov)
