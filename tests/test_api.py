"""The package root: every exported name resolves, and deleted names stay gone."""

import mixcomp
from mixcomp import comparison, linalg, oracle, subspace

DELETED_ROOT_NAMES = ("EigenDecomposition", "is_psd", "enumerate_tuples")


def test_every_exported_name_resolves():
    missing = [name for name in mixcomp.__all__ if not hasattr(mixcomp, name)]
    assert missing == []


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from mixcomp import *", namespace)
    assert set(mixcomp.__all__) <= set(namespace)


def test_deleted_names_are_unbound():
    for name in DELETED_ROOT_NAMES:
        assert name not in mixcomp.__all__
        assert not hasattr(mixcomp, name), name
    assert not hasattr(linalg, "is_psd")
    assert not hasattr(linalg, "EigenDecomposition")
    assert not hasattr(oracle, "enumerate_tuples")
    assert not hasattr(subspace.Subspace, "from_vectors")
    assert not hasattr(comparison.MeasurementOperator, "is_valid")
