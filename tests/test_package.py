"""The package's public surface: every exported name resolves."""

import nestprohibitor


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nestprohibitor import *", namespace)
    for name in nestprohibitor.__all__:
        assert namespace[name] is getattr(nestprohibitor, name)
