import pytest

# pytest rewrites asserts only in test modules and conftest files; the
# shared helpers hold the oracle cross-checks, which must also fire
# under python -O.
pytest.register_assert_rewrite("oracles", "instances")
