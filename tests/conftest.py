from tests.forks import workers_reaped  # noqa: F401  (a fixture)
