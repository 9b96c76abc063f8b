from hypothesis import settings

# every run draws the same inputs: a property test fails, or passes, the
# same way on every machine and every run
settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")
