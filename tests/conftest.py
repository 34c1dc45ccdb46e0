from hypothesis import settings

# every run draws the same examples, so a failure reproduces as it was seen
settings.register_profile("stochprod", derandomize=True, deadline=None)
settings.load_profile("stochprod")
