from hypothesis import settings

# Property tests draw the same examples on every run (derandomize) and
# carry no per-example deadline, so a slow shared host cannot fail them.
settings.register_profile(
    "diracred", deadline=None, derandomize=True, max_examples=20
)
settings.load_profile("diracred")
