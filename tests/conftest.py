import os

from hypothesis import settings

# CI runs replay the same examples every time and print the blob that
# reproduces a failure; local runs keep hypothesis' default profile.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
