"""Hypothesis settings profiles; select one with ``--hypothesis-profile``.

``ci`` prints the blob that reproduces a failing example, so a failure seen
only in CI can be replayed locally with ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
