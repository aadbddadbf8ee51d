"""Pin of the configs the scenario library builds.

The sha256 over ``repr(spec.to_config())`` of every ``LIBRARY`` scenario,
in library order, one repr per line.  The repr is what the sweep journal
fingerprints, so a change to how a spec becomes a ``SystemConfig`` -- a
field default, a float written as an int, a reordered library -- shows
up here before it silently invalidates archived sweeps.
"""

from __future__ import annotations

import hashlib

from repro.scenarios import LIBRARY

LIBRARY_CONFIGS_SHA256 = (
    "06e0e284147efdf32b75d1b92e8b819b9fed635905e9110c509e750b2b7a9184"
)


def test_library_configs_are_pinned():
    digest = hashlib.sha256()
    for spec in LIBRARY:
        digest.update(repr(spec.to_config()).encode("utf-8") + b"\n")
    assert len(LIBRARY) == 25
    assert digest.hexdigest() == LIBRARY_CONFIGS_SHA256
