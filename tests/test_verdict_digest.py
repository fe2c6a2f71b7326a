"""The verdicts and witnesses of ``verdict_digest``'s fixed checks, pinned.

The digest covers status, reason and witness of 200 mutant and 60 harness
checks, so any change to what the checker answers, or to the path it
answers with, shows up here.  A change that alters witnesses on purpose
updates the pin and says why.
"""

import verdict_digest

PINNED = "8cf7a9c051687e7bb0455e274e33d1d5db4d423344a77fde31e15b961e577224"


def test_the_verdict_digest_is_pinned():
    assert verdict_digest.digest() == PINNED
