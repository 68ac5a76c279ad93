"""The package's public surface."""

import speechslu


def test_every_exported_name_resolves():
    missing = [name for name in speechslu.__all__ if not hasattr(speechslu, name)]
    assert missing == []
