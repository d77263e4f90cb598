"""A live :class:`KBQA` system must *refuse* to pickle.

Nothing in the product crosses a process boundary by pickle: replicas get
the trained system by ``fork``.  The facade's refusal is the one crisp
failure every accidental ``pickle.dumps`` of a system (or of anything that
holds one) falls through to.
"""

from __future__ import annotations

import pickle

import pytest


class TestLiveSystemPickle:
    def test_kbqa_itself_refuses_to_pickle(self, kbqa_fb):
        with pytest.raises(TypeError, match="not picklable"):
            pickle.dumps(kbqa_fb)
