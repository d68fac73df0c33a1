import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from soapsim import crypto, simnet

# big-integer curve ops make per-example deadlines meaningless
settings.register_profile(
    "soapsim",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("soapsim")

sys.path.insert(0, str(Path(__file__).parent))

# The process-wide memos: crypto's verify keys, signer-key decodes, verdicts
# and signatures, and simnet's scripted identities.
MEMOS = (
    (crypto, "_key_memo"),
    (crypto, "_decode_memo"),
    (crypto, "_verdict_memo"),
    (crypto, "_signature_memo"),
    (simnet, "_identities"),
)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty process-wide memos for one test, the process's own put back
    afterwards. Yields a function that empties them again, so that the next
    call is cold."""
    memos = [OrderedDict() for _ in MEMOS]
    for (module, name), memo in zip(MEMOS, memos):
        monkeypatch.setattr(module, name, memo)

    def clear():
        for memo in memos:
            memo.clear()

    clear()
    yield clear


@pytest.fixture
def real_verifies(monkeypatch):
    """The verifies that missed crypto's verdict memo and ran, as
    ((group id, key, message, signature), verdict), in call order."""
    runs = []
    verify = crypto._verify

    def counted(group, point, message, signature):
        verdict = verify(group, point, message, signature)
        runs.append(((group.group_id, point, message, signature), verdict))
        return verdict

    monkeypatch.setattr(crypto, "_verify", counted)
    yield runs
