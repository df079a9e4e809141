"""A test-local precision policy that also keeps every recorded decision.

Policies keep one bounded :class:`~repro.core.precision_policy.PrecisionRecord`
per (layer, tensor kind).  Tests that check the whole decision sequence mix
:class:`RecordingPolicy` into a policy class; it appends each decision to
``log`` on top of the policy's own record.
"""

from repro.core import precision_policy
from repro.training import schedules

#: The policy classes the BFP schedules build.
SCHEDULE_POLICIES = ("FixedPrecisionPolicy", "TemporalPrecisionPolicy",
                     "LayerwisePrecisionPolicy", "FASTAdaptivePolicy")


class RecordingPolicy:
    """Mix in before a :class:`~repro.core.precision_policy.PrecisionPolicy`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def record(self, decision):
        entry = super().record(decision)
        self.log.append(decision)
        return entry


def recording(policy_class):
    """``policy_class`` with :class:`RecordingPolicy` mixed in."""
    return type(f"Recording{policy_class.__name__}", (RecordingPolicy, policy_class), {})


def record_schedules(monkeypatch):
    """Make every BFP schedule built from now on use a recording policy."""
    for name in SCHEDULE_POLICIES:
        monkeypatch.setattr(schedules, name, recording(getattr(precision_policy, name)))


def recorded(policy):
    """Decisions recorded so far, over every (layer, kind)."""
    return sum(entry.count for entry in policy.records.values())
