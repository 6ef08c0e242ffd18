"""Placeholder for the deleted batched DCQCN grid engine.

Every fluid spec runs on :class:`repro.cc.sender_bank.SenderBank`; the
perfbench tracer still patches the two names below, so they remain.
"""


class GridBank:
    """Kept only because the perfbench tracer still patches this name."""

    @classmethod
    def build(cls, sims):
        """Kept only because the perfbench tracer still patches this name."""
        return None

    def run(self, duration):
        """Kept only because the perfbench tracer still patches this name."""
        raise NotImplementedError
