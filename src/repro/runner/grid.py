"""Placeholder for the deleted batched grid tier.

Every fluid spec runs through :class:`repro.runner.backends.
FluidBackend`; the perfbench tracer still patches the name below.
"""


def execute_batched(specs):
    """Kept only because the perfbench tracer still patches this name."""
    return None
