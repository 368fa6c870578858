"""Trace replay as it was before traces replayed from their own records, kept
as a differential oracle: re-run the seeded scheduler with the header's
configuration and compare the recorded digests with the fresh ones.  The
comparison is the old ``cli.cmd_replay`` trace branch verbatim; only the
result is returned instead of printed."""

from ubsc import engine as eng

_HEADER_FIELDS = ("seed", "loss_rate", "recovery_bias", "max_steps")


def replay_trace(network, records: list):
    """None when the re-run reproduces every recorded digest; otherwise the
    index of the first step whose digest differs, or ``"length"`` when one
    digest list is a proper prefix of the other."""
    cfg = eng.SchedulerConfig(**{k: records[0][k] for k in _HEADER_FIELDS})
    trace = eng.run_scheduler(network, cfg)
    recorded = [l["digest"] for l in records[1:]]
    fresh = [s.digest for s in trace.steps]
    if recorded != fresh:
        for i, (a, b) in enumerate(zip(recorded, fresh)):
            if a != b:
                return i
        return "length"
    return None
