"""Shared builders for consistent production records."""

from __future__ import annotations

import datetime as dt

import opcast.features
from opcast import ProductionRecord, compute_indices, derive_time_variables


def make_record(n=1, date=dt.date(2022, 10, 10), start=dt.time(6, 0),
                shift="Mo M", pr_ord=305, OpT=None, NOpT=None, OT=None,
                SBT=0.0, DT=0.5, PLT=0.1, QLT=0.05, ics=1.88, nstops=1,
                hum=None, temp=None) -> ProductionRecord:
    """One record whose durations satisfy the accounting identities.

    Specify either OT (losses subtract downward) or OpT/NOpT (the base
    losses are adjusted to match).
    """
    if OpT is None and OT is None:
        OpT = 7.0
    if OpT is not None:
        if NOpT is not None:
            PLT = OpT - NOpT
        OT = OpT + DT + SBT
    d = derive_time_variables(OT, SBT, DT, PLT, QLT)
    idx = compute_indices(OT, d.LT, d.OpT, d.NOpT, d.VT)
    TgU = d.OpT * ics
    TU = max(int(round(d.VT * ics)), 0)
    DU = min(int(round(QLT * ics)), TU)
    rcs = TU / d.LT if d.LT > 0 else 0.0
    return ProductionRecord(
        n=n, date=date, start=start, shift=shift, pr_ord=pr_ord, ics=ics,
        rcs=rcs, TU=TU, DU=DU, TgU=TgU, nstops=nstops, OT=OT, SBT=SBT,
        LT=d.LT, DT=DT, OpT=d.OpT, PLT=PLT, NOpT=d.NOpT, QLT=QLT, VT=d.VT,
        lo=idx.lo, av=idx.av, pf=idx.pf, qu=idx.qu, oee=idx.oee,
        hum=hum, temp=temp)


def build_stream(steps, start=dt.datetime(2022, 10, 3, 6, 0),
                 gap_minutes=2.0) -> list[ProductionRecord]:
    """Chronological records from per-record option dicts.

    The cursor advances by each record's operating time plus a small gap,
    rolling dates automatically.
    """
    cursor = start
    records = []
    for i, opts in enumerate(steps):
        opts = dict(opts)
        date = opts.pop("date", cursor.date())
        time = opts.pop("start", cursor.time())
        rec = make_record(n=i + 1, date=date, start=time, **opts)
        records.append(rec)
        cursor = dt.datetime.combine(date, time) + dt.timedelta(
            minutes=rec.OT + gap_minutes)
    return records


def featurizing_reads(monkeypatch) -> list[int]:
    """The record count of every read of records into cells (behind
    ``build_features`` and ``classification_vector``) from now on: a spy
    that lets each read through."""
    calls = []
    cells = opcast.features._Plan.cells

    def spy(plan, records):
        calls.append(len(records))
        return cells(plan, records)

    monkeypatch.setattr(opcast.features._Plan, "cells", spy)
    return calls
