"""JSONL run logs and summary documents.

One line per engine iteration; lines are append-only and ordered.  For
families whose elements are pair codes, entries and counterexamples are
logged both raw and decoded for readability.
"""
from __future__ import annotations

import json
from typing import Callable, Optional

from .engines import EngineRun, IterationRecord

Decoder = Optional[Callable[[int], tuple]]

# json.dumps(doc, sort_keys=True) builds an encoder per call; one serves every line.
_encode = json.JSONEncoder(sort_keys=True).encode


def record_line(record: IterationRecord, decoder: Decoder = None) -> str:
    doc = {
        "iter": record.iteration,
        "trace_entry": record.entry,
        "candidate": record.candidate,
        "cex": record.cex,
        "event": record.event,
    }
    if decoder is not None:
        if record.entry is not None:
            doc["trace_entry_pair"] = list(decoder(record.entry))
        if record.cex is not None:
            doc["cex_pair"] = list(decoder(record.cex))
    return _encode(doc)


def run_jsonl(run: EngineRun, decoder: Decoder = None) -> str:
    return "\n".join(record_line(r, decoder) for r in run.iterations) + "\n"


def summary_dict(run: EngineRun) -> dict:
    return {
        "verdict": run.status,
        "final": run.final.descriptor(),
        "semantic_match": run.semantic_match,
        "queries": run.queries,
        "probes": run.probes,
        "counterexamples": run.cex_count,
        "iterations": len(run.iterations),
        "converged_at": run.converged_at,
    }
