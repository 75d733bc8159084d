"""Output checks and the virtual-time digest.

Nothing here looks at host time. A message is identified by ``(src, dst,
tag)``; the ledgers come from :class:`instrument.Probe`.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = [
    "Expect",
    "MessageCheck",
    "check_expected",
    "check_paired",
    "check_complete",
    "build_digest",
    "combine_digests",
    "parse_experiments",
    "compare_experiments",
    "paper_error_pct",
]


@dataclass(frozen=True)
class Expect:
    """What one message must deliver. ``due_us`` is its open-loop due time;
    None times it from the post of its send."""

    size: int
    payload: Any = None
    due_us: Optional[float] = None


@dataclass
class MessageCheck:
    """Outcome of checking one build's messages."""

    attempted: int = 0
    failed: int = 0
    #: simulated one-way latency of each delivered message, by message
    latencies_us: dict[Any, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _split(records: Iterable[tuple]) -> tuple[dict, dict]:
    sends: dict[tuple, list[tuple]] = defaultdict(list)
    recvs: dict[tuple, list[tuple]] = defaultdict(list)
    for rec in records:
        (sends if rec[0] == "s" else recvs)[rec[1:4]].append(rec)
    return sends, recvs


def check_expected(records: list[tuple], expected: dict[tuple, Expect]) -> MessageCheck:
    """Exactly-once delivery with size and payload for known messages.

    A message fails when its send or its receive did not complete exactly
    once, or when the receive got another size or payload. Completions of
    messages nobody sent are reported as problems.
    """
    out = MessageCheck(attempted=len(expected))
    sends, recvs = _split(records)
    for key in sorted(set(recvs) - set(expected)):
        out.problems.append(f"unexpected delivery {key}")
    for key, want in expected.items():
        s, r = sends.get(key, ()), recvs.get(key, ())
        if len(s) != 1 or len(r) != 1:
            out.failed += 1
            continue
        _, _, _, _, size, _, done_at, data = r[0]
        if size != want.size or (want.payload is not None and data != want.payload):
            out.failed += 1
            continue
        start = s[0][5] if want.due_us is None else want.due_us
        out.latencies_us[key] = done_at - start
    if out.failed:
        out.problems.append(f"{out.failed} of {out.attempted} messages failed")
    return out


def check_paired(builds: Iterable[list[tuple]]) -> MessageCheck:
    """Every completed send has one completed receive of the same size.

    For programs whose messages the benchmark does not generate itself:
    within each build's records, sends and receives of one ``(src, dst,
    tag)`` pair up in completion order.
    """
    sends: dict[tuple, list[tuple]] = defaultdict(list)
    recvs: dict[tuple, list[tuple]] = defaultdict(list)
    for b, records in enumerate(builds):
        for rec in records:
            (sends if rec[0] == "s" else recvs)[(b, *rec[1:4])].append(rec)
    out = MessageCheck(attempted=sum(len(v) for v in sends.values()))
    for key in sorted(set(recvs) - set(sends)):
        out.problems.append(f"delivery without a send {key}")
    for key, slist in sends.items():
        rlist = recvs.get(key, [])
        for i, s in enumerate(slist):
            if i >= len(rlist) or rlist[i][4] != s[4]:
                out.failed += 1
            else:
                out.latencies_us[(*key, i)] = rlist[i][6] - s[5]
        if len(rlist) > len(slist):
            out.problems.append(f"{len(rlist) - len(slist)} extra deliveries {key}")
    if out.failed:
        out.problems.append(f"{out.failed} of {out.attempted} messages failed")
    return out


def check_complete(runtime: Any, records: list[tuple]) -> list[str]:
    """Every request a runtime's sessions posted completed."""
    posted = Counter()
    for nrt in runtime.nodes:
        posted["s"] += nrt.session.stats["sends"]
        posted["r"] += nrt.session.stats["recvs"]
    done = Counter(rec[0] for rec in records)
    return [
        f"{posted[k] - done[k]} {word} requests left incomplete"
        for k, word in (("s", "send"), ("r", "receive"))
        if posted[k] != done[k]
    ]


# ---------------------------------------------------------------- digest


def build_digest(end_us: float, events: int, records: Iterable[tuple]) -> str:
    """Digest of one build's virtual-time outcome.

    Covers the final virtual time, the events fired and the sorted
    ``(kind, src, dst, tag, size, completion time)`` of every completed
    request. Request and packet ids are left out, so the digest does not
    depend on how many requests the process created before.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{end_us!r}|{events}".encode())
    for rec in sorted((r[0], r[1], r[2], r[3], r[4], r[6]) for r in records):
        h.update(repr(rec).encode())
    return h.hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """One digest for a pass, independent of the order of its builds."""
    h = hashlib.blake2b(digest_size=16)
    for d in sorted(digests):
        h.update(d.encode())
    return h.hexdigest()


# ---------------------------------------------------------------- paper figures


_NUM = re.compile(r"-?\d+(?:\.\d+)?")


def _cells(line: str) -> list[str]:
    return [c.strip() for c in line.strip().strip("|").split("|")]


def _section(text: str, heading: str) -> list[str]:
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(heading))
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("## ")), len(lines)
    )
    return lines[start:end]


def _first_table(lines: list[str]) -> list[list[str]]:
    rows: list[list[str]] = []
    for ln in lines:
        if ln.startswith("|"):
            rows.append(_cells(ln))
        elif rows:
            break
    return [r for r in rows if not set("".join(r)) <= set("-: ")]


def parse_experiments(text: str) -> dict[str, Any]:
    """The measured tables of EXPERIMENTS.md, as printed.

    Returns ``{"fig5": {series: [cell, ...]}, "fig6": ..., "table1":
    {row: [cell, ...]}}`` where series names are lower-cased headers and
    each cell is the number as printed (a string, so its precision is
    kept).
    """
    out: dict[str, Any] = {}
    for key, heading in (("fig5", "## Figure 5"), ("fig6", "## Figure 6")):
        header, *rows = _first_table(_section(text, heading))
        out[key] = {
            name.lower(): [_NUM.search(r[i]).group() for r in rows]  # type: ignore[union-attr]
            for i, name in enumerate(header)
            if i > 0
        }
    _header, *rows = _first_table(_section(text, "## Table 1"))
    out["table1"] = {
        re.sub(r"[*]", "", r[0]).strip(): [_NUM.search(c).group() for c in r[1:]]  # type: ignore[union-attr]
        for r in rows
    }
    return out


def _printed(value: float, like: str) -> str:
    decimals = len(like.split(".")[1]) if "." in like else 0
    return f"{value:.{decimals}f}"


def compare_experiments(results: dict[str, Any], doc: dict[str, Any]) -> list[str]:
    """Mismatches between experiment results and the documented tables,
    each value rounded to the precision the document prints."""
    problems: list[str] = []
    for fig in ("fig5", "fig6"):
        series = {k.lower(): v for k, v in results[fig].series.items()}
        for name, cells in doc[fig].items():
            got = series.get(name)
            if got is None or len(got) != len(cells):
                problems.append(f"{fig}: series {name!r} missing or wrong length")
                continue
            for x, value, cell in zip(results[fig].x_values, got, cells):
                if _printed(value, cell) != cell:
                    problems.append(f"{fig} {name} @{x}B: {value:.3f} != {cell}")
    rows = results["table1"].rows
    for label, field_name in (
        ("measured — no offloading", "no_offloading_us"),
        ("measured — offloading", "offloading_us"),
        ("measured — speedup", "speedup_pct"),
    ):
        for row, cell in zip(rows, doc["table1"][label]):
            if _printed(row[field_name], cell) != cell:
                problems.append(f"table1 {label} {row['label']}: {row[field_name]:.3f} != {cell}")
    return problems


def paper_error_pct(table1: Any, doc: dict[str, Any]) -> float:
    """Largest relative error (%) of the six Table 1 cells against the paper."""
    worst = 0.0
    for label, field_name in (
        ("paper — no offloading", "no_offloading_us"),
        ("paper — offloading", "offloading_us"),
        ("paper — speedup", "speedup_pct"),
    ):
        for row, cell in zip(table1.rows, doc["table1"][label]):
            paper = float(cell)
            worst = max(worst, abs(row[field_name] - paper) / paper * 100.0)
    return worst
