#!/usr/bin/env python3
"""Checks that two JSONL traces differ only in the order of one event type.

    python3 scripts/check_link_alloc_reorder.py [--type=TYPE] OLD.jsonl.gz NEW.jsonl.gz

TYPE is link_alloc (the default) or bulk_done. Used when a change moves the
emission of that event from one deterministic order to another (e.g. hash
order -> link-id or flow-id order) and a golden trace is regenerated. Both
traces are split into maximal runs of consecutive TYPE lines and the lines
between them. Each run must hold the same events in both traces once the
"seq" field is stripped (compared as sorted lists, so duplicates count);
every other line must match byte for byte. Inputs may be gzipped (.gz) or
plain. Exit status 0 when the traces are equivalent, 1 with the first
difference otherwise, 2 on bad arguments.
"""

import gzip
import re
import sys

SEQ = re.compile(r'"seq":\d+,')
TYPES = ("link_alloc", "bulk_done")


def read_lines(path):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as f:
        return f.read().splitlines()


def segments(lines, event_type):
    """Yields (line number, kind, payload): kind "run" for a maximal run of
    `event_type` lines (payload: the seq-stripped lines), "line" otherwise."""
    marker = f'"type":"{event_type}"'
    i = 0
    while i < len(lines):
        if marker in lines[i]:
            j = i
            while j < len(lines) and marker in lines[j]:
                j += 1
            yield i + 1, "run", [SEQ.sub("", l, count=1) for l in lines[i:j]]
            i = j
        else:
            yield i + 1, "line", lines[i]
            i += 1


def compare(old_lines, new_lines, event_type="link_alloc"):
    """Returns (error or None, runs, run events, reordered runs)."""
    old_segs = list(segments(old_lines, event_type))
    new_segs = list(segments(new_lines, event_type))
    runs = events = reordered = 0
    for (o_at, o_kind, o_val), (n_at, n_kind, n_val) in zip(old_segs,
                                                            new_segs):
        same = o_kind == n_kind and (
            sorted(o_val) == sorted(n_val) if o_kind == "run" else
            o_val == n_val)
        if not same:
            what = (f"{event_type} run" if "run" in (o_kind, n_kind)
                    else "line")
            return (f"{what} differs: old line {o_at}, new line {n_at}",
                    runs, events, reordered)
        if o_kind == "run":
            runs += 1
            events += len(o_val)
            reordered += o_val != n_val
    if len(old_segs) != len(new_segs):
        return (f"segment count differs: old {len(old_segs)}, "
                f"new {len(new_segs)}", runs, events, reordered)
    return None, runs, events, reordered


def main(argv):
    event_type = "link_alloc"
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--type="):
            event_type = arg[len("--type="):]
        else:
            paths.append(arg)
    if len(paths) != 2 or event_type not in TYPES:
        sys.stderr.write(__doc__)
        return 2
    old_lines = read_lines(paths[0])
    new_lines = read_lines(paths[1])
    error, runs, events, reordered = compare(old_lines, new_lines, event_type)
    if error is not None:
        print(f"FAIL {paths[1]}: {error}")
        return 1
    print(f"OK {paths[1]}: {len(new_lines)} lines, {runs} {event_type} runs "
          f"({events} events, {reordered} runs reordered), every other line "
          f"byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
