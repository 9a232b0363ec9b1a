#!/usr/bin/env python3
"""Check the gate lines of a script's output at one commit against its parent's.

Each of `scripts/cli_digest.py`, `solve_digest.py` and `verify_matrix.py`
ends its output with one line per gate,

    gate <name> <value> <rule>

the value an integer count and the rule one of

    no-fewer   the value at HEAD is at least the value at HEAD^
    no-more    the value at HEAD is at most the value at HEAD^
    zero       the value at HEAD is 0

Given the script's output at HEAD and at HEAD^, this prints one line per
gate with both values and its verdict.  It exits 1, after a last line that
names every failing gate, when a gate breaks its rule, is missing from
either output or cannot be read, or when neither output states any gate.
HEAD's line gives the rule.

    python3 scripts/gates.py HEAD_OUTPUT PARENT_OUTPUT
"""

import sys

RULES = {
    "no-fewer": lambda head, parent: head >= parent,
    "no-more": lambda head, parent: head <= parent,
    "zero": lambda head, parent: head == 0,
}


def read_gates(text: str) -> tuple[dict[str, tuple[int, str]], list[str]]:
    """{name: (value, rule)} of the gate lines in text, and the names of the unreadable ones."""
    gates, unreadable = {}, []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] != "gate":
            continue
        try:
            _, name, value, rule = fields
            gates[name] = int(value), rule
        except ValueError:
            unreadable.append(fields[1] if len(fields) > 1 else line)
            continue
        if rule not in RULES:
            unreadable.append(name)
    return gates, unreadable


def check(head_text: str, parent_text: str) -> tuple[list[str], list[str]]:
    """One verdict line per gate, and the names of the gates that fail."""
    head, head_unreadable = read_gates(head_text)
    parent, parent_unreadable = read_gates(parent_text)
    lines, failed = [], []
    for name in sorted(set(head_unreadable + parent_unreadable)):
        lines.append(f"{name}: unreadable gate line")
        failed.append(name)
    for name in sorted(head.keys() | parent.keys()):
        if name in failed:
            continue
        if name not in head or name not in parent:
            lines.append(f"{name}: missing at {'HEAD' if name not in head else 'HEAD^'}")
            failed.append(name)
            continue
        (value, rule), (parent_value, _) = head[name], parent[name]
        ok = RULES[rule](value, parent_value)
        lines.append(f"{name}: HEAD {value}, HEAD^ {parent_value}, {rule}: {'ok' if ok else 'broken'}")
        if not ok:
            failed.append(name)
    if not head and not parent and not failed:
        lines.append("no gate lines at HEAD or HEAD^")
        failed.append("(none stated)")
    return lines, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: gates.py HEAD_OUTPUT PARENT_OUTPUT", file=sys.stderr)
        return 2
    texts = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    lines, failed = check(*texts)
    for line in lines:
        print(line)
    if failed:
        print(f"failing gates: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
