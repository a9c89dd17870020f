"""File/symbol-level exemptions for lint2 findings.

Every entry must carry a written justification: the reviewer-facing argument
for why the flagged construct cannot break determinism or thread safety.
Line-level escapes use `// lint-ok: <rule>` in the source instead; this file
is for structural exemptions where an inline comment would be misleading
(e.g. a whole function blessed as a delegate) or where the justification is
too long for a trailing comment.

Keys are (rule, repo-relative path, symbol).  `symbol` is matched against the
finding's subject: the variable name for global-state, the enclosing function
name (unqualified) for observer-completeness, the container expression for
unordered-iter.  An empty symbol exempts the whole file for that rule.
"""

from __future__ import annotations

ALLOWLIST: dict[tuple[str, str, str], str] = {
    ("observer-completeness", "src/mapreduce/task_tracker.cpp",
     "release_slot"):
        "Pure slot-count delegate: decrements running_maps_/running_reduces_ "
        "on behalf of the finish/fail/kill/timeout paths, every one of which "
        "emits its attempt-level audit_transition() before calling here.  "
        "Emitting again inside the delegate would double-count transitions "
        "in the auditor's conservation ledger.",
}

# Hash-ordered container *declarations* in order-sensitive subsystems (the
# declaration half of unordered-iter) where hash ordering is provably
# harmless: lookups only, never iterated where order can leak into decisions
# or RNG consumption.  Keys are (path, member name); an entry exempts the
# declaration only, so a loop over the same member is still reported.
UNORDERED_DECL_ALLOWLIST: dict[tuple[str, str], str] = {
    ("src/sim/simulator.h", "slot_of_"):
        "id -> slot lookup on cancel and pop only; never iterated (the pop "
        "order comes from the (time, seq) heap)",
}


def allowed(rule: str, rel: str, symbol: str) -> bool:
    """True when (rule, rel, symbol) is exempted (exact or whole-file)."""
    key = (rule, rel, _unqualify(symbol))
    if key in ALLOWLIST:
        return True
    return (rule, rel, "") in ALLOWLIST


def _unqualify(symbol: str) -> str:
    return symbol.rsplit("::", 1)[-1] if symbol else symbol
