#!/usr/bin/env python3
"""List `pub` items that no non-test code names, and fail on new ones.

rustc's `dead_code` lint only sees items it can prove private to a crate
(`pub(crate)` and narrower), so a `pub` item whose last caller went away
slips through clippy. This script closes that gap by name: it lists every
`pub fn/struct/enum/const/type/trait/static` under `crates/*/src` whose
identifier appears nowhere in non-test code besides its own definition.

Non-test code means:
  * crate sources above each file's first `#[cfg(test)]` (bins included);
  * `perfbench/src` and `perfbench/tests` (the benchmark drives the crates
    from outside the workspace);
  * `examples/` and the root facade `src/`.
Comments and string literals do not count as naming an item.

Items that stay `pub` on purpose although nothing above names them (an
integration test or a doctest is their only caller) are listed in ALLOWED
with a one-line reason. Any other hit exits 1: narrow the item to
`pub(crate)` and let clippy's `dead_code` say whether it can go.

Usage:
    python3 scripts/unused_pub.py

Run from the workspace root.
"""

import re
import sys
from pathlib import Path

ITEM = re.compile(
    r"^\s*pub (?:(?:const |async |unsafe )*)"
    r"(fn|struct|enum|const|type|trait|static) +([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
STRING = re.compile(r'"(?:\\.|[^"\\])*"')

# `crate::name` -> why the item stays `pub` with no non-test caller.
ALLOWED = {
    "emesh::with_t_r": "MeshConfig builder used only by tests executor_golden and reset_props",
    "emesh::mean_hops_to_memif": "used only by integration test collective_identity",
    "emesh::load_uniform_random": "used only by integration test executor_golden",
    "fft::ONE": "Complex64::ONE, a fixture for unit tests in fft and psync",
    "memory::row_switch_cost": "used only by integration test burst_props",
    "pscan::audit_disjoint": "used only by tests/proptests.rs",
    "pscan::iter_slots": "used only by integration test bus_oracle's reference model",
    "psync::with_dram": "MachineConfig builder used only by integration test sca_pins",
    "sim-core::with_token": "used only by integration test cancellation_props",
    "sim-core::with_cycle_bound": "used only by tests reset_props and cancellation_props",
    "sim-core::generate": "FaultSchedule::generate, used only by tests/proptests_faults.rs",
    "sim-core::pop_due": "FaultSchedule::pop_due, used only by tests/proptests_faults.rs",
    "sim-core::series_count": "used only by the telemetry module doctest",
    "sim-core::span_count": "used only by the span! macro doctest",
    "sim-core::gauge_value": "used only by integration test telemetry_trace",
}


def non_test(path: Path) -> list[str]:
    """Lines above the file's first `#[cfg(test)]`."""
    out = []
    for line in path.read_text().splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        out.append(line)
    return out


def code(line: str) -> str:
    """A source line without string literals and `//` comments."""
    return STRING.sub('""', line).split("//")[0]


def main() -> int:
    corpus = []
    for root in ("crates", "perfbench/src", "perfbench/tests", "examples", "src"):
        for path in sorted(Path(root).glob("**/*.rs")):
            parts = path.parts
            if "target" in parts or (parts[0] == "crates" and parts[2] != "src"):
                continue
            corpus.append((path, non_test(path)))

    uses: dict[str, int] = {}
    for _, lines in corpus:
        for line in lines:
            for w in WORD.findall(code(line)):
                uses[w] = uses.get(w, 0) + 1

    items = []
    for path, lines in corpus:
        if path.parts[0] != "crates" or "bin" in path.parts:
            continue
        for n, line in enumerate(lines, 1):
            m = ITEM.match(line)
            if m:
                items.append((f"{path.parts[1]}::{m.group(2)}", f"{path}:{n}", m.group(2)))

    unused = [(key, loc) for key, loc, name in items if uses.get(name, 0) <= 1]
    stale = sorted(set(ALLOWED) - {key for key, _ in unused})
    new = [(key, loc) for key, loc in unused if key not in ALLOWED]

    for key, loc in new:
        print(f"unused pub item: {key} ({loc})")
    for key in stale:
        print(f"allowlist entry no longer needed: {key}")
    if new or stale:
        print("narrow each unused item to `pub(crate)` (clippy's dead_code then says "
              "whether it can go), or allowlist it in scripts/unused_pub.py with a reason")
        return 1
    print(f"{len(items)} pub items, {len(unused)} allowlisted, none unused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
