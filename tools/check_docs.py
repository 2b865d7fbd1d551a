#!/usr/bin/env python3
"""Doc-drift gate: the normative docs must match the shipped code.

Checks (all must pass; exit 1 with a per-failure report otherwise):

  1. The frame-type table in docs/WIRE_PROTOCOL.md lists exactly the
     `kFrame*` enumerators of src/net/wire.h, each with its selector
     byte.
  2. The status-code table in docs/WIRE_PROTOCOL.md lists exactly the
     enumerators of util::StatusCode (src/util/status.h) with their
     values, and each row's C ABI name matches the whyprov_status
     enumerator of the same value in src/net/whyprov_c.h.
  3. docs/STORAGE_FORMAT.md quotes the on-disk magic strings and
     format versions declared in src/storage/wal.h and
     src/storage/checkpoint.h.
  4. Every relative markdown link in README.md, ROADMAP.md, and
     docs/*.md resolves to an existing file in the repository.
     (Links to http(s), mailto, pure anchors, and paths that escape
     the repo — the README's badge links — are out of scope.)
  5. The QoS surface: the whyprov_qos_class enumerators of
     src/net/whyprov_c.h agree with qos::QosClass (src/qos/qos.h),
     docs/WIRE_PROTOCOL.md states their values, and its per-tenant
     stats table lists exactly the fields of `struct WireTenantStats`
     (src/net/wire.h), in declaration order.
  6. The plan-simplify surface: whyprov_stats (src/net/whyprov_c.h)
     ends with the four appended plan-simplify counters and the
     plan-simplify section table of docs/WIRE_PROTOCOL.md lists
     exactly those fields, in order.
  7. The wire limits: docs/WIRE_PROTOCOL.md quotes `kMaxFrameBytes`
     and, in the kFrameEnumerate table's `batch_size` row,
     `kMaxBatchSize` with the values src/net/wire.h declares.

Usage: python3 tools/check_docs.py   (from anywhere; paths are
repo-relative to this script's parent directory)
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

WIRE_H = REPO / "src/net/wire.h"
STATUS_H = REPO / "src/util/status.h"
C_ABI_H = REPO / "src/net/whyprov_c.h"
WAL_H = REPO / "src/storage/wal.h"
CHECKPOINT_H = REPO / "src/storage/checkpoint.h"
WIRE_DOC = REPO / "docs/WIRE_PROTOCOL.md"
STORAGE_DOC = REPO / "docs/STORAGE_FORMAT.md"

LINKED_DOCS = [REPO / "README.md", REPO / "ROADMAP.md"] + sorted(
    (REPO / "docs").glob("*.md")
)


def parse_frame_enum(text):
    """kFrame* enumerators of `enum FrameType` -> {name: value}."""
    block = re.search(r"enum FrameType[^{]*\{(.*?)\}", text, re.DOTALL)
    if not block:
        raise SystemExit(f"error: cannot find 'enum FrameType' in {WIRE_H}")
    return {
        name: int(value, 16)
        for name, value in re.findall(
            r"(kFrame\w+)\s*=\s*0x([0-9a-fA-F]+)", block.group(1)
        )
    }


def parse_sequential_enum(text, enum_pattern, member_pattern, where):
    """An enum whose members may rely on implicit sequential values."""
    block = re.search(enum_pattern, text, re.DOTALL)
    if not block:
        raise SystemExit(f"error: cannot find enum in {where}")
    members = {}
    next_value = 0
    for name, explicit in re.findall(member_pattern, block.group(1)):
        value = int(explicit) if explicit else next_value
        members[name] = value
        next_value = value + 1
    return members


def parse_doc_table(doc_text, first_cell_pattern):
    """Markdown table rows whose first cell matches the pattern.

    Returns a list of rows, each a list of cell strings with the
    backtick code markup stripped.
    """
    rows = []
    for line in doc_text.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if cells and re.fullmatch(first_cell_pattern, cells[0]):
            rows.append(cells)
    return rows


def check_frame_table(failures):
    enum = parse_frame_enum(WIRE_H.read_text())
    doc = {}
    for cells in parse_doc_table(WIRE_DOC.read_text(), r"kFrame\w+"):
        if len(cells) < 2 or not re.fullmatch(r"0x[0-9a-fA-F]+", cells[1]):
            failures.append(
                f"{WIRE_DOC.name}: row for {cells[0]} lacks a 0xNN "
                "selector in its second column"
            )
            continue
        if cells[0] in doc:
            failures.append(f"{WIRE_DOC.name}: duplicate row for {cells[0]}")
        doc[cells[0]] = int(cells[1], 16)

    for name, value in sorted(enum.items(), key=lambda kv: kv[1]):
        if name not in doc:
            failures.append(
                f"{WIRE_DOC.name}: frame table is missing {name} "
                f"(selector 0x{value:02X} in net/wire.h)"
            )
        elif doc[name] != value:
            failures.append(
                f"{WIRE_DOC.name}: {name} documented as 0x{doc[name]:02X} "
                f"but net/wire.h says 0x{value:02X}"
            )
    for name in doc:
        if name not in enum:
            failures.append(
                f"{WIRE_DOC.name}: frame table lists {name}, which is not "
                "in net/wire.h"
            )


def check_status_table(failures):
    codes = parse_sequential_enum(
        STATUS_H.read_text(),
        r"enum class StatusCode\s*\{(.*?)\}",
        r"(k\w+)\s*(?:=\s*(\d+))?\s*,",
        STATUS_H,
    )
    abi = parse_sequential_enum(
        C_ABI_H.read_text(),
        r"typedef enum whyprov_status\s*\{(.*?)\}",
        r"(WHYPROV_[A-Z_]+)\s*(?:=\s*(\d+))?\s*,?",
        C_ABI_H,
    )
    abi_by_value = {v: n for n, v in abi.items()}

    doc = {}
    for cells in parse_doc_table(WIRE_DOC.read_text(), r"k[A-Z]\w+"):
        if cells[0].startswith("kFrame"):
            continue
        if len(cells) < 3 or not cells[1].isdigit():
            failures.append(
                f"{WIRE_DOC.name}: status row for {cells[0]} lacks a "
                "numeric value / C ABI name"
            )
            continue
        doc[cells[0]] = (int(cells[1]), cells[2])

    for name, value in sorted(codes.items(), key=lambda kv: kv[1]):
        if name not in doc:
            failures.append(
                f"{WIRE_DOC.name}: status table is missing {name} "
                f"(= {value} in util/status.h)"
            )
            continue
        doc_value, doc_abi = doc[name]
        if doc_value != value:
            failures.append(
                f"{WIRE_DOC.name}: {name} documented as {doc_value} but "
                f"util/status.h says {value}"
            )
        expected_abi = abi_by_value.get(value)
        if expected_abi is None:
            failures.append(
                f"{C_ABI_H.name}: no whyprov_status enumerator with "
                f"value {value} (util/status.h has {name})"
            )
        elif doc_abi != expected_abi:
            failures.append(
                f"{WIRE_DOC.name}: {name} documented as {doc_abi} but the "
                f"C ABI name for value {value} is {expected_abi}"
            )
    for name in doc:
        if name not in codes:
            failures.append(
                f"{WIRE_DOC.name}: status table lists {name}, which is "
                "not in util/status.h"
            )


def check_storage_constants(failures):
    doc = STORAGE_DOC.read_text()
    for header, magic_name, version_name in [
        (WAL_H, "kWalMagic", "kWalFormatVersion"),
        (CHECKPOINT_H, "kCheckpointMagic", "kCheckpointFormatVersion"),
    ]:
        text = header.read_text()
        magic = re.search(magic_name + r'\s*=\s*"((?:[^"\\]|\\.)*)"', text)
        version = re.search(version_name + r"\s*=\s*(\d+)", text)
        if not magic or not version:
            failures.append(
                f"{header.name}: cannot find {magic_name}/{version_name}"
            )
            continue
        # The doc quotes the magic exactly as the source literal spells
        # it (escape sequences like \n stay as two characters).
        if f'"{magic.group(1)}"' not in doc:
            failures.append(
                f'{STORAGE_DOC.name}: does not quote the magic '
                f'"{magic.group(1)}" from {header.name}'
            )
        if f"(currently {version.group(1)})" not in doc:
            failures.append(
                f"{STORAGE_DOC.name}: does not state the current format "
                f"version {version.group(1)} from {header.name} "
                f'(expected the phrase "(currently {version.group(1)})")'
            )


QOS_H = REPO / "src/qos/qos.h"


def check_qos_surface(failures):
    """The QoS lane values and the per-tenant stats row layout."""
    abi = parse_sequential_enum(
        C_ABI_H.read_text(),
        r"typedef enum whyprov_qos_class\s*\{(.*?)\}",
        r"(WHYPROV_QOS_[A-Z_]+)\s*(?:=\s*(\d+))?\s*,?",
        C_ABI_H,
    )
    cpp = parse_sequential_enum(
        QOS_H.read_text(),
        r"enum class QosClass[^{]*\{(.*?)\}",
        r"(k\w+)\s*(?:=\s*(\d+))?\s*,?",
        QOS_H,
    )
    pairs = [("WHYPROV_QOS_INTERACTIVE", "kInteractive"),
             ("WHYPROV_QOS_BATCH", "kBatch")]
    for abi_name, cpp_name in pairs:
        if abi_name not in abi or cpp_name not in cpp:
            failures.append(
                f"QoS enums: {abi_name} ({C_ABI_H.name}) or {cpp_name} "
                f"({QOS_H.name}) is missing"
            )
        elif abi[abi_name] != cpp[cpp_name]:
            failures.append(
                f"QoS enums: {abi_name} = {abi[abi_name]} but {cpp_name} "
                f"= {cpp[cpp_name]} — the lane byte must agree across "
                "the C ABI and qos/qos.h"
            )

    doc = WIRE_DOC.read_text()
    interactive = abi.get("WHYPROV_QOS_INTERACTIVE", 0)
    batch = abi.get("WHYPROV_QOS_BATCH", 1)
    phrase = f"{interactive} = interactive, {batch} = batch"
    if phrase not in doc:
        failures.append(
            f"{WIRE_DOC.name}: does not state the qos_class values "
            f'(expected the phrase "{phrase}")'
        )

    # The per-tenant table of WIRE_PROTOCOL.md vs struct WireTenantStats:
    # same field names, same order.
    struct = re.search(
        r"struct WireTenantStats\s*\{(.*?)\};", WIRE_H.read_text(), re.DOTALL
    )
    if not struct:
        failures.append(f"{WIRE_H.name}: cannot find struct WireTenantStats")
        return
    struct_fields = re.findall(
        r"^\s*(?:std::\w+|double|float|bool)\s+(\w+)",
        struct.group(1),
        re.MULTILINE,
    )
    section = re.search(
        r"per-tenant section\*\*.*?\n\n(.*?)\n\n", doc, re.DOTALL
    )
    if not section:
        failures.append(
            f"{WIRE_DOC.name}: cannot find the per-tenant section table "
            "of kFrameStatsReply"
        )
        return
    doc_fields = [
        cells[0]
        for cells in parse_doc_table(section.group(1), r"\w+")
        if cells[0] != "field"
    ]
    if doc_fields != struct_fields:
        failures.append(
            f"{WIRE_DOC.name}: per-tenant stats table fields {doc_fields} "
            f"!= WireTenantStats fields {struct_fields} (net/wire.h, "
            "declaration order)"
        )


def check_simplify_surface(failures):
    """The plan-simplify counters: C ABI struct tail vs doc table.

    The wire encoding of kFrameStatsReply writes whyprov_stats fields in
    declaration order with the simplify counters as the appended tail, so
    the doc table, the struct tail, and the field order must all agree.
    """
    expected = [
        "plans_simplified",
        "simplify_vars_removed",
        "simplify_clauses_removed",
        "simplify_micros",
    ]
    struct = re.search(
        r"typedef struct whyprov_stats\s*\{(.*?)\}",
        C_ABI_H.read_text(),
        re.DOTALL,
    )
    if not struct:
        failures.append(f"{C_ABI_H.name}: cannot find struct whyprov_stats")
        return
    fields = re.findall(
        r"^\s*(?:uint64_t|size_t|double|int)\s+(\w+);",
        struct.group(1),
        re.MULTILINE,
    )
    if fields[-len(expected):] != expected:
        failures.append(
            f"{C_ABI_H.name}: whyprov_stats must end with the appended "
            f"plan-simplify counters {expected} (wire append-only tail); "
            f"found {fields[-len(expected):]}"
        )
    section = re.search(
        r"plan-simplify\s*section\*\*.*?\n\n(.*?)\n\n",
        WIRE_DOC.read_text(),
        re.DOTALL,
    )
    if not section:
        failures.append(
            f"{WIRE_DOC.name}: cannot find the plan-simplify section "
            "table of kFrameStatsReply"
        )
        return
    doc_fields = [
        cells[0]
        for cells in parse_doc_table(section.group(1), r"\w+")
        if cells[0] != "field"
    ]
    if doc_fields != expected:
        failures.append(
            f"{WIRE_DOC.name}: plan-simplify section fields {doc_fields} "
            f"!= the appended whyprov_stats counters {expected}"
        )


# Wire limits the doc quotes as "`name` = <value>" (a KiB/MiB unit is
# allowed), and the table row each quote must sit in (None = anywhere).
WIRE_LIMITS = [
    ("kMaxFrameBytes", None),
    ("kMaxBatchSize", "batch_size"),
    ("kDefaultBatchSize", "batch_size"),
    ("kMaxSessionTickets", None),
]
UNITS = {"": 1, "KiB": 1024, "MiB": 1024 * 1024}


def check_wire_limits(failures):
    header = WIRE_H.read_text()
    doc = WIRE_DOC.read_text()
    for name, row in WIRE_LIMITS:
        declared = re.search(
            r"constexpr\s+std::\w+\s+" + name + r"\s*=\s*([^;]+);",
            header,
        )
        if not declared:
            failures.append(f"{WIRE_H.name}: cannot find constant {name}")
            continue
        value = 1
        for factor in declared.group(1).split("*"):
            value *= int(factor.strip().rstrip("uU"))
        scope = doc
        if row is not None:
            lines = [
                line for line in doc.splitlines()
                if line.startswith(f"| `{row}` |")
            ]
            scope = "\n".join(lines)
        quotes = re.findall(
            r"`" + name + r"`\s*=\s*(\d+)\s*(KiB|MiB)?", scope
        )
        where = f"the `{row}` row" if row is not None else "anywhere"
        if not quotes:
            failures.append(
                f"{WIRE_DOC.name}: does not quote `{name}` = <value> "
                f"({where})"
            )
        for number, unit in quotes:
            if int(number) * UNITS[unit] != value:
                quoted = f"{number} {unit}".strip()
                failures.append(
                    f"{WIRE_DOC.name}: quotes `{name}` = {quoted} but "
                    f"net/wire.h declares {value}"
                )


LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links(failures):
    for doc in LINKED_DOCS:
        for target in LINK_PATTERN.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if REPO not in resolved.parents and resolved != REPO:
                continue  # escapes the repo (e.g. the README badges)
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(REPO)}: broken link '{target}'"
                )


def main():
    failures = []
    check_frame_table(failures)
    check_status_table(failures)
    check_storage_constants(failures)
    check_qos_surface(failures)
    check_simplify_surface(failures)
    check_wire_limits(failures)
    check_links(failures)
    if failures:
        for failure in failures:
            print(f"DOC DRIFT: {failure}")
        print(f"\ncheck_docs: {len(failures)} failure(s)")
        return 1
    print(
        "check_docs: frame table, status table, storage constants, QoS "
        f"surface, simplify surface, wire limits, and {len(LINKED_DOCS)} "
        "files' links all match the sources"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
