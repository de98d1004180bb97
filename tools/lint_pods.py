#!/usr/bin/env python3
"""Layout and tracing-discipline lint (CI: pod-lint job).

Grep-based structural checks over src/ that guard the contracts the
hot paths rely on but the compiler only partially enforces:

 1. TraceRecord stays a packed, fixed-width POD: every member uses a
    fixed-size type and the 32-byte static_assert is present. The
    trace ring's zero-allocation claim and the Chrome exporter's
    math both assume this layout.

 2. Tracer::record() compiles to nothing under MSCP_TRACE_DISABLED:
    the body must be inside an '#ifndef MSCP_TRACE_DISABLED' region
    so the trace-off build's benches stay byte-identical for free.

 3. Tracer record call sites stay guarded: 'tracer->record(' must
    sit under an 'if (tracer' null check (the tracer pointer is the
    opt-in), and direct '_tracer.record(' calls are allowed only
    inside the engine's trace() wrapper, which stamps the current
    tick exactly once. Everything else must route through trace().

 4. Msg stays trivially copyable: the static_assert on
    is_trivially_copyable_v<Msg> must be present, and neither Msg
    nor its inline state field MsgField may hold a std::vector, a
    DynamicBitset or a cache::StateField (whose present vector lives
    on the heap). Sends, the message slab, retry copies and every
    model-checker snapshot copy messages as bytes. Every member has
    a known type, since the canonical serializer and the replay
    fingerprint enumerate Msg fields explicitly and must be updated
    in lockstep with any new member -- flag the drift here, not in a
    debugger.

 5. The event loop's inline storage stays allocation-free:
    LatencySink stays an InlineCallback alias; InlineCallback keeps
    its trivially-copyable / trivially-destructible static_asserts,
    its pointer-aligned buffer with the alignof static_assert, and
    the sizeof(InlineCallback<>) == 32 pin; the event queue's heap
    entry keeps its 32-byte and trivially-copyable static_asserts
    (sifts move entries, never callbacks); and timed_network.cc
    keeps its InlineFunction::fitsInline static_assert on the
    delivery event (a delivery that outgrew the buffer would
    allocate once per message).

 6. MailboxSlot stays a fixed-width trivially-copyable POD sized to
    exactly one 64-byte cache line: PDES cross-shard sends memcpy
    slots between threads, and the ring's no-false-sharing claim
    depends on the cache-line size. Both static_asserts must stay.

 7. The metrics hot-path PODs keep their frozen layouts: MetricId
    stays a packed 8-byte handle and MetricWindowHeader a packed
    32-byte ring header, every member fixed-width, with the size
    and trivially-copyable static_asserts present. The sampler ring
    memcpys headers and the JSONL/Perfetto exporters do stride math
    on these layouts.

 8. The model checker's hot PODs keep their frozen layouts:
    ActionFootprint (verify/por.hh) stays a packed 24-byte
    fixed-width struct -- the explorer stores one per frame slot
    and per sleep-set entry, so the independence test is a pure
    bit-ops inline -- and LivenessFrame (verify/liveness.hh) stays
    an 8-byte pair so the iterative Tarjan stack holds millions of
    frames without blowing memory on the widest configs. Size and
    trivially-copyable static_asserts must stay in both headers.

Run from the repo root:  python3 tools/lint_pods.py
Exit status 0 iff every check passes; findings go to stderr.
'--selftest' additionally feeds checks 4, 5, 7 and 8 deliberately
corrupted sources and fails unless the lint flags them (guards the
guard).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

errors = []


def fail(path, line, msg):
    errors.append(f"{path.relative_to(ROOT)}:{line}: {msg}")


def extract_struct(text, name):
    """Return (body, first_line_number) of 'struct <name> { ... }'."""
    m = re.search(r"struct\s+" + name + r"\s*\n?\s*\{", text)
    if not m:
        return None, 0
    depth = 0
    start = text.index("{", m.start())
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                body = text[start + 1:i]
                line = text.count("\n", 0, start) + 1
                return body, line
    return None, 0


def member_lines(body):
    """Yield (offset, type, rest) for each 'Type name...;' line,
    with or without a '= init' or '{init}' initializer."""
    for off, raw in enumerate(body.splitlines()):
        line = raw.split("//")[0].split("///")[0].strip()
        m = re.match(
            r"([A-Za-z_][\w:<>,\s]*?)\s+([A-Za-z_]\w*)\s*"
            r"(\[\d+\])?\s*(=[^;]*|\{[^;]*\})?;",
            line)
        if m:
            yield off, m.group(1).strip(), m.group(2)


def check_trace_record():
    path = SRC / "sim" / "trace.hh"
    text = path.read_text()
    body, line = extract_struct(text, "TraceRecord")
    if body is None:
        fail(path, 1, "struct TraceRecord not found")
        return
    fixed = {"Tick", "std::uint64_t", "std::uint32_t",
             "std::uint16_t", "std::uint8_t"}
    for off, mtype, name in member_lines(body):
        if mtype not in fixed:
            fail(path, line + off,
                 f"TraceRecord member '{name}' has non-fixed-width "
                 f"type '{mtype}' (32-byte POD contract)")
    if not re.search(r"static_assert\(sizeof\(TraceRecord\)\s*==\s*32",
                     text):
        fail(path, line, "missing sizeof(TraceRecord) == 32 "
                         "static_assert")

    rec = text.find("record(TraceEvent kind")
    if rec < 0:
        fail(path, 1, "Tracer::record() not found")
    else:
        window = text[rec:rec + 600]
        if "#ifndef MSCP_TRACE_DISABLED" not in window:
            fail(path, text.count("\n", 0, rec) + 1,
                 "Tracer::record() body is not compiled out under "
                 "MSCP_TRACE_DISABLED")


def check_record_call_sites():
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.hh")):
        lines = path.read_text().splitlines()
        for i, raw in enumerate(lines):
            code = raw.split("//")[0]
            if "tracer->record(" in code:
                ctx = "\n".join(lines[max(0, i - 6):i + 1])
                if "if (tracer" not in ctx:
                    fail(path, i + 1,
                         "tracer->record() without an 'if (tracer' "
                         "guard in the preceding lines")
            if "_tracer.record(" in code:
                if path != SRC / "sim" / "trace.hh":
                    ctx = "\n".join(lines[max(0, i - 10):i + 1])
                    if "void trace(TraceEvent" not in ctx:
                        fail(path, i + 1,
                             "_tracer.record() outside the trace() "
                             "wrapper; route tracing through trace()")


# Member types Msg and MsgField may use: scalars, the inline field
# and the fixed-size payload and present-vector types.
MSG_TYPES = {
    "Msg": {"MsgType", "NodeId", "bool", "BlockId", "unsigned",
            "std::uint64_t", "std::uint32_t", "std::uint8_t",
            "MsgField",
            "std::array<std::uint64_t, MsgMaxBlockWords>"},
    "MsgField": {"cache::State", "bool", "NodeId", "NodeSet"},
}
# Members that put storage on the heap.
HEAP_TYPES = ("std::vector", "DynamicBitset", "cache::StateField",
              "StateField")


def check_msg(text=None):
    path = SRC / "proto" / "concurrent.hh"
    if text is None:
        text = path.read_text()
    for name, allowed in MSG_TYPES.items():
        body, line = extract_struct(text, name)
        if body is None:
            fail(path, 1, f"struct {name} not found")
            continue
        for off, mtype, member in member_lines(body):
            if any(mtype.startswith(h) for h in HEAP_TYPES):
                fail(path, line + off,
                     f"{name} member '{member}' has heap-held type "
                     f"'{mtype}'; Msg must stay trivially copyable")
            elif mtype not in allowed:
                fail(path, line + off,
                     f"{name} member '{member}' has unexpected type "
                     f"'{mtype}'; the verify serializer and the replay "
                     f"fingerprint enumerate Msg fields explicitly")
    if not re.search(r"static_assert\(\s*std::"
                     r"is_trivially_copyable_v<Msg>", text):
        fail(path, 1, "missing is_trivially_copyable_v<Msg> "
                      "static_assert")


def check_inline_storage(texts=None):
    def read(path):
        if texts and path.name in texts:
            return texts[path.name]
        return path.read_text()

    path = SRC / "proto" / "concurrent.hh"
    if not re.search(r"using\s+LatencySink\s*=\s*InlineCallback<",
                     read(path)):
        fail(path, 1, "LatencySink is no longer an InlineCallback "
                      "alias (zero-allocation sampling contract)")
    inl = SRC / "sim" / "inline_function.hh"
    text = read(inl)
    for trait in ("is_trivially_copyable_v",
                  "is_trivially_destructible_v"):
        if trait not in text:
            fail(inl, 1, f"InlineCallback lost its {trait} "
                         f"static_assert")
    if not (re.search(r"alignas\(Align\)", text) and
            re.search(r"static_assert\(alignof\(Fn\)\s*<=\s*Align",
                      text)):
        fail(inl, 1, "InlineCallback lost its pointer-aligned buffer "
                     "or the alignof(Fn) <= Align static_assert")
    if not re.search(r"static_assert\(sizeof\(InlineCallback<>\)"
                     r"\s*==\s*32", text):
        fail(inl, 1, "missing sizeof(InlineCallback<>) == 32 "
                     "static_assert")

    evq = SRC / "sim" / "eventq.hh"
    text = read(evq)
    if not re.search(r"static_assert\(sizeof\(HeapEntry\)\s*==\s*32",
                     text):
        fail(evq, 1, "missing sizeof(HeapEntry) == 32 static_assert")
    if not re.search(r"static_assert\(\s*std::"
                     r"is_trivially_copyable_v<HeapEntry>", text):
        fail(evq, 1, "missing is_trivially_copyable_v<HeapEntry> "
                     "static_assert")

    tn = SRC / "net" / "timed_network.cc"
    if not re.search(r"static_assert\(\s*InlineFunction::fitsInline<",
                     read(tn)):
        fail(tn, 1, "the delivery event lost its InlineFunction::"
                    "fitsInline static_assert (each delivery could "
                    "allocate)")


def check_mailbox_slot():
    path = SRC / "sim" / "pdes.hh"
    text = path.read_text()
    body, line = extract_struct(text, "MailboxSlot")
    if body is None:
        fail(path, 1, "struct MailboxSlot not found")
        return
    fixed = {"Tick", "std::uint64_t", "std::uint32_t",
             "std::uint16_t", "std::uint8_t"}
    for off, mtype, name in member_lines(body):
        if mtype not in fixed:
            fail(path, line + off,
                 f"MailboxSlot member '{name}' has non-fixed-width "
                 f"type '{mtype}' (cross-thread memcpy contract)")
    if not re.search(r"static_assert\(sizeof\(MailboxSlot\)\s*==\s*64",
                     text):
        fail(path, line, "missing sizeof(MailboxSlot) == 64 "
                         "static_assert (one cache line)")
    if not re.search(
            r"static_assert\("
            r"std::is_trivially_copyable_v<MailboxSlot>", text):
        fail(path, line, "missing is_trivially_copyable_v"
                         "<MailboxSlot> static_assert")


METRIC_PODS = (
    ("MetricId", 8, {"std::uint32_t", "std::uint16_t"}),
    ("MetricWindowHeader", 32, {"std::uint64_t"}),
)


def check_metric_pods(text=None):
    path = SRC / "sim" / "metrics.hh"
    if text is None:
        text = path.read_text()
    for name, size, fixed in METRIC_PODS:
        body, line = extract_struct(text, name)
        if body is None:
            fail(path, 1, f"struct {name} not found")
            continue
        for off, mtype, member in member_lines(body):
            if mtype not in fixed:
                fail(path, line + off,
                     f"{name} member '{member}' has non-fixed-width "
                     f"type '{mtype}' ({size}-byte POD contract)")
        if not re.search(r"static_assert\(sizeof\(" + name +
                         r"\)\s*==\s*" + str(size), text):
            fail(path, line,
                 f"missing sizeof({name}) == {size} static_assert")
        if not re.search(r"static_assert\(\s*std::"
                         r"is_trivially_copyable_v<" + name + ">",
                         text):
            fail(path, line, f"missing is_trivially_copyable_v"
                             f"<{name}> static_assert")


VERIFY_PODS = (
    ("por.hh", "ActionFootprint", 24,
     {"std::uint64_t", "std::uint32_t", "std::uint8_t"}),
    ("liveness.hh", "LivenessFrame", 8, {"std::uint32_t"}),
)


def check_verify_pods(texts=None):
    for fname, name, size, fixed in VERIFY_PODS:
        path = SRC / "verify" / fname
        text = texts[name] if texts else path.read_text()
        body, line = extract_struct(text, name)
        if body is None:
            fail(path, 1, f"struct {name} not found")
            continue
        for off, mtype, member in member_lines(body):
            if mtype not in fixed:
                fail(path, line + off,
                     f"{name} member '{member}' has non-fixed-width "
                     f"type '{mtype}' ({size}-byte POD contract)")
        if not re.search(r"static_assert\(sizeof\(" + name +
                         r"\)\s*==\s*" + str(size), text):
            fail(path, line,
                 f"missing sizeof({name}) == {size} static_assert")
        if not re.search(r"static_assert\(\s*std::"
                         r"is_trivially_copyable_v<" + name + ">",
                         text):
            fail(path, line, f"missing is_trivially_copyable_v"
                             f"<{name}> static_assert")


# A Msg grown a heap-held payload vector, its trivially-copyable
# static_assert gone, for --selftest. Check 4 must flag both.
SELFTEST_BAD_MSG = """
    struct MsgField
    {
        cache::State state = cache::State::Invalid;
        NodeSet present;
    };

    struct Msg
    {
        MsgType type = MsgType::LoadReq;
        NodeId src = 0;
        MsgField field{};
        std::vector<std::uint64_t> payload{};
    };
"""


# Deliberately broken event-loop storage for --selftest: a heap
# entry grown to 40 bytes (its size pin edited to match) and a
# delivery event scheduled without the fitsInline assert. Check 5
# must flag both or the lint has gone blind.
SELFTEST_BAD_INLINE = {
    "eventq.hh": """
struct HeapEntry
{
    Tick when;
    std::uint64_t key;
    std::uint64_t seq;
    std::uint64_t slot;
    std::uint64_t spare;
};
static_assert(sizeof(HeapEntry) == 40);
static_assert(std::is_trivially_copyable_v<HeapEntry>);
""",
    "timed_network.cc": """
    eq.schedule([on_delivery, dst, when] {
        on_delivery(dst, when);
    }, when);
""",
}


# Deliberately broken metrics PODs for --selftest: a non-fixed-width
# member, a dynamic member and no static_asserts. Check 7 must flag
# every struct here or the lint has gone blind.
SELFTEST_BAD = """
struct MetricId
{
    std::size_t slot = 0;
    std::uint16_t cols = 1;
};

struct MetricWindowHeader
{
    std::uint64_t window;
    std::string label;
};
"""


# Deliberately broken verify PODs for --selftest: a size_t member,
# a dynamic member and no static_asserts. Check 8 must flag every
# struct here or the lint has gone blind.
SELFTEST_BAD_VERIFY = {
    "ActionFootprint": """
struct ActionFootprint
{
    std::size_t comps = 0;
    std::uint8_t global = 0;
};
""",
    "LivenessFrame": """
struct LivenessFrame
{
    std::uint32_t state = 0;
    std::vector<std::uint32_t> edges;
};
""",
}


def selftest():
    check_msg()
    check_inline_storage()
    check_metric_pods()
    check_verify_pods()
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print("lint_pods --selftest: repo sources must pass "
              "checks 4, 5, 7 and 8 first", file=sys.stderr)
        return 1
    check_msg(text=SELFTEST_BAD_MSG)
    check_inline_storage(texts=SELFTEST_BAD_INLINE)
    check_metric_pods(text=SELFTEST_BAD)
    check_verify_pods(texts=SELFTEST_BAD_VERIFY)
    flagged = list(errors)
    errors.clear()
    wanted = ["'payload' has heap-held type",
              "is_trivially_copyable_v<Msg>",
              "sizeof(HeapEntry)", "fitsInline",
              "'slot'", "'label'", "sizeof(MetricId)",
              "sizeof(MetricWindowHeader)",
              "is_trivially_copyable_v<MetricId>",
              "'comps'", "'edges'", "sizeof(ActionFootprint)",
              "sizeof(LivenessFrame)",
              "is_trivially_copyable_v<ActionFootprint>",
              "is_trivially_copyable_v<LivenessFrame>"]
    missing = [w for w in wanted
               if not any(w in e for e in flagged)]
    if missing:
        for e in flagged:
            print(e, file=sys.stderr)
        print(f"lint_pods --selftest: corrupted input not fully "
              f"flagged, missing findings about {missing}",
              file=sys.stderr)
        return 1
    print(f"lint_pods --selftest: checks 4, 5, 7 and 8 flagged all "
          f"{len(flagged)} planted defects")
    return 0


def main():
    if "--selftest" in sys.argv[1:]:
        return selftest()
    check_trace_record()
    check_record_call_sites()
    check_msg()
    check_inline_storage()
    check_mailbox_slot()
    check_metric_pods()
    check_verify_pods()
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"lint_pods: {len(errors)} finding(s)", file=sys.stderr)
        return 1
    print("lint_pods: all layout and tracing checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
