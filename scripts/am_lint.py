#!/usr/bin/env python3
"""am-lint: repo-specific invariant checks the generic tools can't know.

The methodology's core promise is that merged result stores are
bit-identical to serial runs under any schedule. That property rests on
a handful of coding invariants scattered across layers; this checker
makes them mechanical:

  AM001 raw-rename          All tmp+rename dances live in
                            common/atomic_file; a raw std::rename /
                            filesystem::rename elsewhere is an
                            unreviewed durability/atomicity claim.
  AM002 determinism         src/sim and src/model must be bit-exact
                            replayable: no std::rand/random_device (use
                            common/rng.hpp) and no wall-clock or timer
                            reads (time is simulated, never sampled).
  AM003 hexfloat-wire       Doubles cross serialization boundaries only
                            through the record codec's hexfloat() writer
                            (common/record, the one holder of "%a");
                            decimal float formatting rounds and breaks
                            bit-exact round-trips. Every serialization
                            file must call hexfloat() and must not
                            format "%a" itself. (Integer std::to_string
                            is fine; a double passed to it is the one
                            case this rule cannot see — reviews still
                            matter.)
  AM004 fingerprint-cover   Every MachineConfig knob either feeds
                            machine_fingerprint (so it keys the result
                            store) or sits on the explicit exclusion
                            list below with a written rationale. A knob
                            in neither place silently aliases stores; a
                            knob in both places is a stale exclusion.
  AM005 syscall-returns     In common/socket and common/subprocess,
                            syscall return values are either consumed or
                            explicitly discarded with a (void) cast and
                            a reason — a bare call in statement position
                            is an undecided error path.

Each rule is a pure function over (path, text) — no filesystem access —
so scripts/am_lint_test.py can feed fixture snippets straight in.

Usage: am_lint.py [--root REPO]   (exit 0 clean, 1 on violations)
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- AM004 exclusion list ---------------------------------------------------
# Knobs deliberately NOT mixed into machine_fingerprint. Every entry
# needs a rationale; an entry that the fingerprint nevertheless mixes is
# reported as stale. See docs/STATIC_ANALYSIS.md for the policy.
FINGERPRINT_EXCLUSIONS = {
    "l1_filter": (
        "pure performance fast path, bit-identical by construction "
        "(sim.filter_identity_test, smoke.fig9_filter_identity); excluded "
        "so toggling it still *hits* the same cached results"
    ),
    "l2_filter": (
        "same contract as l1_filter for the L1-miss/L2-hit band: "
        "bit-identical by construction (sim.filter_identity_test, "
        "smoke.fig9_l2_filter_identity), so toggling it must keep hitting "
        "the same cached results"
    ),
}

# mem_backend/dram and set_hash are mixed conditionally (only when they
# deviate from their defaults — channel backend, mask hash) — that keeps
# pre-existing fingerprints valid. AM004 only requires the tokens to
# appear in the fingerprint body, so the conditional mix satisfies it.
# set_hash must NOT join the exclusion list: H3 changes placement and
# therefore simulated results (asserted by measure.result_store_test).


# --- C++ text utilities -----------------------------------------------------

def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments (and, unless keep_strings, string/char
    literals) while preserving line structure, so regexes don't trip on
    prose or quoted examples. Handles //, /* */, "..." with escapes,
    '...', and basic raw strings R"delim(...)delim"."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\\ \n]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i + m.end())
            end = n if end < 0 else end + len(m.group(1)) + 2
            chunk = text[i:end]
            out.append(chunk if keep_strings
                       else re.sub(r"[^\n]", " ", chunk))
            i = end
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            chunk = text[i:j]
            out.append(chunk if keep_strings
                       else re.sub(r"[^\n]", " ", chunk))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _findall_lines(pattern: str, text: str):
    return [(_line_of(text, m.start()), m.group(0).strip())
            for m in re.finditer(pattern, text)]


# --- rules ------------------------------------------------------------------

def check_raw_rename(path: str, text: str):
    """AM001: rename()/renameat() outside common/atomic_file."""
    if "common/atomic_file" in path.replace("\\", "/"):
        return []
    code = strip_comments_and_strings(text)
    return [(line, "AM001", f"raw `{tok}` — atomic replace belongs in "
             "common/atomic_file (atomic_write_file/try_atomic_write_file)")
            for line, tok in _findall_lines(r"\brename(?:at)?\s*\(", code)]


DETERMINISM_FORBIDDEN = [
    (r"\bstd::rand\b|\bsrand\s*\(", "std::rand/srand"),
    (r"\brandom_device\b", "std::random_device"),
    (r"\bsystem_clock\b", "wall clock (system_clock)"),
    (r"\bsteady_clock\b", "timer read (steady_clock)"),
    (r"\bhigh_resolution_clock\b", "timer read (high_resolution_clock)"),
    (r"\btime\s*\(", "time()"),
    (r"\bgettimeofday\b|\bclock_gettime\b", "clock syscall"),
    (r"\blocaltime\b|\bgmtime\b", "calendar time"),
]


def check_determinism(path: str, text: str):
    """AM002: nondeterminism sources inside sim/ and model/."""
    code = strip_comments_and_strings(text)
    out = []
    for pattern, what in DETERMINISM_FORBIDDEN:
        out.extend((line, "AM002",
                    f"{what} in the deterministic core (`{tok}`) — seeds "
                    "come from common/rng.hpp, time is simulated")
                   for line, tok in _findall_lines(pattern, code))
    return out


DECIMAL_FLOAT_CONVERSION = re.compile(r"%[-+ #0-9.*]*[eEfFgG]")


# The record codec holds the one "%a" writer; the serialization files
# reach it through hexfloat().
HEXFLOAT_CODEC = "src/common/record.cpp"
SERIALIZATION_FILES = ("src/measure/result_store.cpp",
                       "src/measure/plan_wire.cpp",
                       "src/common/work_lease.cpp")
HEXFLOAT_WRITER_CALL = re.compile(r"\bhexfloat\s*\(")


def check_hexfloat(path: str, text: str, writer_user: bool = False):
    """AM003: decimal float formatting in a wire-format file. The codec
    (default) must hold the "%a" writer; a serialization file
    (writer_user) must call the codec's hexfloat() and hold no "%a" of
    its own."""
    code = strip_comments_and_strings(text, keep_strings=True)
    out = []
    for m in re.finditer(r'"(?:[^"\\\n]|\\.)*"', code):
        hit = DECIMAL_FLOAT_CONVERSION.search(m.group(0))
        if hit:
            out.append((_line_of(code, m.start()), "AM003",
                        f"decimal float conversion `{hit.group(0)}` in a "
                        "serialization file — doubles cross the wire as "
                        'hexfloat ("%a") only'))
    for pattern, what in [
        (r"\bsetprecision\s*\(", "std::setprecision"),
        (r"\bstd::(?:fixed|scientific|defaultfloat)\b",
         "decimal stream manipulator"),
    ]:
        out.extend((line, "AM003",
                    f"{what} in a serialization file (`{tok}`) — doubles "
                    'cross the wire as hexfloat ("%a") only')
                   for line, tok in _findall_lines(
                       pattern, strip_comments_and_strings(text)))
    if not writer_user:
        if '"%a"' not in code:
            out.append((1, "AM003",
                        "the record codec no longer holds the hexfloat "
                        '"%a" writer — double round-trips are unprotected'))
        return out
    if not HEXFLOAT_WRITER_CALL.search(strip_comments_and_strings(text)):
        out.append((1, "AM003",
                    "serialization file no longer calls the record codec's "
                    "hexfloat() writer — double round-trips are "
                    "unprotected"))
    out.extend((line, "AM003",
                'serialization file formats "%a" itself — call the record '
                "codec's hexfloat() instead")
               for line, _ in _findall_lines(r'"%a"', code))
    return out


def machine_config_fields(machine_hpp: str):
    """Data members of struct MachineConfig (depth-1 declarations)."""
    code = strip_comments_and_strings(machine_hpp)
    m = re.search(r"^struct MachineConfig\s*\{", code, re.M)
    if not m:
        return []
    fields, depth, body = [], 1, code[m.end():]
    decl = re.compile(r"^\s*[A-Za-z_][\w:<>,*& ]*?[ &]"
                      r"([a-z][a-z0-9_]*)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")
    for line in body.splitlines():
        if depth == 1 and "(" not in line:
            dm = decl.match(line)
            if dm:
                fields.append(dm.group(1))
        depth += line.count("{") - line.count("}")
        if depth <= 0:
            break
    return fields


def check_fingerprint_coverage(machine_hpp: str, result_store_cpp: str):
    """AM004: every MachineConfig knob keys the store or is excluded."""
    fields = machine_config_fields(machine_hpp)
    if not fields:
        return [(1, "AM004", "could not parse struct MachineConfig out of "
                 "sim/machine.hpp — fix the parser or the header")]
    code = strip_comments_and_strings(result_store_cpp)
    m = re.search(r"^std::string machine_fingerprint[^{]*\{", code, re.M)
    if not m:
        return [(1, "AM004",
                 "could not find machine_fingerprint in result_store.cpp")]
    body = code[m.end():]
    end = re.search(r"^\}", body, re.M)
    body = body[:end.start()] if end else body
    mixed = set(re.findall(r"\bm\.([a-z][a-z0-9_]*)", body))
    out = []
    for f in fields:
        if f in mixed and f in FINGERPRINT_EXCLUSIONS:
            out.append((1, "AM004", f"MachineConfig.{f} is mixed into "
                        "machine_fingerprint but also on the exclusion "
                        "list — remove the stale exclusion"))
        elif f not in mixed and f not in FINGERPRINT_EXCLUSIONS:
            out.append((1, "AM004", f"MachineConfig.{f} is neither mixed "
                        "into machine_fingerprint nor on the documented "
                        "exclusion list — stores would alias across "
                        "different configs"))
    return out


# Names that collide with methods in this codebase (Socket::close,
# Subprocess::kill, FrameReader read/write helpers) are only recognized
# with the global :: qualifier — which is also the repo's house style
# for raw syscalls. Unambiguous names are caught with or without it.
_AMBIGUOUS = "close|kill|listen|bind|connect|accept|write|read|send|recv"
_UNAMBIGUOUS = "setsockopt|fcntl|unlink|ftruncate|fsync|waitpid"
# A statement that *begins* with the syscall (result necessarily
# dropped). The non-empty first argument distinguishes ::close(fd) from
# a no-argument method like Socket::close(); a (void) prefix is the
# sanctioned explicit discard.
_BARE_CALL = re.compile(rf"^(?:::(?:{_AMBIGUOUS})|(?:::)?(?:{_UNAMBIGUOUS}))"
                        rf"\s*\(\s*[^)\s]")


def check_syscall_returns(path: str, text: str):
    """AM005: bare syscall in statement position (return value dropped
    without a (void) decision)."""
    code = strip_comments_and_strings(text)
    out = []
    # Statements start after ; { or }. Splitting this way keeps a call
    # that continues an expression (if (... && ::connect(...)) or an
    # assignment) out of statement position no matter how lines wrap.
    start = 0
    for m in re.finditer(r"[;{}]", code):
        seg = code[start:m.start()]
        stmt = seg.strip()
        stmt_line = _line_of(code, start + len(seg) - len(seg.lstrip()))
        start = m.end()
        if _BARE_CALL.match(stmt):
            out.append((stmt_line, "AM005",
                        f"unchecked syscall return (`{stmt.splitlines()[0]}"
                        "`) — consume it or discard explicitly with "
                        "(void) plus a comment saying why that is safe"))
    return out


# --- repo driver ------------------------------------------------------------

CPP_GLOB = ("*.cpp", "*.hpp", "*.cc", "*.h")


def _cpp_files(root: Path, sub: str):
    base = root / sub
    if not base.is_dir():
        return
    for pat in CPP_GLOB:
        yield from sorted(base.rglob(pat))


def lint_repo(root: Path):
    violations = []

    def add(path: Path, found):
        rel = path.relative_to(root).as_posix()
        violations.extend((rel, line, rule, msg) for line, rule, msg in found)

    for sub in ("src", "examples", "bench"):
        for f in _cpp_files(root, sub):
            add(f, check_raw_rename(f.as_posix(), f.read_text()))
    for sub in ("src/sim", "src/model"):
        for f in _cpp_files(root, sub):
            add(f, check_determinism(f.as_posix(), f.read_text()))
    codec = root / HEXFLOAT_CODEC
    if codec.exists():
        add(codec, check_hexfloat(codec.as_posix(), codec.read_text()))
    for rel in SERIALIZATION_FILES:
        f = root / rel
        if f.exists():
            add(f, check_hexfloat(f.as_posix(), f.read_text(),
                                  writer_user=True))
    for rel in ("src/common/socket.cpp", "src/common/subprocess.cpp"):
        f = root / rel
        if f.exists():
            add(f, check_syscall_returns(f.as_posix(), f.read_text()))
    machine = root / "src/sim/machine.hpp"
    store = root / "src/measure/result_store.cpp"
    if machine.exists() and store.exists():
        add(store, check_fingerprint_coverage(machine.read_text(),
                                              store.read_text()))
    return violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: this script's repo)")
    args = ap.parse_args(argv)
    violations = lint_repo(args.root)
    for path, line, rule, msg in violations:
        print(f"{path}:{line}: {rule}: {msg}")
    if violations:
        print(f"am-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("am-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
