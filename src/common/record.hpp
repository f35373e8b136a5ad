#pragma once
// The one lexer under every line-oriented text format that crosses a
// process boundary: result stores and their `.times` sidecars
// (measure/result_store), lease offers, acks and plan-info probes
// (common/work_lease), heartbeats (common/heartbeat), plan specs
// (measure/plan_wire), daemon replies and the daemon queue
// (measure/daemon). Each format keeps its own header, schema and error
// style — nullopt for files that are polled, a thrown error naming the
// line for inputs a user hands over — but the lexical rules exist once,
// here:
//
//   * A record is one '\n'-terminated line (a last line may lack the
//     '\n'). The first line is the format's header, matched exactly: no
//     prefix match, no trailing blanks, no CR.
//   * Fields are separated by single tabs. Two adjacent tabs delimit an
//     empty field; spaces are field content, never separators.
//   * An unsigned field is decimal digits only and fits 64 bits. No
//     sign, no blanks, no "0x": strtoull and `istream >>` would read
//     "-5" as 2^64-5.
//   * A double field is exactly one strtod parse of the whole field —
//     bytes after an embedded NUL are trailing junk — and a range error
//     rejects it.
//   * Doubles are written as "%a" hexfloat, so every finite double
//     round-trips bit-exactly: a cached result is indistinguishable
//     from a recomputed one.
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace am::record {

/// The whole file's bytes, or nullopt when it cannot be opened or read
/// (a directory, an I/O error). Never throws for either.
std::optional<std::string> read_file(const std::string& path);

/// Pops the next line off the front of `text` into `line` (without its
/// '\n'). False, with `text` untouched, once `text` is empty.
bool next_line(std::string_view& text, std::string_view& line);

/// Pops the first line of `text` and reports whether it is exactly
/// `header`.
bool take_header(std::string_view& text, std::string_view header);

/// The tab-separated fields of `line`: n tabs give n + 1 fields, empty
/// ones included. The views point into `line`.
std::vector<std::string_view> split_tabs(std::string_view line);

/// `key<TAB>rest-of-line`, split at the first tab; rest is empty when
/// the line has no tab. The rest keeps any further tabs.
std::pair<std::string_view, std::string_view> split_key(
    std::string_view line);

/// A digits-only unsigned field within 64 bits; nullopt otherwise
/// (empty, sign, blank, any other byte, overflow).
std::optional<std::uint64_t> parse_u64(std::string_view field);

/// A double spelled by the whole field (strtod syntax: decimal, "%a"
/// hexfloat, inf, nan); nullopt on an empty field, trailing bytes or a
/// range error.
std::optional<double> parse_double(std::string_view field);

/// The "%a" hexfloat spelling of `v`.
std::string hexfloat(double v);

}  // namespace am::record
