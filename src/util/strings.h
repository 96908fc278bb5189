// Small string utilities shared across the framework. All functions are pure
// and allocate only when they must return owning strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace haven::util {

// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

// Split on a single character delimiter. Empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

// Split on runs of ASCII whitespace. Empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

// Split into lines; handles both "\n" and "\r\n", drops the terminators.
std::vector<std::string> split_lines(std::string_view s);

// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

std::string to_lower(std::string_view s);
std::string to_upper(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

// Case-insensitive substring containment.
bool icontains(std::string_view haystack, std::string_view needle);

// Replace every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from, std::string_view to);

// True if `s` is a valid Verilog/C identifier: [A-Za-z_][A-Za-z0-9_$]*.
bool is_identifier(std::string_view s);

// Count whitespace-separated words; used by instruction evolution to enforce
// the paper's "no more than ten words added or removed" constraint.
std::size_t word_count(std::string_view s);

// Strict base-10 number parsing for command-line flags and protocol knobs,
// on std::from_chars: the whole of `s` must be the number, with no
// whitespace, no '+' and no out-of-range value, so "abc", "0x10", "5%",
// " 5" (and "1e6" for the integer forms) fail instead of reading as zero or
// as a prefix. parse_u64 takes no sign at all, so " -1" never wraps to
// 2^64 - 1. parse_int is parse_i64 narrowed to int: a value outside int's
// range fails too. On failure *out is left unchanged.
bool parse_i64(const std::string& s, long long* out);
bool parse_int(const std::string& s, int* out);
bool parse_u64(const std::string& s, std::uint64_t* out);
bool parse_f64(const std::string& s, double* out);

// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Indent every line of `s` by `n` spaces.
std::string indent(std::string_view s, int n);

}  // namespace haven::util
