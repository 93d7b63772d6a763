#include "common/fields.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace aimes::common::json {

std::string hex16(const std::uint64_t& v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Status parse_hex16(const std::string& text, std::uint64_t& out) {
  const char* const end = text.data() + text.size();
  if (text.empty() || text.size() > 16 || std::from_chars(text.data(), end, out, 16).ptr != end) {
    return Status::error("expected a hex checksum string");
  }
  return {};
}

void Writer::open(bool& first, int depth, std::string_view key) {
  if (!first) out_ += ',';
  if (pretty_) out_ += '\n' + std::string(2 * static_cast<std::size_t>(depth + 1), ' ');
  else if (!first) out_ += ' ';
  first = false;
  out_ += '"' + escape(key) + "\": ";
}

void Writer::close(int depth) {
  if (pretty_) out_ += '\n' + std::string(2 * static_cast<std::size_t>(depth), ' ');
  out_ += '}';
}

void Writer::raw(std::string_view key, std::string_view json) {
  const auto dot = key.find('.');
  const std::string_view group = dot == std::string_view::npos ? "" : key.substr(0, dot);
  if (group != group_) {
    if (!group_.empty()) close(1);
    group_ = group;
    if (!group.empty()) {
      open(first_, 0, group);
      out_ += '{';
      group_first_ = true;
    }
  }
  if (group_.empty()) open(first_, 0, key);
  else open(group_first_, 1, key.substr(dot + 1));
  out_ += json;
}

std::string Writer::finish() {
  if (!group_.empty()) close(1);
  group_ = {};
  close(0);
  return std::move(out_);
}

Node Reader::locate(std::string_view key) {
  const auto dot = key.find('.');
  Node node = root_.get(key.substr(0, dot));
  if (dot == std::string_view::npos || !node.present()) return node;
  auto group = node.object();
  if (!group) status_ = Status::error(group.error());
  return group ? group->get(key.substr(dot + 1)) : Node();
}

Status Reader::finish() const {
  if (!status_.ok()) return status_;
  // The keys each object may hold: the root's ("" here), then each group's.
  std::vector<std::pair<std::string_view, std::vector<std::string_view>>> levels(1);
  for (const std::string_view key : known_) {
    const auto dot = key.find('.');
    levels[0].second.push_back(key.substr(0, dot));
    if (dot == std::string_view::npos) continue;
    auto level = std::find_if(levels.begin(), levels.end(),
                              [&](const auto& l) { return l.first == key.substr(0, dot); });
    if (level == levels.end()) level = levels.insert(levels.end(), {key.substr(0, dot), {}});
    level->second.push_back(key.substr(dot + 1));
  }
  for (const auto& [group, keys] : levels) {
    if (auto st = (group.empty() ? root_ : root_.get(group)).only(keys); !st.ok()) return st;
  }
  return {};
}

}  // namespace aimes::common::json
