#include "protocols/serialize.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "pp/assert.hpp"
#include "protocols/runnable.hpp"

namespace ssr {
namespace {

// ----------------------------------------------------------------- writing

std::string name_text(const name_t& name) {
  if (name.empty()) return "e";
  std::string out;
  for (std::uint32_t i = 0; i < name.length(); ++i) {
    out.push_back(((name.bits() >> (name.length() - 1 - i)) & 1) ? '1' : '0');
  }
  return out;
}

void write_tree(const tree_node& node, std::ostringstream& os) {
  os << '(' << name_text(node.name);
  for (const tree_edge& e : node.edges) {
    os << " (" << e.sync << ' ' << e.timer << ' ' << e.expired_for << ' ';
    write_tree(e.child, os);
    os << ')';
  }
  os << ')';
}

std::string header(std::string_view protocol, std::size_t n) {
  std::ostringstream os;
  os << "ssr-config v1 protocol=" << protocol << " n=" << n << '\n';
  return os.str();
}

// ----------------------------------------------------------------- reading

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "config parse error at line " << line << ": " << what;
  throw std::invalid_argument(os.str());
}

/// Splits into whitespace-separated tokens.
std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) out.push_back(token);
  return out;
}

/// "key=value" accessor with type conversion.
std::string field(const std::vector<std::string>& tokens, const char* key,
                  std::size_t line) {
  const std::string prefix = std::string(key) + "=";
  for (const auto& t : tokens) {
    if (t.rfind(prefix, 0) == 0) return t.substr(prefix.size());
  }
  fail(line, std::string("missing field ") + key);
}

std::uint32_t uint_field(const std::vector<std::string>& tokens,
                         const char* key, std::size_t line) {
  const std::string v = field(tokens, key, line);
  std::uint32_t out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || ptr != v.data() + v.size())
    fail(line, std::string("bad integer for ") + key + ": " + v);
  return out;
}

name_t parse_name(const std::string& text, std::size_t line) {
  if (text == "e") return name_t{};
  name_t name;
  for (const char c : text) {
    if (c != '0' && c != '1') fail(line, "bad name bit: " + text);
    name.append_bit(c == '1');
  }
  return name;
}

/// Header: returns n after validating the protocol tag.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::size_t check_header(const std::vector<std::string>& lines,
                         std::string_view protocol, std::uint32_t n) {
  if (lines.empty()) fail(1, "empty input");
  const auto tokens = tokens_of(lines[0]);
  if (tokens.size() < 4 || tokens[0] != "ssr-config" || tokens[1] != "v1")
    fail(1, "bad header");
  if (field(tokens, "protocol", 1) != protocol)
    fail(1, "expected protocol=" + std::string(protocol));
  const std::uint32_t file_n = uint_field(tokens, "n", 1);
  if (file_n != n) fail(1, "population size mismatch");
  if (lines.size() != static_cast<std::size_t>(n) + 1)
    fail(lines.size(), "wrong number of agent lines");
  return n;
}

// S-expression tree parser.
struct tree_parser {
  const std::string& text;
  std::size_t pos = 0;
  std::size_t line;

  void skip_spaces() {
    while (pos < text.size() && text[pos] == ' ') ++pos;
  }
  void expect(char c) {
    skip_spaces();
    if (pos >= text.size() || text[pos] != c)
      fail(line, std::string("expected '") + c + "' in tree");
    ++pos;
  }
  std::string word() {
    skip_spaces();
    std::size_t start = pos;
    while (pos < text.size() && text[pos] != ' ' && text[pos] != '(' &&
           text[pos] != ')') {
      ++pos;
    }
    if (start == pos) fail(line, "expected token in tree");
    return text.substr(start, pos - start);
  }
  std::uint32_t number() {
    const std::string w = word();
    std::uint32_t out = 0;
    const auto [ptr, ec] = std::from_chars(w.data(), w.data() + w.size(), out);
    if (ec != std::errc() || ptr != w.data() + w.size())
      fail(line, "bad number in tree: " + w);
    return out;
  }

  tree_node node() {
    expect('(');
    tree_node out;
    out.name = parse_name(word(), line);
    while (true) {
      skip_spaces();
      if (pos < text.size() && text[pos] == ')') {
        ++pos;
        return out;
      }
      expect('(');
      tree_edge e;
      e.sync = number();
      e.timer = number();
      e.expired_for = number();
      e.child = node();
      expect(')');
      out.edges.push_back(std::move(e));
    }
  }
};

}  // namespace

// --------------------------------------------------------------- baseline

std::string to_text(const silent_n_state_ssr& p,
                    std::span<const silent_n_state_ssr::agent_state> config) {
  std::ostringstream os;
  os << header(baseline_protocol::name, config.size());
  for (const auto& s : config) os << "rank=" << s.rank << '\n';
  (void)p;
  return os.str();
}

std::vector<silent_n_state_ssr::agent_state> config_from_text(
    const silent_n_state_ssr& p, const std::string& text) {
  const auto lines = split_lines(text);
  const std::uint32_t n = p.population_size();
  check_header(lines, baseline_protocol::name, n);
  std::vector<silent_n_state_ssr::agent_state> config(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto tokens = tokens_of(lines[i + 1]);
    config[i].rank = uint_field(tokens, "rank", i + 2);
    if (config[i].rank >= n) fail(i + 2, "rank out of range");
  }
  return config;
}

// ----------------------------------------------------------- optimal silent

std::string to_text(const optimal_silent_ssr& p,
                    std::span<const optimal_silent_ssr::agent_state> config) {
  std::ostringstream os;
  os << header(optimal_protocol::name, config.size());
  for (const auto& s : config) {
    switch (s.role) {
      case optimal_silent_ssr::role_t::settled:
        os << "settled rank=" << s.rank
           << " children=" << static_cast<int>(s.children) << '\n';
        break;
      case optimal_silent_ssr::role_t::unsettled:
        os << "unsettled errorcount=" << s.errorcount << '\n';
        break;
      case optimal_silent_ssr::role_t::resetting:
        os << "resetting leader=" << (s.leader ? 'L' : 'F')
           << " resetcount=" << s.reset.resetcount
           << " delaytimer=" << s.reset.delaytimer << '\n';
        break;
    }
  }
  (void)p;
  return os.str();
}

std::vector<optimal_silent_ssr::agent_state> config_from_text(
    const optimal_silent_ssr& p, const std::string& text) {
  const auto lines = split_lines(text);
  const std::uint32_t n = p.population_size();
  check_header(lines, optimal_protocol::name, n);
  std::vector<optimal_silent_ssr::agent_state> config(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t line = i + 2;
    const auto tokens = tokens_of(lines[i + 1]);
    if (tokens.empty()) fail(line, "empty agent line");
    auto& s = config[i];
    if (tokens[0] == "settled") {
      s.role = optimal_silent_ssr::role_t::settled;
      s.rank = uint_field(tokens, "rank", line);
      const std::uint32_t children = uint_field(tokens, "children", line);
      if (s.rank < 1 || s.rank > n) fail(line, "rank out of range");
      if (children > 2) fail(line, "children out of range");
      s.children = static_cast<std::uint8_t>(children);
    } else if (tokens[0] == "unsettled") {
      s.role = optimal_silent_ssr::role_t::unsettled;
      s.errorcount = uint_field(tokens, "errorcount", line);
      if (s.errorcount > p.params().e_max)
        fail(line, "errorcount out of range");
    } else if (tokens[0] == "resetting") {
      s.role = optimal_silent_ssr::role_t::resetting;
      const std::string leader = field(tokens, "leader", line);
      if (leader != "L" && leader != "F") fail(line, "bad leader flag");
      s.leader = leader == "L";
      s.reset.resetcount = uint_field(tokens, "resetcount", line);
      s.reset.delaytimer = uint_field(tokens, "delaytimer", line);
      if (s.reset.resetcount > p.params().r_max ||
          s.reset.delaytimer > p.params().d_max) {
        fail(line, "reset fields out of range");
      }
    } else {
      fail(line, "unknown role: " + tokens[0]);
    }
  }
  return config;
}

// ---------------------------------------------------------------- sublinear

std::string tree_to_text(const history_tree& tree) {
  std::ostringstream os;
  write_tree(tree.root(), os);
  return os.str();
}

history_tree tree_from_text(const std::string& text) {
  tree_parser parser{text, 0, 1};
  const tree_node root = parser.node();
  parser.skip_spaces();
  if (parser.pos != text.size()) fail(1, "trailing characters after tree");
  return history_tree::adopt(root);
}

std::string to_text(const sublinear_time_ssr& p,
                    std::span<const sublinear_time_ssr::agent_state> config) {
  std::ostringstream os;
  os << header(sublinear_protocol::name, config.size());
  for (const auto& s : config) {
    if (s.role == sublinear_time_ssr::role_t::collecting) {
      os << "collecting name=" << name_text(s.name) << " rank=" << s.rank
         << " roster=";
      for (std::size_t i = 0; i < s.roster.size(); ++i) {
        if (i > 0) os << ',';
        os << name_text(s.roster[i]);
      }
      if (s.roster.empty()) os << '-';
      os << " tree=";
      write_tree(s.tree.root(), os);
      os << '\n';
    } else {
      os << "resetting name=" << name_text(s.name)
         << " resetcount=" << s.reset.resetcount
         << " delaytimer=" << s.reset.delaytimer << '\n';
    }
  }
  (void)p;
  return os.str();
}

std::vector<sublinear_time_ssr::agent_state> config_from_text(
    const sublinear_time_ssr& p, const std::string& text) {
  const auto lines = split_lines(text);
  const std::uint32_t n = p.population_size();
  check_header(lines, sublinear_protocol::name, n);
  std::vector<sublinear_time_ssr::agent_state> config(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t line = i + 2;
    // The tree s-expression contains spaces, so cut the line manually: the
    // "tree=" field is always last.
    std::string body = lines[i + 1];
    std::string tree_text;
    const std::size_t tree_pos = body.find(" tree=");
    if (tree_pos != std::string::npos) {
      tree_text = body.substr(tree_pos + 6);
      body = body.substr(0, tree_pos);
    }
    const auto tokens = tokens_of(body);
    if (tokens.empty()) fail(line, "empty agent line");
    auto& s = config[i];
    if (tokens[0] == "collecting") {
      if (tree_text.empty()) fail(line, "missing tree");
      s.role = sublinear_time_ssr::role_t::collecting;
      s.name = parse_name(field(tokens, "name", line), line);
      s.rank = uint_field(tokens, "rank", line);
      const std::string roster = field(tokens, "roster", line);
      std::vector<name_t> names;
      if (roster != "-") {
        std::istringstream rs(roster);
        std::string entry;
        while (std::getline(rs, entry, ','))
          names.push_back(parse_name(entry, line));
        for (std::size_t r = 1; r < names.size(); ++r) {
          if (!(names[r - 1] < names[r]))
            fail(line, "roster not sorted/unique");
        }
      }
      s.roster = roster_t(std::move(names));
      tree_parser parser{tree_text, 0, line};
      s.tree = history_tree::adopt(parser.node());
      if (s.tree.depth() > p.params().h) fail(line, "tree too deep");
    } else if (tokens[0] == "resetting") {
      s.role = sublinear_time_ssr::role_t::resetting;
      s.name = parse_name(field(tokens, "name", line), line);
      s.reset.resetcount = uint_field(tokens, "resetcount", line);
      s.reset.delaytimer = uint_field(tokens, "delaytimer", line);
    } else {
      fail(line, "unknown role: " + tokens[0]);
    }
  }
  return config;
}

// -------------------------------------------------------------------- loose

std::string to_text(const loose_stabilizing_le& p,
                    std::span<const loose_stabilizing_le::agent_state> config) {
  std::ostringstream os;
  os << header(loose_protocol::name, config.size());
  for (const auto& s : config) {
    os << (s.leader ? "leader" : "follower") << " timer=" << s.timer << '\n';
  }
  (void)p;
  return os.str();
}

std::vector<loose_stabilizing_le::agent_state> config_from_text(
    const loose_stabilizing_le& p, const std::string& text) {
  const auto lines = split_lines(text);
  const std::uint32_t n = p.population_size();
  check_header(lines, loose_protocol::name, n);
  std::vector<loose_stabilizing_le::agent_state> config(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t line = i + 2;
    const auto tokens = tokens_of(lines[i + 1]);
    if (tokens.empty()) fail(line, "empty agent line");
    auto& s = config[i];
    if (tokens[0] == "leader") {
      s.leader = true;
    } else if (tokens[0] == "follower") {
      s.leader = false;
    } else {
      fail(line, "unknown role: " + tokens[0]);
    }
    s.timer = uint_field(tokens, "timer", line);
    if (s.timer > p.t_max()) fail(line, "timer out of range");
  }
  return config;
}

}  // namespace ssr
