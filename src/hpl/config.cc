#include "hpl/config.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace xphi::hpl {

namespace {

std::string strip_comment(const std::string& line) {
  const auto pos = line.find('#');
  return pos == std::string::npos ? line : line.substr(0, pos);
}

std::vector<std::string> tokenize(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

bool parse_size(const std::string& tok, std::size_t& out) {
  // stoull silently wraps negative inputs; require plain digits.
  if (tok.empty() ||
      !std::all_of(tok.begin(), tok.end(),
                   [](unsigned char c) { return std::isdigit(c); }))
    return false;
  try {
    out = static_cast<std::size_t>(std::stoull(tok));
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

ParseResult parse_run_config(const std::string& text) {
  ParseResult res;
  RunConfig cfg;
  bool saw_ns = false, saw_grids = false, saw_cards = false, saw_nbs = false;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = strip_comment(raw);
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      if (!tokenize(line).empty()) {
        res.error = "line " + std::to_string(line_no) + ": expected 'key: values'";
        return res;
      }
      continue;
    }
    const std::string key = tokenize(line.substr(0, colon)).empty()
                                ? ""
                                : tokenize(line.substr(0, colon))[0];
    const auto values = tokenize(line.substr(colon + 1));
    if (values.empty()) {
      res.error = "line " + std::to_string(line_no) + ": no values for " + key;
      return res;
    }
    auto fail = [&](const std::string& why) {
      res.error = "line " + std::to_string(line_no) + ": " + why;
      return res;
    };
    if (key == "Ns") {
      cfg.ns.clear();
      for (const auto& v : values) {
        std::size_t n;
        if (!parse_size(v, n) || n == 0) return fail("bad N '" + v + "'");
        cfg.ns.push_back(n);
      }
      saw_ns = true;
    } else if (key == "NBs") {
      cfg.nbs.clear();
      for (const auto& v : values) {
        std::size_t nb;
        if (!parse_size(v, nb) || nb == 0) return fail("bad NB '" + v + "'");
        cfg.nbs.push_back(nb);
      }
      saw_nbs = true;
    } else if (key == "grids") {
      cfg.grids.clear();
      for (const auto& v : values) {
        const auto x = v.find('x');
        std::size_t p, q;
        if (x == std::string::npos || !parse_size(v.substr(0, x), p) ||
            !parse_size(v.substr(x + 1), q) || p == 0 || q == 0)
          return fail("bad grid '" + v + "' (want PxQ)");
        cfg.grids.emplace_back(static_cast<int>(p), static_cast<int>(q));
      }
      saw_grids = true;
    } else if (key == "cards") {
      cfg.cards.clear();
      for (const auto& v : values) {
        std::size_t c;
        if (!parse_size(v, c) || c > 8) return fail("bad cards '" + v + "'");
        cfg.cards.push_back(static_cast<int>(c));
      }
      saw_cards = true;
    } else if (key == "scheme") {
      const auto scheme = core::parse_lookahead(values[0]);
      if (!scheme) return fail("bad scheme '" + values[0] + "'");
      cfg.scheme = *scheme;
    } else if (key == "precision") {
      const auto p = parse_precision(values[0]);
      if (!p) return fail("bad precision '" + values[0] + "' (want fp64|mixed)");
      cfg.precision = *p;
    } else if (key == "memory") {
      std::size_t m;
      if (!parse_size(values[0], m) || m == 0)
        return fail("bad memory '" + values[0] + "'");
      cfg.memory_gib = m;
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  (void)saw_ns;
  (void)saw_grids;
  (void)saw_cards;
  (void)saw_nbs;
  res.ok = true;
  res.config = std::move(cfg);
  return res;
}

ParseResult load_run_config(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    ParseResult res;
    res.error = "cannot open " + path;
    return res;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  return parse_run_config(buf.str());
}

}  // namespace xphi::hpl
