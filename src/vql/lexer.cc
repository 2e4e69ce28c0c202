#include "vql/lexer.h"

#include <cctype>
#include <charconv>
#include <map>

namespace vodak {
namespace vql {

namespace {

const std::map<std::string, TokenKind>& Keywords() {
  static const std::map<std::string, TokenKind> kKeywords = {
      {"ACCESS", TokenKind::kAccess},
      {"FROM", TokenKind::kFrom},
      {"WHERE", TokenKind::kWhere},
      {"IN", TokenKind::kIn},
      {"AND", TokenKind::kAnd},
      {"OR", TokenKind::kOr},
      {"NOT", TokenKind::kNot},
      {"TRUE", TokenKind::kTrue},
      {"FALSE", TokenKind::kFalse},
      {"NIL", TokenKind::kNil},
      {"UNION", TokenKind::kUnion},
      {"INTERSECTION", TokenKind::kIntersection},
      {"DIFFERENCE", TokenKind::kDifference},
      {"INSERT", TokenKind::kInsert},
      {"INTO", TokenKind::kInto},
      {"UPDATE", TokenKind::kUpdate},
      {"DELETE", TokenKind::kDelete},
      {"SET", TokenKind::kSet},
  };
  return kKeywords;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd:
      return "<end>";
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kString:
      return "string";
    case TokenKind::kInt:
      return "integer";
    case TokenKind::kReal:
      return "real";
    case TokenKind::kAccess:
      return "ACCESS";
    case TokenKind::kFrom:
      return "FROM";
    case TokenKind::kWhere:
      return "WHERE";
    case TokenKind::kIn:
      return "IN";
    case TokenKind::kAnd:
      return "AND";
    case TokenKind::kOr:
      return "OR";
    case TokenKind::kNot:
      return "NOT";
    case TokenKind::kTrue:
      return "TRUE";
    case TokenKind::kFalse:
      return "FALSE";
    case TokenKind::kNil:
      return "NIL";
    case TokenKind::kIsIn:
      return "IS-IN";
    case TokenKind::kIsSubset:
      return "IS-SUBSET";
    case TokenKind::kUnion:
      return "UNION";
    case TokenKind::kIntersection:
      return "INTERSECTION";
    case TokenKind::kDifference:
      return "DIFFERENCE";
    case TokenKind::kInsert:
      return "INSERT";
    case TokenKind::kInto:
      return "INTO";
    case TokenKind::kUpdate:
      return "UPDATE";
    case TokenKind::kDelete:
      return "DELETE";
    case TokenKind::kSet:
      return "SET";
    case TokenKind::kLParen:
      return "(";
    case TokenKind::kRParen:
      return ")";
    case TokenKind::kLBracket:
      return "[";
    case TokenKind::kRBracket:
      return "]";
    case TokenKind::kLBrace:
      return "{";
    case TokenKind::kRBrace:
      return "}";
    case TokenKind::kComma:
      return ",";
    case TokenKind::kColon:
      return ":";
    case TokenKind::kDot:
      return ".";
    case TokenKind::kArrow:
      return "->";
    case TokenKind::kAssign:
      return "=";
    case TokenKind::kEqEq:
      return "==";
    case TokenKind::kNotEq:
      return "!=";
    case TokenKind::kLt:
      return "<";
    case TokenKind::kLe:
      return "<=";
    case TokenKind::kGt:
      return ">";
    case TokenKind::kGe:
      return ">=";
    case TokenKind::kPlus:
      return "+";
    case TokenKind::kMinus:
      return "-";
    case TokenKind::kStar:
      return "*";
    case TokenKind::kSlash:
      return "/";
  }
  return "?";
}

Result<std::vector<Token>> Lex(const std::string& source) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = source.size();

  auto push = [&](TokenKind kind, size_t offset) {
    Token t;
    t.kind = kind;
    t.offset = offset;
    tokens.push_back(std::move(t));
  };

  while (i < n) {
    char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(source[j])) ++j;
      std::string word = source.substr(i, j - i);
      i = j;
      // IS-IN / IS-SUBSET are hyphenated keywords.
      if (word == "IS" && i < n && source[i] == '-') {
        size_t k = i + 1;
        size_t w = k;
        while (w < n && IsIdentChar(source[w])) ++w;
        std::string rest = source.substr(k, w - k);
        if (rest == "IN") {
          i = w;
          push(TokenKind::kIsIn, start);
          continue;
        }
        if (rest == "SUBSET") {
          i = w;
          push(TokenKind::kIsSubset, start);
          continue;
        }
      }
      auto kw = Keywords().find(word);
      if (kw != Keywords().end()) {
        push(kw->second, start);
      } else {
        Token t;
        t.kind = TokenKind::kIdent;
        t.text = std::move(word);
        t.offset = start;
        tokens.push_back(std::move(t));
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && std::isdigit(static_cast<unsigned char>(source[j])))
        ++j;
      bool is_real = false;
      if (j < n && source[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(source[j + 1]))) {
        is_real = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(source[j])))
          ++j;
      }
      const char* first = source.data() + i;
      const char* last = source.data() + j;
      Token t;
      t.offset = start;
      std::from_chars_result parsed;
      if (is_real) {
        t.kind = TokenKind::kReal;
        parsed = std::from_chars(first, last, t.real_value);
      } else {
        t.kind = TokenKind::kInt;
        parsed = std::from_chars(first, last, t.int_value);
      }
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::ParseError(
            std::string(is_real ? "real" : "integer") + " literal '" +
            source.substr(i, j - i) + "' out of range at offset " +
            std::to_string(start));
      }
      i = j;
      tokens.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      std::string payload;
      while (j < n && source[j] != '\'') {
        payload.push_back(source[j]);
        ++j;
      }
      if (j >= n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      i = j + 1;
      Token t;
      t.kind = TokenKind::kString;
      t.text = std::move(payload);
      t.offset = start;
      tokens.push_back(std::move(t));
      continue;
    }
    auto two = [&](char second) {
      return i + 1 < n && source[i + 1] == second;
    };
    switch (c) {
      case '(':
        push(TokenKind::kLParen, start);
        ++i;
        break;
      case ')':
        push(TokenKind::kRParen, start);
        ++i;
        break;
      case '[':
        push(TokenKind::kLBracket, start);
        ++i;
        break;
      case ']':
        push(TokenKind::kRBracket, start);
        ++i;
        break;
      case '{':
        push(TokenKind::kLBrace, start);
        ++i;
        break;
      case '}':
        push(TokenKind::kRBrace, start);
        ++i;
        break;
      case ',':
        push(TokenKind::kComma, start);
        ++i;
        break;
      case ':':
        push(TokenKind::kColon, start);
        ++i;
        break;
      case '.':
        push(TokenKind::kDot, start);
        ++i;
        break;
      case '+':
        push(TokenKind::kPlus, start);
        ++i;
        break;
      case '*':
        push(TokenKind::kStar, start);
        ++i;
        break;
      case '/':
        push(TokenKind::kSlash, start);
        ++i;
        break;
      case '-':
        if (two('>')) {
          push(TokenKind::kArrow, start);
          i += 2;
        } else {
          push(TokenKind::kMinus, start);
          ++i;
        }
        break;
      case '=':
        if (two('=')) {
          push(TokenKind::kEqEq, start);
          i += 2;
        } else {
          // Assignment in write-statement SET lists; the expression
          // parser still rejects it where a comparison is meant.
          push(TokenKind::kAssign, start);
          ++i;
        }
        break;
      case '!':
        if (two('=')) {
          push(TokenKind::kNotEq, start);
          i += 2;
        } else {
          return Status::ParseError("stray '!' at offset " +
                                    std::to_string(start));
        }
        break;
      case '<':
        if (two('=')) {
          push(TokenKind::kLe, start);
          i += 2;
        } else {
          push(TokenKind::kLt, start);
          ++i;
        }
        break;
      case '>':
        if (two('=')) {
          push(TokenKind::kGe, start);
          i += 2;
        } else {
          push(TokenKind::kGt, start);
          ++i;
        }
        break;
      default:
        return Status::ParseError(std::string("unexpected character '") +
                                  c + "' at offset " +
                                  std::to_string(start));
    }
  }
  push(TokenKind::kEnd, n);
  return tokens;
}

}  // namespace vql
}  // namespace vodak
