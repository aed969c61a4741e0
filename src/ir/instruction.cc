#include "ir/instruction.h"

namespace oha::ir {

const char *
binopName(BinOpKind kind)
{
    switch (kind) {
      case BinOpKind::Add: return "+";
      case BinOpKind::Sub: return "-";
      case BinOpKind::Mul: return "*";
      case BinOpKind::Div: return "/";
      case BinOpKind::Mod: return "%";
      case BinOpKind::And: return "&";
      case BinOpKind::Or: return "|";
      case BinOpKind::Xor: return "^";
      case BinOpKind::Shl: return "<<";
      case BinOpKind::Shr: return ">>";
      case BinOpKind::Lt: return "<";
      case BinOpKind::Le: return "<=";
      case BinOpKind::Gt: return ">";
      case BinOpKind::Ge: return ">=";
      case BinOpKind::Eq: return "==";
      case BinOpKind::Ne: return "!=";
    }
    return "?";
}

} // namespace oha::ir
