#include "ecodb/sql/binder.h"

#include "ecodb/util/strings.h"

namespace ecodb::sql {

bool IsAggregateName(const std::string& upper_name) {
  return upper_name == "SUM" || upper_name == "COUNT" ||
         upper_name == "AVG" || upper_name == "MIN" || upper_name == "MAX";
}

bool ContainsAggregate(const AstExpr& ast) {
  if (ast.kind == AstKind::kFuncCall && IsAggregateName(ast.name)) {
    return true;
  }
  for (const AstExprPtr& a : ast.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
}

namespace {

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble ||
         t == ValueType::kDate || t == ValueType::kBool;
}

const char* TypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kDate:
      return "DATE";
    case ValueType::kBool:
      return "BOOL";
  }
  return "?";
}

/// Binds `ast` as a value compared with an operand of type `other`. A
/// string literal compared with a DATE is read as a date, as SQL reads
/// an untyped literal; any other pair the engine cannot order by value
/// (a string against a number or date) is an error. Value::Compare would
/// otherwise order the pair by type tag and silently match no rows or
/// every row.
Result<ExprPtr> BindComparand(const AstExpr& ast, ValueType other,
                              const Schema& schema) {
  if (ast.kind == AstKind::kStringLit && other == ValueType::kDate) {
    const int32_t days = ParseDateToDays(ast.str_value);
    if (days == INT32_MIN) {
      return Status::ParseError(StrFormat(
          "cannot compare DATE with '%s': not a date", ast.str_value.c_str()));
    }
    return Lit(Value::Date(days));
  }
  ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(ast, schema));
  const ValueType t = e->type();
  const bool comparable =
      t == ValueType::kNull || other == ValueType::kNull ||
      (IsNumericType(t) && IsNumericType(other)) ||
      (t == ValueType::kString && other == ValueType::kString);
  if (!comparable) {
    return Status::ParseError(StrFormat("cannot compare %s with %s",
                                        TypeName(other), TypeName(t)));
  }
  return e;
}

}  // namespace

Result<ExprPtr> BindScalar(const AstExpr& ast, const Schema& schema) {
  switch (ast.kind) {
    case AstKind::kColumn: {
      int idx = schema.FindField(ast.name);
      if (idx < 0) {
        return Status::ParseError(
            StrFormat("unknown column '%s'", ast.name.c_str()));
      }
      return Col(idx, schema.field(idx).type, schema.field(idx).name);
    }
    case AstKind::kIntLit:
      return LitInt(ast.int_value);
    case AstKind::kDoubleLit:
      return LitDbl(ast.dbl_value);
    case AstKind::kStringLit:
      return LitStr(ast.str_value);
    case AstKind::kDateLit: {
      int32_t days = ParseDateToDays(ast.str_value);
      if (days == INT32_MIN) {
        return Status::ParseError(
            StrFormat("bad date literal '%s'", ast.str_value.c_str()));
      }
      return Lit(Value::Date(days));
    }
    case AstKind::kStar:
      return Status::ParseError("'*' is only valid in COUNT(*) or SELECT *");
    case AstKind::kCompare: {
      // Bind a string literal after the other side, so it is read
      // against that side's type whichever side it is on.
      const bool lit_left = ast.args[0]->kind == AstKind::kStringLit;
      const AstExpr& first = *ast.args[lit_left ? 1 : 0];
      const AstExpr& second = *ast.args[lit_left ? 0 : 1];
      ECODB_ASSIGN_OR_RETURN(ExprPtr a, BindScalar(first, schema));
      ECODB_ASSIGN_OR_RETURN(ExprPtr b,
                             BindComparand(second, a->type(), schema));
      return lit_left ? Cmp(ast.cmp_op, std::move(b), std::move(a))
                      : Cmp(ast.cmp_op, std::move(a), std::move(b));
    }
    case AstKind::kLogical: {
      std::vector<ExprPtr> operands;
      for (const AstExprPtr& a : ast.args) {
        ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*a, schema));
        operands.push_back(std::move(e));
      }
      return ast.log_op == LogicalOp::kAnd ? And(std::move(operands))
                                           : Or(std::move(operands));
    }
    case AstKind::kNot: {
      ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*ast.args[0], schema));
      return Not(std::move(e));
    }
    case AstKind::kArith: {
      ECODB_ASSIGN_OR_RETURN(ExprPtr l, BindScalar(*ast.args[0], schema));
      ECODB_ASSIGN_OR_RETURN(ExprPtr r, BindScalar(*ast.args[1], schema));
      return Arith(ast.arith_op, std::move(l), std::move(r));
    }
    case AstKind::kBetween: {
      ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*ast.args[0], schema));
      ECODB_ASSIGN_OR_RETURN(ExprPtr lo,
                             BindComparand(*ast.args[1], e->type(), schema));
      ECODB_ASSIGN_OR_RETURN(ExprPtr hi,
                             BindComparand(*ast.args[2], e->type(), schema));
      return Between(std::move(e), std::move(lo), std::move(hi));
    }
    case AstKind::kInList: {
      ECODB_ASSIGN_OR_RETURN(ExprPtr operand,
                             BindScalar(*ast.args[0], schema));
      std::vector<Value> values;
      for (size_t i = 1; i < ast.args.size(); ++i) {
        ECODB_ASSIGN_OR_RETURN(
            ExprPtr v, BindComparand(*ast.args[i], operand->type(), schema));
        if (v->kind() != ExprKind::kLiteral) {
          return Status::ParseError("IN list items must be literals");
        }
        values.push_back(static_cast<const LiteralExpr&>(*v).value());
      }
      return InList(std::move(operand), std::move(values));
    }
    case AstKind::kFuncCall:
      return Status::ParseError(
          StrFormat("aggregate/function '%s' not allowed here",
                    ast.name.c_str()));
  }
  return Status::Internal("unhandled AST kind");
}

}  // namespace ecodb::sql
