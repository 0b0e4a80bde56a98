#include "src/pel/program.h"

#include "src/runtime/logging.h"

namespace p2 {
namespace {

const char* OpName(PelOp op) {
  switch (op) {
    case PelOp::kPushConst:
      return "push_const";
    case PelOp::kPushField:
      return "push_field";
    case PelOp::kAdd:
      return "add";
    case PelOp::kSub:
      return "sub";
    case PelOp::kMul:
      return "mul";
    case PelOp::kDiv:
      return "div";
    case PelOp::kMod:
      return "mod";
    case PelOp::kShl:
      return "shl";
    case PelOp::kEq:
      return "eq";
    case PelOp::kNe:
      return "ne";
    case PelOp::kLt:
      return "lt";
    case PelOp::kLe:
      return "le";
    case PelOp::kGt:
      return "gt";
    case PelOp::kGe:
      return "ge";
    case PelOp::kAnd:
      return "and";
    case PelOp::kOr:
      return "or";
    case PelOp::kNot:
      return "not";
    case PelOp::kNeg:
      return "neg";
    case PelOp::kInOO:
      return "in_oo";
    case PelOp::kInOC:
      return "in_oc";
    case PelOp::kInCO:
      return "in_co";
    case PelOp::kInCC:
      return "in_cc";
    case PelOp::kNow:
      return "now";
    case PelOp::kRand:
      return "rand";
    case PelOp::kRandInt:
      return "rand_int";
    case PelOp::kCoinFlip:
      return "coin_flip";
    case PelOp::kHash:
      return "hash";
    case PelOp::kLocalAddr:
      return "local_addr";
    case PelOp::kMove:
      return "move";
  }
  return "?";
}

bool HasArg(PelOp op) { return op == PelOp::kPushConst || op == PelOp::kPushField; }

}  // namespace

uint32_t PelProgram::AddConst(const Value& v) {
  for (uint32_t i = 0; i < consts_.size(); ++i) {
    if (consts_[i] == v && consts_[i].type() == v.type()) {
      return i;
    }
  }
  consts_.push_back(v);
  return static_cast<uint32_t>(consts_.size() - 1);
}

// Lowers the postfix stack code to register form by symbolic execution:
// walk the stack program tracking, for each virtual stack slot, where its
// value actually lives (constant pool, input field, or register). Pushes
// materialize nothing; each operator becomes one register instruction whose
// operands read their sources in place. A slot that holds a computed result
// is always assigned the register equal to its stack depth, so the final
// result lands in register 0 and register pressure equals the expression's
// operand depth (tiny — rule expressions are shallow).
bool PelProgram::Volatile() const {
  for (const PelInstr& ins : code_) {
    if (ins.op == PelOp::kRand || ins.op == PelOp::kRandInt || ins.op == PelOp::kCoinFlip ||
        ins.op == PelOp::kNow) {
      return true;
    }
  }
  return false;
}

void PelProgram::Lower() const {
  reg_code_.clear();
  num_regs_ = 0;
  std::vector<PelSrc> stk;
  auto pop = [&stk]() {
    P2_CHECK(!stk.empty());
    PelSrc s = stk.back();
    stk.pop_back();
    return s;
  };
  auto emit = [this, &stk](PelOp op, PelSrc a = PelSrc{}, PelSrc b = PelSrc{},
                           PelSrc c = PelSrc{}) {
    size_t dst = stk.size();
    P2_CHECK(dst < 256);
    if (dst + 1 > num_regs_) {
      num_regs_ = static_cast<uint16_t>(dst + 1);
    }
    reg_code_.push_back(PelRegInstr{op, static_cast<uint8_t>(dst), a, b, c});
    stk.push_back(PelSrc{PelSrcKind::kReg, static_cast<uint16_t>(dst)});
  };
  for (const PelInstr& ins : code_) {
    switch (ins.op) {
      case PelOp::kPushConst:
        P2_CHECK(ins.arg < consts_.size() && ins.arg <= 0xFFFF);
        stk.push_back(PelSrc{PelSrcKind::kConst, static_cast<uint16_t>(ins.arg)});
        break;
      case PelOp::kPushField:
        P2_CHECK(ins.arg <= 0xFFFF);
        stk.push_back(PelSrc{PelSrcKind::kField, static_cast<uint16_t>(ins.arg)});
        break;
      case PelOp::kAdd:
      case PelOp::kSub:
      case PelOp::kMul:
      case PelOp::kDiv:
      case PelOp::kMod:
      case PelOp::kShl:
      case PelOp::kEq:
      case PelOp::kNe:
      case PelOp::kLt:
      case PelOp::kLe:
      case PelOp::kGt:
      case PelOp::kGe:
      case PelOp::kAnd:
      case PelOp::kOr: {
        PelSrc b = pop();
        PelSrc a = pop();
        emit(ins.op, a, b);
        break;
      }
      case PelOp::kNot:
      case PelOp::kNeg:
      case PelOp::kCoinFlip:
      case PelOp::kHash: {
        PelSrc a = pop();
        emit(ins.op, a);
        break;
      }
      case PelOp::kInOO:
      case PelOp::kInOC:
      case PelOp::kInCO:
      case PelOp::kInCC: {
        PelSrc hi = pop();
        PelSrc lo = pop();
        PelSrc x = pop();
        emit(ins.op, x, lo, hi);
        break;
      }
      case PelOp::kNow:
      case PelOp::kRand:
      case PelOp::kRandInt:
      case PelOp::kLocalAddr:
        emit(ins.op);
        break;
      case PelOp::kMove:
        P2_FATAL("kMove is register-form only");
    }
  }
  if (!code_.empty()) {
    P2_CHECK(stk.size() == 1);
    if (stk[0].kind != PelSrcKind::kReg) {
      // Lone push: materialize the result into register 0.
      reg_code_.push_back(PelRegInstr{PelOp::kMove, 0, stk[0], PelSrc{}, PelSrc{}});
      num_regs_ = 1;
    }
  }
  lowered_ = true;
}

std::string PelProgram::Disassemble() const {
  std::string out;
  for (const PelInstr& ins : code_) {
    out += OpName(ins.op);
    if (HasArg(ins.op)) {
      out += " " + std::to_string(ins.arg);
      if (ins.op == PelOp::kPushConst && ins.arg < consts_.size()) {
        out += " (" + consts_[ins.arg].ToString() + ")";
      }
    }
    out += "\n";
  }
  return out;
}

std::string PelProgram::DisassembleRegs() const {
  std::string out;
  auto operand = [this](const PelSrc& s) -> std::string {
    switch (s.kind) {
      case PelSrcKind::kNone:
        return "";
      case PelSrcKind::kReg:
        return "r" + std::to_string(s.index);
      case PelSrcKind::kConst: {
        std::string t = "c" + std::to_string(s.index);
        if (s.index < consts_.size()) {
          t += " (" + consts_[s.index].ToString() + ")";
        }
        return t;
      }
      case PelSrcKind::kField:
        return "f" + std::to_string(s.index);
    }
    return "?";
  };
  for (const PelRegInstr& ins : reg_code()) {
    out += "r" + std::to_string(ins.dst) + " = " + OpName(ins.op);
    for (const PelSrc* s : {&ins.a, &ins.b, &ins.c}) {
      if (s->kind != PelSrcKind::kNone) {
        out += " " + operand(*s);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace p2
