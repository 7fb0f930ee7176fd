#include "circuits/arith.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rw::circuits {

using synth::Ir;

Word input_word(Ir& ir, const std::string& name, int width) {
  Word w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) w[static_cast<std::size_t>(i)] = ir.input(name + std::to_string(i));
  return w;
}

void output_word(Ir& ir, const std::string& name, const Word& word) {
  for (std::size_t i = 0; i < word.size(); ++i) ir.output(name + std::to_string(i), word[i]);
}

Word constant_word(Ir& ir, std::int64_t value, int width) {
  Word w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) w[static_cast<std::size_t>(i)] = ir.constant(((value >> i) & 1) != 0);
  return w;
}

Word register_word(Ir& ir, const Word& word) {
  Word out(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) out[i] = ir.flop(word[i]);
  return out;
}

Word register_placeholder(Ir& ir, int width) {
  Word out(static_cast<std::size_t>(width));
  for (auto& bit : out) bit = ir.flop();
  return out;
}

void connect_register(Ir& ir, const Word& regs, const Word& d) {
  if (regs.size() != d.size()) throw std::invalid_argument("connect_register: width mismatch");
  for (std::size_t i = 0; i < regs.size(); ++i) ir.connect_flop(regs[i], d[i]);
}

Word resize(Ir& ir, const Word& word, int width, bool sign_extend) {
  Word out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    if (i < static_cast<int>(word.size())) {
      out.push_back(word[static_cast<std::size_t>(i)]);
    } else {
      out.push_back(sign_extend ? word.back() : ir.constant(false));
    }
  }
  return out;
}

Word bitwise_not(Ir& ir, const Word& a) {
  Word out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = ir.not_(a[i]);
  return out;
}

namespace {

Word zip(Ir& ir, const Word& a, const Word& b, int (Ir::*op)(int, int)) {
  if (a.size() != b.size()) throw std::invalid_argument("arith: width mismatch");
  Word out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = (ir.*op)(a[i], b[i]);
  return out;
}

}  // namespace

Word bitwise_and(Ir& ir, const Word& a, const Word& b) { return zip(ir, a, b, &Ir::and_); }
Word bitwise_or(Ir& ir, const Word& a, const Word& b) { return zip(ir, a, b, &Ir::or_); }
Word bitwise_xor(Ir& ir, const Word& a, const Word& b) { return zip(ir, a, b, &Ir::xor_); }

Word mux_word(Ir& ir, int sel, const Word& d0, const Word& d1) {
  if (d0.size() != d1.size()) throw std::invalid_argument("mux_word: width mismatch");
  Word out(d0.size());
  for (std::size_t i = 0; i < d0.size(); ++i) out[i] = ir.mux(sel, d0[i], d1[i]);
  return out;
}

namespace {

/// Full adder: returns (sum, carry).
std::pair<int, int> full_adder(Ir& ir, int a, int b, int c) {
  const int axb = ir.xor_(a, b);
  const int sum = ir.xor_(axb, c);
  const int carry = ir.or_(ir.and_(a, b), ir.and_(axb, c));
  return {sum, carry};
}

}  // namespace

Word add(Ir& ir, const Word& a, const Word& b) {
  if (a.size() != b.size()) throw std::invalid_argument("add: width mismatch");
  Word out;
  out.reserve(a.size());
  int carry = ir.constant(false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto [s, c] = full_adder(ir, a[i], b[i], carry);
    out.push_back(s);
    carry = c;
  }
  return out;
}

Word sub(Ir& ir, const Word& a, const Word& b) {
  // a + ~b + 1
  Word nb = bitwise_not(ir, b);
  Word out;
  out.reserve(a.size());
  int carry = ir.constant(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto [s, c] = full_adder(ir, a[i], nb[i], carry);
    out.push_back(s);
    carry = c;
  }
  return out;
}

Word shl_const(Ir& ir, const Word& a, int amount) {
  Word out(a.size());
  for (int i = 0; i < static_cast<int>(a.size()); ++i) {
    out[static_cast<std::size_t>(i)] =
        i >= amount ? a[static_cast<std::size_t>(i - amount)] : ir.constant(false);
  }
  return out;
}

Word sar_const(Ir& /*ir*/, const Word& a, int amount) {
  Word out(a.size());
  const int w = static_cast<int>(a.size());
  for (int i = 0; i < w; ++i) {
    const int src = i + amount;
    out[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(std::min(src, w - 1))];
  }
  return out;
}

Word mul_const(Ir& ir, const Word& a, std::int64_t factor, int out_width) {
  const Word ax = resize(ir, a, out_width, /*sign_extend=*/true);
  Word acc = constant_word(ir, 0, out_width);
  bool acc_is_zero = true;

  // Canonical signed digit decomposition of the factor: digits in {-1,0,+1}.
  std::int64_t f = factor;
  bool negate_result = false;
  if (f < 0) {
    f = -f;
    negate_result = true;
  }
  int shift = 0;
  while (f != 0) {
    if ((f & 1) != 0) {
      if ((f & 3) == 3) {
        // Run of ones: ...11 -> +4-1 (CSD): subtract here, carry a +1 up.
        acc = acc_is_zero ? sub(ir, constant_word(ir, 0, out_width), shl_const(ir, ax, shift))
                          : sub(ir, acc, shl_const(ir, ax, shift));
        acc_is_zero = false;
        f += 1;  // carry
      } else {
        acc = acc_is_zero ? shl_const(ir, ax, shift) : add(ir, acc, shl_const(ir, ax, shift));
        acc_is_zero = false;
        f -= 1;
      }
    }
    f >>= 1;
    ++shift;
  }
  if (negate_result) acc = sub(ir, constant_word(ir, 0, out_width), acc);
  return acc;
}

Word mul(Ir& ir, const Word& a, const Word& b) {
  const int wa = static_cast<int>(a.size());
  const int wb = static_cast<int>(b.size());
  const int wo = wa + wb;
  Word acc = constant_word(ir, 0, wo);
  for (int j = 0; j < wb; ++j) {
    // Partial product: (a & b[j]) << j, zero-extended to wo.
    Word pp(static_cast<std::size_t>(wo));
    for (int i = 0; i < wo; ++i) {
      if (i >= j && i - j < wa) {
        pp[static_cast<std::size_t>(i)] =
            ir.and_(a[static_cast<std::size_t>(i - j)], b[static_cast<std::size_t>(j)]);
      } else {
        pp[static_cast<std::size_t>(i)] = ir.constant(false);
      }
    }
    acc = add(ir, acc, pp);
  }
  return acc;
}

Word mul_signed(Ir& ir, const Word& a, const Word& b) {
  const int wo = static_cast<int>(a.size() + b.size());
  Word p = mul(ir, a, b);
  // Signed correction mod 2^wo: subtract (b << wa) when a is negative and
  // (a << wb) when b is negative.
  const Word b_shifted = shl_const(ir, resize(ir, b, wo, false), static_cast<int>(a.size()));
  const Word a_shifted = shl_const(ir, resize(ir, a, wo, false), static_cast<int>(b.size()));
  const Word zero = constant_word(ir, 0, wo);
  p = sub(ir, p, mux_word(ir, a.back(), zero, b_shifted));
  p = sub(ir, p, mux_word(ir, b.back(), zero, a_shifted));
  return p;
}

int equals_const(Ir& ir, const Word& a, std::uint64_t value) {
  int acc = ir.constant(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool bit = ((value >> i) & 1ULL) != 0;
    acc = ir.and_(acc, bit ? a[i] : ir.not_(a[i]));
  }
  return acc;
}

Word barrel_shift(Ir& ir, const Word& a, const Word& amount, bool left) {
  Word current = a;
  const int w = static_cast<int>(a.size());
  for (std::size_t stage = 0; stage < amount.size(); ++stage) {
    const int sh = 1 << stage;
    if (sh >= w) break;
    Word shifted(current.size());
    for (int i = 0; i < w; ++i) {
      const int src = left ? i - sh : i + sh;
      shifted[static_cast<std::size_t>(i)] =
          (src >= 0 && src < w) ? current[static_cast<std::size_t>(src)] : ir.constant(false);
    }
    current = mux_word(ir, amount[stage], current, shifted);
  }
  return current;
}

}  // namespace rw::circuits
