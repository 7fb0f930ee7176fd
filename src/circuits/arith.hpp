#pragma once

/// \file arith.hpp
/// Word-level construction helpers over the synthesis IR: registers, adders,
/// multipliers, shifters, muxes. Words are little-endian vectors of IR node
/// ids with fixed width; additions wrap (two's complement), which makes
/// constant multiplication by shift-add exact for signed operands.

#include <cstdint>
#include <string>
#include <vector>

#include "synth/ir.hpp"

namespace rw::circuits {

using Word = std::vector<int>;  ///< node ids, index 0 = LSB

/// Primary-input word; bit i is named "<name><i>".
Word input_word(synth::Ir& ir, const std::string& name, int width);
/// Primary-output word; bit i is named "<name><i>".
void output_word(synth::Ir& ir, const std::string& name, const Word& word);

Word constant_word(synth::Ir& ir, std::int64_t value, int width);

/// One register per bit (implicit global clock).
Word register_word(synth::Ir& ir, const Word& word);

/// Register with forward-declared D (for feedback); connect via
/// connect_register.
Word register_placeholder(synth::Ir& ir, int width);
void connect_register(synth::Ir& ir, const Word& regs, const Word& d);

Word resize(synth::Ir& ir, const Word& word, int width, bool sign_extend);

Word bitwise_not(synth::Ir& ir, const Word& a);
Word bitwise_and(synth::Ir& ir, const Word& a, const Word& b);
Word bitwise_or(synth::Ir& ir, const Word& a, const Word& b);
Word bitwise_xor(synth::Ir& ir, const Word& a, const Word& b);

/// Word-wide 2:1 mux (d0 when sel=0).
Word mux_word(synth::Ir& ir, int sel, const Word& d0, const Word& d1);

/// Ripple-carry addition, result truncated to the operand width (wraps).
Word add(synth::Ir& ir, const Word& a, const Word& b);
/// a - b (two's complement, wraps).
Word sub(synth::Ir& ir, const Word& a, const Word& b);

/// Left shift by a constant, zero fill, same width.
Word shl_const(synth::Ir& ir, const Word& a, int amount);
/// Arithmetic right shift by a constant, same width.
Word sar_const(synth::Ir& ir, const Word& a, int amount);

/// Multiplication by a constant via shift-add over the CSD digits of
/// `factor`; exact modulo 2^width (signed-safe).
Word mul_const(synth::Ir& ir, const Word& a, std::int64_t factor, int out_width);

/// Unsigned array multiplier: width(a) + width(b) result bits.
Word mul(synth::Ir& ir, const Word& a, const Word& b);

/// Signed (two's complement) multiplier: width(a) + width(b) result bits,
/// built from the unsigned array with sign-correction subtractions.
Word mul_signed(synth::Ir& ir, const Word& a, const Word& b);

/// Equality comparator against a constant.
int equals_const(synth::Ir& ir, const Word& a, std::uint64_t value);

/// Logical barrel shifter: a << amount or a >> amount (amount is a word of
/// log2(width) bits).
Word barrel_shift(synth::Ir& ir, const Word& a, const Word& amount, bool left);

}  // namespace rw::circuits
