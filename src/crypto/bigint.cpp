#include "crypto/bigint.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/drbg.hpp"

namespace hipcloud::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

BigInt::BigInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView data) {
  BigInt out;
  for (std::uint8_t b : data) {
    // out = out * 256 + b, done limb-wise for efficiency.
    std::uint64_t carry = b;
    for (auto& limb : out.limbs_) {
      const std::uint64_t v = (static_cast<std::uint64_t>(limb) << 8) | carry;
      limb = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  out.trim();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes_be(crypto::from_hex(padded));
}

Bytes BigInt::to_bytes_be(std::size_t min_width) const {
  Bytes out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const std::uint32_t limb = limbs_[i];
    out.push_back(static_cast<std::uint8_t>(limb >> 24));
    out.push_back(static_cast<std::uint8_t>(limb >> 16));
    out.push_back(static_cast<std::uint8_t>(limb >> 8));
    out.push_back(static_cast<std::uint8_t>(limb));
  }
  // Strip leading zeros, then left-pad to the requested width.
  std::size_t lead = 0;
  while (lead < out.size() && out[lead] == 0) ++lead;
  out.erase(out.begin(), out.begin() + static_cast<long>(lead));
  if (out.size() < min_width) {
    out.insert(out.begin(), min_width - out.size(), 0);
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = crypto::to_hex(to_bytes_be());
  std::size_t lead = 0;
  while (lead + 1 < s.size() && s[lead] == '0') ++lead;
  return s.substr(lead);
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

void BigInt::set_bit(std::size_t i) {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= (1u << (i % 32));
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.resize(n, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = carry;
    if (i < limbs_.size()) v += limbs_[i];
    if (i < rhs.limbs_.size()) v += rhs.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(v);
    carry = v >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (*this < rhs) throw std::underflow_error("BigInt: negative result");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t v = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < rhs.limbs_.size()) v -= rhs.limbs_[i];
    if (v < 0) {
      v += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t v =
          a * rhs.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    out.limbs_[i + rhs.limbs_.size()] += static_cast<std::uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return BigInt();
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt: divide by zero");
  if (*this < divisor) return {BigInt(), *this};
  if (divisor.limbs_.size() == 1) {
    // Fast single-limb path.
    BigInt q;
    q.limbs_.resize(limbs_.size());
    const std::uint64_t d = divisor.limbs_[0];
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigInt(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its MSB set.
  int shift = 0;
  std::uint32_t top = divisor.limbs_.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  const BigInt u = *this << static_cast<std::size_t>(shift);
  const BigInt v = divisor << static_cast<std::size_t>(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra high limb for the algorithm
  const std::vector<std::uint32_t>& vn = v.limbs_;

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two limbs.
    const std::uint64_t num =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = num / vn[n - 1];
    std::uint64_t rhat = num % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t =
          static_cast<std::int64_t>(un[i + j]) -
          static_cast<std::int64_t>(static_cast<std::uint32_t>(p)) - borrow;
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add the divisor back.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + c);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigInt r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<long>(n));
  r.trim();
  r = r >> static_cast<std::size_t>(shift);
  return {q, r};
}

// Montgomery arithmetic modulo one odd m > 1 (DESIGN.md §5b). A residue
// is n little-endian 64-bit words; with R = 2^(64n), x is held as xR mod m
// and is always fully reduced, so equal residues have equal words. The
// context (m, -m^-1 mod 2^64, R mod m, R^2 mod m) is built once per
// modulus. mul() and sqr() work in a 2n-word scratch the caller owns and
// never allocate. Nothing here is constant-time: the final subtraction
// and the window lookups depend on the operands.
class BigInt::Montgomery {
 public:
  using Word = std::uint64_t;
  using Words = std::vector<Word>;

  explicit Montgomery(const BigInt& m);

  std::size_t words() const { return n_; }
  /// 1 in Montgomery form.
  const Words& one() const { return one_; }

  /// x (< m) into Montgomery form, and back.
  Words to_mont(const BigInt& x) const;
  BigInt from_mont(const Words& a) const;

  /// out = a*b/R mod m; out may alias a or b; t holds 2n words.
  void mul(Word* out, const Word* a, const Word* b, Word* t) const;
  /// out = a*a/R mod m, with mul()'s contract.
  void sqr(Word* out, const Word* a, Word* t) const;

  /// base^e with a fixed 4-bit window; base and result in Montgomery form.
  Words pow(const Words& base, const BigInt& e) const;

 private:
  using Wide = unsigned __int128;

  static Words pack(const BigInt& x, std::size_t n);
  /// out = t/R mod m for t < mR held in t[0, 2n); t is clobbered.
  void redc(Word* out, Word* t) const;

  std::size_t n_;
  Words m_;
  Word m0inv_ = 0;  // -m^-1 mod 2^64
  Words one_;       // R mod m
  Words r2_;        // R^2 mod m
};

BigInt::Montgomery::Words BigInt::Montgomery::pack(const BigInt& x,
                                                   std::size_t n) {
  Words out(n, 0);
  for (std::size_t i = 0; i < x.limbs_.size(); ++i) {
    out[i / 2] |= static_cast<Word>(x.limbs_[i]) << (32 * (i % 2));
  }
  return out;
}

BigInt::Montgomery::Montgomery(const BigInt& m)
    : n_((m.limbs_.size() + 1) / 2), m_(pack(m, n_)) {
  // Newton's iteration for m^-1 mod 2^64: odd m0 is its own inverse mod
  // 8, and each step doubles the correct low bits (3 -> 96).
  Word inv = m_[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - m_[0] * inv;
  m0inv_ = 0 - inv;
  const BigInt r_mod = (BigInt(1) << (64 * n_)) % m;
  one_ = pack(r_mod, n_);
  r2_ = pack((r_mod * r_mod) % m, n_);
}

BigInt::Montgomery::Words BigInt::Montgomery::to_mont(const BigInt& x) const {
  Words out = pack(x, n_);
  Words t(2 * n_);
  mul(out.data(), out.data(), r2_.data(), t.data());
  return out;
}

BigInt BigInt::Montgomery::from_mont(const Words& a) const {
  Words t(2 * n_, 0);
  std::copy(a.begin(), a.end(), t.begin());
  Words plain(n_);
  redc(plain.data(), t.data());
  BigInt out;
  out.limbs_.resize(2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(plain[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(plain[i] >> 32);
  }
  out.trim();
  return out;
}

void BigInt::Montgomery::redc(Word* out, Word* t) const {
  const std::size_t n = n_;
  const Word* m = m_.data();
  Word hi = 0;  // carry out of t[i + n - 1], owed to t[i + n]
  for (std::size_t i = 0; i < n; ++i) {
    // Add u*m*2^(64i) so that word i becomes zero.
    const Word u = t[i] * m0inv_;
    Wide c = 0;
    for (std::size_t j = 0; j < n; ++j) {
      c += static_cast<Wide>(u) * m[j] + t[i + j];
      t[i + j] = static_cast<Word>(c);
      c >>= 64;
    }
    c += static_cast<Wide>(t[i + n]) + hi;
    t[i + n] = static_cast<Word>(c);
    hi = static_cast<Word>(c >> 64);
  }
  // hi*R + t[n, 2n) < 2m: subtract m once unless that would go negative.
  Word borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Wide d = static_cast<Wide>(t[n + j]) - m[j] - borrow;
    out[j] = static_cast<Word>(d);
    borrow = static_cast<Word>(d >> 64) & 1;
  }
  if (borrow > hi) std::copy(t + n, t + 2 * n, out);
}

void BigInt::Montgomery::mul(Word* out, const Word* a, const Word* b,
                             Word* t) const {
  const std::size_t n = n_;
  std::fill(t, t + n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Word ai = a[i];
    Wide c = 0;
    for (std::size_t j = 0; j < n; ++j) {
      c += static_cast<Wide>(ai) * b[j] + t[i + j];
      t[i + j] = static_cast<Word>(c);
      c >>= 64;
    }
    t[i + n] = static_cast<Word>(c);
  }
  redc(out, t);
}

void BigInt::Montgomery::sqr(Word* out, const Word* a, Word* t) const {
  const std::size_t n = n_;
  // Each cross product a[i]*a[j], i < j, once...
  std::fill(t, t + n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Word ai = a[i];
    Wide c = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      c += static_cast<Wide>(ai) * a[j] + t[i + j];
      t[i + j] = static_cast<Word>(c);
      c >>= 64;
    }
    t[i + n] = static_cast<Word>(c);
  }
  // ...then doubled, plus the squares a[i]^2 on the diagonal.
  Word top = 0;  // bit shifted out of t[2i - 1]
  Wide c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide sq = static_cast<Wide>(a[i]) * a[i];
    const Word lo = t[2 * i];
    const Word hi = t[2 * i + 1];
    c += static_cast<Wide>((lo << 1) | top) + static_cast<Word>(sq);
    t[2 * i] = static_cast<Word>(c);
    c >>= 64;
    c += static_cast<Wide>((hi << 1) | (lo >> 63)) +
         static_cast<Word>(sq >> 64);
    t[2 * i + 1] = static_cast<Word>(c);
    c >>= 64;
    top = hi >> 63;
  }
  redc(out, t);
}

BigInt::Montgomery::Words BigInt::Montgomery::pow(const Words& base,
                                                  const BigInt& e) const {
  const std::size_t bits = e.bit_length();
  if (bits == 0) return one_;
  const std::size_t n = n_;
  // Scratch is allocated once per exponentiation: table[k] = base^k for
  // k < 16, then the product scratch.
  Words work(18 * n);
  Word* table = work.data();
  Word* t = table + 16 * n;
  std::copy(one_.begin(), one_.end(), table);
  std::copy(base.begin(), base.end(), table + n);
  for (std::size_t k = 2; k < 16; ++k) {
    mul(table + k * n, table + (k - 1) * n, table + n, t);
  }
  // 4-bit windows are aligned to multiples of 4, so one never straddles
  // two 32-bit limbs.
  const auto window = [&e](std::size_t w) {
    return (e.limbs_[w / 8] >> (4 * (w % 8))) & 0xf;
  };
  std::size_t w = (bits - 1) / 4;
  const Word* top = table + window(w) * n;
  Words acc(top, top + n);
  while (w-- > 0) {
    for (int k = 0; k < 4; ++k) sqr(acc.data(), acc.data(), t);
    const std::uint32_t digit = window(w);
    if (digit != 0) mul(acc.data(), acc.data(), table + digit * n, t);
  }
  return acc;
}

BigInt BigInt::mod_exp(const BigInt& exp, const BigInt& m) const {
  if (m.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (m == BigInt(1)) return BigInt();
  BigInt base = *this % m;
  if (exp.is_zero()) return BigInt(1);

  if (m.is_odd()) {
    const Montgomery mont(m);
    return mont.from_mont(mont.pow(mont.to_mont(base), exp));
  }

  // Even modulus: plain square-and-multiply with divmod (rare path; only
  // used by tests).
  BigInt acc(1);
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = (acc * acc) % m;
    if (exp.bit(i)) acc = (acc * base) % m;
  }
  return acc;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& m) const {
  // Extended Euclid tracking coefficients with explicit signs.
  BigInt r0 = m, r1 = *this % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q * t1 with sign handling.
    const BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!(r0 == BigInt(1))) {
    throw std::domain_error("mod_inverse: not invertible");
  }
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::random_below(HmacDrbg& drbg, const BigInt& bound) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  const std::size_t bytes = (bound.bit_length() + 7) / 8;
  // Rejection sampling keeps the distribution exactly uniform.
  for (;;) {
    Bytes raw = drbg.generate(bytes);
    // Mask off excess top bits to tighten the rejection rate.
    const std::size_t excess = bytes * 8 - bound.bit_length();
    if (excess) raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(HmacDrbg& drbg, std::size_t bits) {
  if (bits == 0) return BigInt();
  const std::size_t bytes = (bits + 7) / 8;
  Bytes raw = drbg.generate(bytes);
  const std::size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  BigInt out = from_bytes_be(raw);
  out.set_bit(bits - 1);
  return out;
}

namespace {
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};
}

bool BigInt::is_probable_prime(const BigInt& n, HmacDrbg& drbg, int rounds) {
  if (n < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigInt(p)) return true;
    if ((n % BigInt(p)).is_zero()) return false;
  }
  // Write n-1 = d * 2^s.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  // One Montgomery context per candidate; the rounds compare and square
  // in Montgomery form, where 1 and n-1 have fixed images.
  const Montgomery mont(n);
  const Montgomery::Words& one = mont.one();
  const Montgomery::Words minus_one = mont.to_mont(n_minus_1);
  Montgomery::Words t(2 * mont.words());
  for (int round = 0; round < rounds; ++round) {
    const BigInt a =
        BigInt(2) + random_below(drbg, n - BigInt(4));
    Montgomery::Words x = mont.pow(mont.to_mont(a), d);
    if (x == one || x == minus_one) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < s; ++i) {
      mont.sqr(x.data(), x.data(), t.data());
      if (x == minus_one) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(HmacDrbg& drbg, std::size_t bits) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits < 8");
  for (;;) {
    BigInt candidate = random_bits(drbg, bits);
    candidate.set_bit(0);         // odd
    candidate.set_bit(bits - 2);  // keep products full-width for RSA
    if (is_probable_prime(candidate, drbg)) return candidate;
  }
}

}  // namespace hipcloud::crypto
