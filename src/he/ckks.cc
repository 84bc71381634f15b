#include "he/ckks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"
#include "he/modarith.h"
#include "he/poly_simd.h"

namespace vfps::he {

namespace {
// min(2^62, floor(Q/2)), rounded down to a double: |c| below it rounds to
// an integer of magnitude <= floor(Q/2), which the centred CRT decode maps
// back to itself.
double CoeffBound(const RnsContext& ctx) {
  unsigned __int128 big_q = 1;
  for (uint64_t q : ctx.primes()) big_q *= q;
  const unsigned __int128 half = big_q / 2;
  constexpr uint64_t kTwo62 = uint64_t{1} << 62;
  if (half >= kTwo62) return static_cast<double>(kTwo62);
  const uint64_t h = static_cast<uint64_t>(half);
  double bound = static_cast<double>(h);
  if (static_cast<uint64_t>(bound) > h) bound = std::nextafter(bound, 0.0);
  return bound;
}
}  // namespace

Result<std::shared_ptr<const CkksContext>> CkksContext::Create(
    const CkksParams& params) {
  if (params.poly_degree < 8) {
    return Status::InvalidArgument("CkksContext: poly_degree too small");
  }
  for (int bits : params.prime_bits) {
    if (bits < 30 || bits > 59) {
      return Status::InvalidArgument(
          "CkksContext: prime bits must be in [30, 59]");
    }
  }
  // Rejects a non-finite or out-of-range noise_sigma.
  VFPS_ASSIGN_OR_RETURN(auto noise, GaussianCdt::Create(params.noise_sigma));
  auto ctx = std::shared_ptr<CkksContext>(new CkksContext());
  ctx->params_ = params;
  ctx->noise_ = std::make_unique<const GaussianCdt>(std::move(noise));
  VFPS_ASSIGN_OR_RETURN(ctx->rns_,
                        RnsContext::Create(params.poly_degree, params.prime_bits));
  ctx->coeff_bound_ = CoeffBound(*ctx->rns_);
  return std::shared_ptr<const CkksContext>(ctx);
}

Status CkksContext::EncodeCoefficients(std::span<const double> values,
                                       double scale, RnsPoly* out) const {
  if (values.size() > slot_count()) {
    return Status::CapacityError(
        StrFormat("CkksEncoder: %zu values exceed %zu slots", values.size(),
                  slot_count()));
  }
  if (!(scale > 0.0)) {
    return Status::InvalidArgument("CkksEncoder: scale must be positive");
  }
  ResizePoly(*rns_, out);
  std::array<uint64_t*, RnsContext::kMaxPrimes> dst{};
  std::array<Modulus, RnsContext::kMaxPrimes> moduli{};
  for (size_t i = 0; i < rns_->num_primes(); ++i) {
    dst[i] = out->residues[i].data();
    moduli[i] = rns_->modulus(i);
  }
  const size_t done = detail::RoundAndReduceVec(
      dst.data(), moduli.data(), rns_->num_primes(), values.data(),
      values.size(), scale, coeff_bound_);
  if (done < values.size()) {
    return Status::OutOfRange(
        StrFormat("CkksEncoder: coefficient %.3e overflows encode bound; "
                  "reduce the scale or the value magnitudes",
                  values[done] * scale));
  }
  // The ragged-tail mask: a partly filled chunk encodes zeros past its
  // values, and zeros add to zeros.
  for (size_t i = 0; i < rns_->num_primes(); ++i) {
    std::fill(dst[i] + values.size(), dst[i] + rns_->n(), uint64_t{0});
  }
  return Status::OK();
}

Result<RnsPoly> CkksContext::Encode(std::span<const double> values,
                                    double scale) const {
  RnsPoly poly;
  VFPS_RETURN_NOT_OK(EncodeCoefficients(values, scale, &poly));
  ToNtt(*rns_, &poly);
  return poly;
}

Status CkksContext::DecodeInto(RnsPoly* poly, double scale, size_t count,
                               double* out) const {
  if (count > slot_count()) {
    return Status::CapacityError("CkksEncoder: decode count exceeds slots");
  }
  if (!(scale > 0.0)) {
    return Status::InvalidArgument("CkksEncoder: scale must be positive");
  }
  FromNtt(*rns_, poly);
  ComposeToDouble(*rns_, *poly, count, out);
  for (size_t j = 0; j < count; ++j) out[j] /= scale;
  return Status::OK();
}

Result<std::vector<double>> CkksContext::Decode(const RnsPoly& poly,
                                                double scale,
                                                size_t count) const {
  // Per-thread scratch; fully overwritten from `poly` before use.
  thread_local RnsPoly copy;
  copy.residues.assign(poly.residues.begin(), poly.residues.end());
  copy.ntt_form = poly.ntt_form;
  std::vector<double> out(std::min(count, slot_count()));
  VFPS_RETURN_NOT_OK(DecodeInto(&copy, scale, count, out.data()));
  return out;
}

CkksSecretKey CkksContext::GenerateSecretKey(Rng* rng) const {
  CkksSecretKey sk;
  sk.s = SampleTernary(*rns_, rng);
  ToNtt(*rns_, &sk.s);
  sk.s_shoup = ShoupCompanions(*rns_, sk.s);
  return sk;
}

CkksPublicKey CkksContext::GeneratePublicKey(const CkksSecretKey& sk,
                                             Rng* rng) const {
  CkksPublicKey pk;
  pk.a = SampleUniform(*rns_, rng);  // already NTT form
  RnsPoly e = SampleGaussian(*rns_, rng, *noise_);
  ToNtt(*rns_, &e);
  // b = -(a*s + e)
  pk.b = pk.a;
  MulPointwiseInPlace(*rns_, &pk.b, sk.s);
  AddInPlace(*rns_, &pk.b, e);
  NegateInPlace(*rns_, &pk.b);
  pk.b_shoup = ShoupCompanions(*rns_, pk.b);
  pk.a_shoup = ShoupCompanions(*rns_, pk.a);
  return pk;
}

namespace {
const uint8_t* Bytes(const std::vector<uint64_t>& words) {
  return reinterpret_cast<const uint8_t*>(words.data());
}
uint8_t* Bytes(std::vector<uint64_t>* words) {
  return reinterpret_cast<uint8_t*>(words->data());
}
uint8_t* PutU32(uint8_t* p, uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}
}  // namespace

Status CkksContext::EncryptResidues(const CkksPublicKey& pk,
                                    std::span<const double> values, Rng* rng,
                                    uint8_t* const* c0,
                                    uint8_t* const* c1) const {
  // Per-thread scratch for the three masking polynomials: every component
  // is overwritten by the encoder and the samplers, so reuse is invisible
  // to both determinism and callers. e0 first holds the plaintext m.
  thread_local RnsPoly u, e0, e1;
  // Encode first, so a rejected input consumes no randomness.
  VFPS_RETURN_NOT_OK(EncodeCoefficients(values, params_.scale, &e0));
  SampleTernaryInto(*rns_, rng, &u);
  ToNtt(*rns_, &u);
  // The error sampler adds m as it maps its draws. The forward NTT is
  // linear mod q and fully reduces its outputs, so NTT(e0 + m) ==
  // NTT(e0) + NTT(m) residue for residue: one transform covers both
  // (docs/HE.md).
  SampleGaussianInto(*rns_, rng, &e0, *noise_, &e0);
  ToNtt(*rns_, &e0);
  SampleGaussianInto(*rns_, rng, &e1, *noise_);
  ToNtt(*rns_, &e1);
  // c0 = b*u + (e0 + m) and c1 = a*u + e1: one fused pass per component
  // and prime, multiplying by the keys through their Shoup companions (the
  // same residues as a Barrett product) and storing into the destination.
  // Every operand is a reduced residue, so the range checks hold.
  for (size_t i = 0; i < rns_->num_primes(); ++i) {
    const uint64_t q = rns_->prime(i);
    detail::MulAddModShoupVec(c0[i], Bytes(u.residues[i]),
                              pk.b.residues[i].data(), pk.b_shoup[i].data(),
                              Bytes(e0.residues[i]), rns_->n(), q);
    detail::MulAddModShoupVec(c1[i], Bytes(u.residues[i]),
                              pk.a.residues[i].data(), pk.a_shoup[i].data(),
                              Bytes(e1.residues[i]), rns_->n(), q);
  }
  return Status::OK();
}

Result<CkksCiphertext> CkksContext::EncryptVector(
    const CkksPublicKey& pk, std::span<const double> values,
    Rng* rng) const {
  CkksCiphertext ct;
  ResizePoly(*rns_, &ct.c0);
  ResizePoly(*rns_, &ct.c1);
  ct.c0.ntt_form = ct.c1.ntt_form = true;
  ct.scale = params_.scale;
  std::array<uint8_t*, RnsContext::kMaxPrimes> c0{}, c1{};
  for (size_t i = 0; i < rns_->num_primes(); ++i) {
    c0[i] = Bytes(&ct.c0.residues[i]);
    c1[i] = Bytes(&ct.c1.residues[i]);
  }
  VFPS_RETURN_NOT_OK(EncryptResidues(pk, values, rng, c0.data(), c1.data()));
  return ct;
}

Status CkksContext::EncryptToWire(const CkksPublicKey& pk,
                                  std::span<const double> values, Rng* rng,
                                  uint8_t* out) const {
  // SerializeCiphertext's layout: scale, form byte, then per polynomial a
  // prime count and per prime a length and the residue words.
  const size_t n = rns_->n();
  std::memcpy(out, &params_.scale, sizeof(double));
  uint8_t* p = out + sizeof(double);
  *p++ = 1;  // NTT form
  std::array<uint8_t*, RnsContext::kMaxPrimes> dst[2];
  for (auto& poly : dst) {
    p = PutU32(p, static_cast<uint32_t>(rns_->num_primes()));
    for (size_t i = 0; i < rns_->num_primes(); ++i) {
      p = PutU32(p, static_cast<uint32_t>(n));
      poly[i] = p;
      p += n * sizeof(uint64_t);
    }
  }
  return EncryptResidues(pk, values, rng, dst[0].data(), dst[1].data());
}

Result<std::vector<double>> CkksContext::DecryptVector(
    const CkksSecretKey& sk, const CkksCiphertext& ct, size_t count) const {
  // The in-place decryption over the ciphertext's own residue vectors.
  CkksCiphertextView view;
  view.scale = ct.scale;
  view.ntt_form = ct.c1.ntt_form;
  view.level = std::min({ct.c0.num_primes(), ct.c1.num_primes(),
                         sk.s.num_primes(), RnsContext::kMaxPrimes});
  for (size_t i = 0; i < view.level; ++i) {
    view.c0[i] = Bytes(ct.c0.residues[i]);
    view.c1[i] = Bytes(ct.c1.residues[i]);
  }
  std::vector<double> out(std::min(count, slot_count()));
  VFPS_RETURN_NOT_OK(DecryptViewInto(sk, view, count, out.data()));
  return out;
}

Status CkksContext::DecryptViewInto(const CkksSecretKey& sk,
                                    const CkksCiphertextView& ct, size_t count,
                                    double* out) const {
  // Per-thread plaintext scratch, fully overwritten below; the decode
  // transforms it in place.
  thread_local RnsPoly m;
  m.residues.resize(ct.level);
  for (size_t i = 0; i < ct.level; ++i) {
    m.residues[i].resize(rns_->n());
    if (!detail::MulAddModShoupVec(Bytes(&m.residues[i]), ct.c1[i],
                                   sk.s.residues[i].data(),
                                   sk.s_shoup[i].data(), ct.c0[i], rns_->n(),
                                   rns_->prime(i))) {
      const Status bad = CheckResidues(ct);
      return bad.ok() ? Status::Internal("CKKS decrypt: range check disagrees")
                      : bad;
    }
  }
  m.ntt_form = ct.ntt_form;
  return DecodeInto(&m, ct.scale, count, out);
}

Status CkksContext::AddInPlaceCt(CkksCiphertext* x,
                                 const CkksCiphertext& y) const {
  if (x->scale != y.scale) {
    return Status::InvalidArgument("CKKS Add: scale mismatch");
  }
  AddInPlace(*rns_, &x->c0, y.c0);
  AddInPlace(*rns_, &x->c1, y.c1);
  return Status::OK();
}

Result<CkksCiphertext> CkksContext::Add(const CkksCiphertext& x,
                                        const CkksCiphertext& y) const {
  CkksCiphertext out = x;
  VFPS_RETURN_NOT_OK(AddInPlaceCt(&out, y));
  return out;
}

void CkksContext::SerializeCiphertext(const CkksCiphertext& ct,
                                      BinaryWriter* out) const {
  out->WriteDouble(ct.scale);
  out->WriteU8(ct.c0.ntt_form ? 1 : 0);
  for (const RnsPoly* poly : {&ct.c0, &ct.c1}) {
    out->WriteU32(static_cast<uint32_t>(poly->num_primes()));
    for (const auto& residue : poly->residues) out->WriteU64Vec(residue);
  }
}

Result<CkksCiphertextView> CkksContext::ParseCiphertext(
    BinaryReader* in) const {
  // Every check names the field it rejects. On a fault-free run the channel
  // passes bytes through unchecked, so this (with CheckResidues or the
  // range-checking kernels) is the only gate between the wire and kernels
  // that assume well-formed operands.
  CkksCiphertextView ct;
  VFPS_ASSIGN_OR_RETURN(ct.scale, in->ReadDouble());
  if (!(std::isfinite(ct.scale) && ct.scale > 0.0)) {
    return Status::ProtocolError(StrFormat(
        "CKKS deserialize: scale %g is not finite and positive", ct.scale));
  }
  VFPS_ASSIGN_OR_RETURN(uint8_t ntt_form, in->ReadU8());
  if (ntt_form > 1) {
    return Status::ProtocolError(
        StrFormat("CKKS deserialize: form byte %u is not 0 or 1",
                  static_cast<unsigned>(ntt_form)));
  }
  ct.ntt_form = ntt_form != 0;
  const size_t n = rns_->n();
  size_t levels[2] = {0, 0};
  for (size_t poly = 0; poly < 2; ++poly) {
    VFPS_ASSIGN_OR_RETURN(uint32_t num_primes, in->ReadU32());
    if (num_primes == 0 || num_primes > rns_->num_primes()) {
      return Status::ProtocolError("CKKS deserialize: prime count mismatch");
    }
    levels[poly] = num_primes;
    auto& words = poly == 0 ? ct.c0 : ct.c1;
    for (uint32_t i = 0; i < num_primes; ++i) {
      VFPS_ASSIGN_OR_RETURN(uint32_t length, in->ReadU32());
      if (length != n) {
        return Status::ProtocolError("CKKS deserialize: degree mismatch");
      }
      VFPS_ASSIGN_OR_RETURN(words[i], in->ReadRaw(n * sizeof(uint64_t)));
    }
  }
  // The pointwise ops run over the smaller prime count, so a mismatch would
  // decrypt at the wrong level.
  if (levels[0] != levels[1]) {
    return Status::ProtocolError(
        StrFormat("CKKS deserialize: c0 has %zu primes but c1 has %zu",
                  levels[0], levels[1]));
  }
  ct.level = levels[0];
  return ct;
}

Status CkksContext::CheckResidues(const CkksCiphertextView& ct) const {
  const size_t n = rns_->n();
  for (size_t poly = 0; poly < 2; ++poly) {
    const auto& words = poly == 0 ? ct.c0 : ct.c1;
    for (size_t i = 0; i < ct.level; ++i) {
      // The modular kernels assume residues in [0, q). As q < 2^62, v < q
      // exactly when v < 2^63 and v - q wraps past zero (top bit set): one
      // AND and one OR per residue, a pass that vectorizes.
      const uint64_t q = rns_->prime(i);
      uint64_t all_wrap = ~uint64_t{0};
      uint64_t any_top = 0;
      for (size_t j = 0; j < n; ++j) {
        const uint64_t v = detail::LoadWord(words[i] + j * sizeof(uint64_t));
        all_wrap &= v - q;
        any_top |= v;
      }
      if ((all_wrap >> 63) == 0 || (any_top >> 63) != 0) {
        return Status::ProtocolError(StrFormat(
            "CKKS deserialize: %s residue for prime %zu is not below it",
            poly == 0 ? "c0" : "c1", i));
      }
    }
  }
  return Status::OK();
}

Result<CkksCiphertext> CkksContext::DeserializeCiphertext(
    BinaryReader* in) const {
  VFPS_ASSIGN_OR_RETURN(auto view, ParseCiphertext(in));
  VFPS_RETURN_NOT_OK(CheckResidues(view));
  CkksCiphertext ct;
  ct.scale = view.scale;
  for (RnsPoly* poly : {&ct.c0, &ct.c1}) {
    const auto& words = poly == &ct.c0 ? view.c0 : view.c1;
    poly->residues.resize(view.level);
    for (size_t i = 0; i < view.level; ++i) {
      poly->residues[i].resize(rns_->n());
      std::memcpy(poly->residues[i].data(), words[i],
                  rns_->n() * sizeof(uint64_t));
    }
    poly->ntt_form = view.ntt_form;
  }
  return ct;
}

size_t CkksContext::CiphertextByteSize() const {
  // scale + form byte + 2 polys * (prime-count header + per-prime vectors).
  return sizeof(double) + 1 +
         2 * (sizeof(uint32_t) +
              rns_->num_primes() * (sizeof(uint32_t) + rns_->n() * sizeof(uint64_t)));
}

}  // namespace vfps::he
