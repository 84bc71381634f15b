#include "he/ckks_encoder.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "he/modarith.h"
#include "simd/simd.h"

namespace vfps::he {

namespace {
constexpr double kPi = 3.14159265358979323846;

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

Result<CkksEncoder> CkksEncoder::Create(std::shared_ptr<const RnsContext> ctx) {
  CkksEncoder enc(std::move(ctx));
  const size_t n = enc.ctx_->n();
  if (n < 4 || (n & (n - 1)) != 0) {
    return Status::InvalidArgument("CkksEncoder: ring degree must be a power of two >= 4");
  }
  enc.coeff_bound_ = CoeffBound(*enc.ctx_);
  enc.twist_re_.resize(n);
  enc.twist_im_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const double angle = kPi * static_cast<double>(k) / static_cast<double>(n);
    enc.twist_re_[k] = std::cos(angle);
    enc.twist_im_[k] = std::sin(angle);
  }
  // Root m of the n-point transform is e^{-2*pi*i*m/n}; the stage of half
  // length h reads roots m = j * (n / 2h), j < h. Copying each stage's roots
  // next to each other keeps the butterfly loop unit-stride.
  enc.root_re_.resize(n - 1);
  enc.root_im_.resize(n - 1);
  enc.root_im_inv_.resize(n - 1);
  for (size_t h = 1; h < n; h <<= 1) {
    const size_t step = n / (2 * h);
    for (size_t j = 0; j < h; ++j) {
      const double angle = -2.0 * kPi * static_cast<double>(j * step) /
                           static_cast<double>(n);
      enc.root_re_[h - 1 + j] = std::cos(angle);
      enc.root_im_[h - 1 + j] = std::sin(angle);
      enc.root_im_inv_[h - 1 + j] = -enc.root_im_[h - 1 + j];
    }
  }
  // The NTT tables already hold the bit-reversal permutation for this n;
  // share it instead of recomputing (every RNS prime uses the same ring
  // degree, so table 0 suffices).
  enc.bit_rev_ = enc.ctx_->ntt(0).bit_rev();
  enc.twist_re_br_.resize(n);
  enc.twist_im_br_.resize(n);
  for (size_t m = 0; m < n; ++m) {
    enc.twist_re_br_[m] = enc.twist_re_[enc.bit_rev_[m]];
    enc.twist_im_br_[m] = enc.twist_im_[enc.bit_rev_[m]];
  }
  return enc;
}

namespace {
bool FusedAvx512(size_t n) {
  return simd::ActiveIsa() == simd::Isa::kAvx512 && n >= 16;
}
}  // namespace

void CkksEncoder::ForwardFromValues(std::span<const double> values,
                                    double* re, double* im) const {
  const size_t n = ctx_->n();
  if (FusedAvx512(n)) {
    ForwardFromValuesAvx512(values, re, im);
    return;
  }
  // The zero fill is the tail mask for partially-filled chunks; the values
  // go straight to their bit-reversed positions.
  std::fill(re, re + n, 0.0);
  std::fill(im, im + n, 0.0);
  for (size_t j = 0; j < values.size(); ++j) re[bit_rev_[j]] = values[j];
  Fft(re, im, /*inverse=*/false);
}

void CkksEncoder::InverseFromCoeffs(const double* coeffs, double* re,
                                    double* im) const {
  const size_t n = ctx_->n();
  if (FusedAvx512(n)) {
    InverseFromCoeffsAvx512(coeffs, re, im);
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    re[bit_rev_[k]] = twist_re_[k] * coeffs[k];
    im[bit_rev_[k]] = twist_im_[k] * coeffs[k];
  }
  Fft(re, im, /*inverse=*/true);
}

void CkksEncoder::Fft(double* re, double* im, bool inverse) const {
  const double* roots_im = inverse ? root_im_inv_.data() : root_im_.data();
  if (simd::ActiveIsa() >= simd::Isa::kAvx2 && ctx_->n() >= 8) {
    FftAvx2(re, im, roots_im);
    return;
  }
  FftScalar(re, im, roots_im);
}

void CkksEncoder::FftScalar(double* re, double* im,
                            const double* roots_im) const {
  const size_t n = ctx_->n();
  for (size_t h = 1; h < n; h <<= 1) {
    const double* __restrict wr = root_re_.data() + (h - 1);
    const double* __restrict wi = roots_im + (h - 1);
    for (size_t i = 0; i < n; i += 2 * h) {
      double* __restrict ur = re + i;
      double* __restrict ui = im + i;
      double* __restrict vr = re + i + h;
      double* __restrict vi = im + i + h;
      for (size_t j = 0; j < h; ++j) {
        // t = w * v, then (u, v) <- (u + t, u - t).
        const double tr = wr[j] * vr[j] - wi[j] * vi[j];
        const double ti = wr[j] * vi[j] + wi[j] * vr[j];
        const double xr = ur[j];
        const double xi = ui[j];
        ur[j] = xr + tr;
        ui[j] = xi + ti;
        vr[j] = xr - tr;
        vi[j] = xi - ti;
      }
    }
  }
}

Status CkksEncoder::RoundAndReduceScalar(const double* re, const double* im,
                                         double scale, size_t begin,
                                         RnsPoly* out) const {
  const size_t n = ctx_->n();
  const double inv = 2.0 / static_cast<double>(n);
  for (size_t k = begin; k < n; ++k) {
    // c_k = (2/n) * Re(w^{-k} * A_k) * scale
    const double coeff =
        inv * (twist_re_[k] * re[k] + twist_im_[k] * im[k]) * scale;
    if (!(std::abs(coeff) < coeff_bound_)) {
      return Status::OutOfRange(
          StrFormat("CkksEncoder: coefficient %.3e overflows encode bound; "
                    "reduce the scale or the value magnitudes",
                    coeff));
    }
    // llround(coeff): below 2^52 the fraction coeff - t is exact and t +/- 1
    // is exact; from 2^52 up coeff is an integer and the fraction is 0. So
    // |t| < 2^62 and the rounded magnitude fits one 64-bit word.
    double t = std::trunc(coeff);
    if (std::abs(coeff - t) >= 0.5) t += std::copysign(1.0, coeff);
    const int64_t rounded = static_cast<int64_t>(t);
    const uint64_t mag = static_cast<uint64_t>(rounded >= 0 ? rounded : -rounded);
    for (size_t i = 0; i < out->num_primes(); ++i) {
      const uint64_t r = BarrettReduce64(mag, ctx_->modulus(i));
      out->residues[i][k] = (rounded >= 0 || r == 0) ? r : ctx_->prime(i) - r;
    }
  }
  return Status::OK();
}

Result<RnsPoly> CkksEncoder::Encode(std::span<const double> values,
                                    double scale) const {
  RnsPoly poly;
  VFPS_RETURN_NOT_OK(EncodeCoefficients(values, scale, &poly));
  ToNtt(*ctx_, &poly);
  return poly;
}

Status CkksEncoder::EncodeCoefficients(std::span<const double> values,
                                       double scale, RnsPoly* out) const {
  const size_t n = ctx_->n();
  if (values.size() > slot_count()) {
    return Status::CapacityError(
        StrFormat("CkksEncoder: %zu values exceed %zu slots", values.size(),
                  slot_count()));
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("CkksEncoder: scale must be positive");
  }
  // Per-thread scratch (the encrypt hot path encodes one chunk per
  // ciphertext; reusing the FFT buffers removes two n-double allocations per
  // chunk). The transform writes every element, so state never leaks
  // between calls.
  thread_local std::vector<double> re, im;
  re.resize(n);
  im.resize(n);
  ForwardFromValues(values, re.data(), im.data());
  ResizePoly(*ctx_, out);
  size_t done = 0;
  switch (simd::ActiveIsa()) {
    case simd::Isa::kAvx512:
      done = RoundAndReduceAvx512(re.data(), im.data(), scale, out);
      break;
    case simd::Isa::kAvx2:
      done = RoundAndReduceAvx2(re.data(), im.data(), scale, out);
      break;
    case simd::Isa::kScalar:
      break;
  }
  return RoundAndReduceScalar(re.data(), im.data(), scale, done, out);
}

Result<std::vector<double>> CkksEncoder::Decode(const RnsPoly& poly,
                                                double scale,
                                                size_t count) const {
  if (count > slot_count()) {
    return Status::CapacityError("CkksEncoder: decode count exceeds slots");
  }
  // Per-thread scratch; fully overwritten from `poly` before use.
  thread_local RnsPoly coeff_form;
  coeff_form.residues.resize(poly.num_primes());
  for (size_t i = 0; i < poly.num_primes(); ++i) {
    coeff_form.residues[i].assign(poly.residues[i].begin(),
                                  poly.residues[i].end());
  }
  coeff_form.ntt_form = poly.ntt_form;
  std::vector<double> out(count);
  VFPS_RETURN_NOT_OK(DecodeInto(&coeff_form, scale, count, out.data()));
  return out;
}

Status CkksEncoder::DecodeInto(RnsPoly* poly, double scale, size_t count,
                               double* out) const {
  const size_t n = ctx_->n();
  if (count > slot_count()) {
    return Status::CapacityError("CkksEncoder: decode count exceeds slots");
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("CkksEncoder: scale must be positive");
  }
  FromNtt(*ctx_, poly);
  // Same reuse trick as Encode: the transform writes every element of re
  // and im before reading it.
  thread_local std::vector<double> coeffs, re, im;
  coeffs.resize(n);
  re.resize(n);
  im.resize(n);
  ComposeToDouble(*ctx_, *poly, coeffs.data());
  InverseFromCoeffs(coeffs.data(), re.data(), im.data());
  for (size_t j = 0; j < count; ++j) out[j] = re[j] / scale;
  return Status::OK();
}

}  // namespace vfps::he
