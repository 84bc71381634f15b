#include "he/paillier.h"

#include "common/macros.h"

namespace vfps::he {

Result<PaillierKeyPair> Paillier::GenerateKeys(size_t modulus_bits, Rng* rng) {
  if (modulus_bits < 64) {
    return Status::InvalidArgument("Paillier: modulus must be >= 64 bits");
  }
  const size_t half = modulus_bits / 2;
  for (int attempt = 0; attempt < 64; ++attempt) {
    VFPS_ASSIGN_OR_RETURN(BigInt p, BigInt::GeneratePrime(half, rng));
    VFPS_ASSIGN_OR_RETURN(BigInt q, BigInt::GeneratePrime(modulus_bits - half, rng));
    if (p == q) continue;
    const BigInt n = p * q;
    const BigInt one(1);
    const BigInt p1 = p - one;
    const BigInt q1 = q - one;
    // lambda = lcm(p-1, q-1) = (p-1)(q-1) / gcd(p-1, q-1)
    const BigInt g = BigInt::Gcd(p1, q1);
    VFPS_ASSIGN_OR_RETURN(auto qr, BigInt::DivMod(p1 * q1, g));
    const BigInt lambda = qr.first;
    auto mu_result = BigInt::ModInverse(lambda, n);
    if (!mu_result.ok()) continue;  // pathological; re-draw primes
    PaillierKeyPair keys;
    keys.pub.n = n;
    keys.pub.n_squared = n * n;
    keys.priv.lambda = lambda;
    keys.priv.mu = mu_result.MoveValueUnsafe();
    return keys;
  }
  return Status::Internal("Paillier: key generation failed repeatedly");
}

Result<PaillierCiphertext> Paillier::Encrypt(const PaillierPublicKey& pk,
                                             const BigInt& m, Rng* rng) {
  if (m >= pk.n) {
    return Status::InvalidArgument("Paillier: plaintext out of range");
  }
  // r uniform in [1, n) with gcd(r, n) = 1 (overwhelmingly likely).
  BigInt r;
  do {
    r = BigInt::RandomBelow(pk.n, rng);
  } while (r.IsZero() || BigInt::Gcd(r, pk.n) != BigInt(1));
  // g = n+1 shortcut: g^m = 1 + m*n (mod n^2).
  VFPS_ASSIGN_OR_RETURN(BigInt gm, BigInt::Mod(BigInt(1) + m * pk.n, pk.n_squared));
  VFPS_ASSIGN_OR_RETURN(BigInt rn, BigInt::PowMod(r, pk.n, pk.n_squared));
  VFPS_ASSIGN_OR_RETURN(BigInt c, BigInt::MulMod(gm, rn, pk.n_squared));
  return PaillierCiphertext{std::move(c)};
}

Result<BigInt> Paillier::Decrypt(const PaillierPublicKey& pk,
                                 const PaillierPrivateKey& sk,
                                 const PaillierCiphertext& c) {
  VFPS_ASSIGN_OR_RETURN(BigInt u,
                        BigInt::PowMod(c.value, sk.lambda, pk.n_squared));
  if (u.IsZero()) return Status::CryptoError("Paillier: invalid ciphertext");
  // L(u) = (u - 1) / n
  VFPS_ASSIGN_OR_RETURN(auto qr, BigInt::DivMod(u - BigInt(1), pk.n));
  VFPS_ASSIGN_OR_RETURN(BigInt m, BigInt::MulMod(qr.first, sk.mu, pk.n));
  return m;
}

Result<PaillierCiphertext> Paillier::Add(const PaillierPublicKey& pk,
                                         const PaillierCiphertext& a,
                                         const PaillierCiphertext& b) {
  VFPS_ASSIGN_OR_RETURN(BigInt c, BigInt::MulMod(a.value, b.value, pk.n_squared));
  return PaillierCiphertext{std::move(c)};
}

BigInt Paillier::EncodeSigned(const PaillierPublicKey& pk, int64_t v) {
  if (v >= 0) return BigInt(static_cast<uint64_t>(v));
  return pk.n - BigInt(static_cast<uint64_t>(-v));
}

int64_t Paillier::DecodeSigned(const PaillierPublicKey& pk, const BigInt& m) {
  const BigInt half = pk.n >> 1;
  if (m > half) {
    const BigInt neg = pk.n - m;
    return -static_cast<int64_t>(neg.ToU64());
  }
  return static_cast<int64_t>(m.ToU64());
}

}  // namespace vfps::he
