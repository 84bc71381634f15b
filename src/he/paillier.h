#ifndef VFPS_HE_PAILLIER_H_
#define VFPS_HE_PAILLIER_H_

#include <cstdint>
#include <memory>

#include "common/random.h"
#include "common/result.h"
#include "he/bignum.h"

namespace vfps::he {

/// Paillier public key (n, n^2); the generator is fixed to g = n + 1.
struct PaillierPublicKey {
  BigInt n;
  BigInt n_squared;
};

/// Paillier private key: lambda = lcm(p-1, q-1) and mu = lambda^{-1} mod n.
struct PaillierPrivateKey {
  BigInt lambda;
  BigInt mu;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// A Paillier ciphertext is an element of Z_{n^2}^*.
struct PaillierCiphertext {
  BigInt value;
};

/// \brief Textbook Paillier cryptosystem (additively homomorphic).
///
/// Used as the classic VFL alternative to CKKS (Hardy et al. style); the
/// selection protocol only needs Enc / Dec / homomorphic Add, all of which
/// are exact over Z_n. Real values are handled by fixed-point encoding at the
/// backend layer (see backend.h).
class Paillier {
 public:
  /// \param modulus_bits bit length of n = p*q (e.g. 1024; tests use less).
  static Result<PaillierKeyPair> GenerateKeys(size_t modulus_bits, Rng* rng);

  /// Encrypt m in [0, n).  c = (1 + m*n) * r^n mod n^2.
  static Result<PaillierCiphertext> Encrypt(const PaillierPublicKey& pk,
                                            const BigInt& m, Rng* rng);

  /// Decrypt: m = L(c^lambda mod n^2) * mu mod n, with L(u) = (u-1)/n.
  static Result<BigInt> Decrypt(const PaillierPublicKey& pk,
                                const PaillierPrivateKey& sk,
                                const PaillierCiphertext& c);

  /// Homomorphic addition: Enc(a) (*) Enc(b) = Enc(a + b mod n).
  static Result<PaillierCiphertext> Add(const PaillierPublicKey& pk,
                                        const PaillierCiphertext& a,
                                        const PaillierCiphertext& b);

  /// Map a signed 64-bit integer into Z_n (negatives wrap to n - |v|).
  static BigInt EncodeSigned(const PaillierPublicKey& pk, int64_t v);

  /// Inverse of EncodeSigned; values above n/2 are interpreted as negative.
  static int64_t DecodeSigned(const PaillierPublicKey& pk, const BigInt& m);
};

}  // namespace vfps::he

#endif  // VFPS_HE_PAILLIER_H_
