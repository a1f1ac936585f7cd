//! Simulated public-key identities and signatures.
//!
//! Deployed Tribler gives every peer a non-spoofable public-key identity;
//! all protocol messages are signed, preventing forged or altered
//! moderations. Inside a closed simulation we do not need real
//! cryptography — no modelled adversary attacks the cipher — only its
//! *behavioural* guarantees:
//!
//! 1. a moderation verifiably originates from its claimed moderator, and
//! 2. any alteration of signed fields is detected.
//!
//! [`KeyRegistry`] provides exactly that with a keyed 64-bit hash: each
//! node has a secret derived from a master seed; `sign` mixes the secret
//! with the message digest; `verify` recomputes. The registry stands in
//! for the PKI's certificate directory. See DESIGN.md ("Substitutions").

use rvs_sim::{DetRng, NodeId};

/// A simulated signature value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub u64);

rvs_checkpoint::persist_struct!(Signature { 0 });

/// 64-bit message digest over arbitrary fields (SplitMix-style mixing).
pub fn digest(fields: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &f in fields {
        h ^= f;
        h = h.wrapping_mul(0x1000_0000_01b3);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
    }
    h
}

/// The simulated PKI: per-node signing secrets derived from a master seed.
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    secrets: Vec<u64>,
}

impl KeyRegistry {
    /// Keys for a population of `n` nodes.
    pub fn new(n: usize, master_seed: u64) -> Self {
        let mut rng = DetRng::new(master_seed).fork(0x5167_u64);
        KeyRegistry {
            secrets: (0..n).map(|_| rng.next_u64_raw()).collect(),
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// True when no keys exist.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Sign `msg_digest` as `signer`.
    pub fn sign(&self, signer: NodeId, msg_digest: u64) -> Signature {
        Signature(digest(&[self.secrets[signer.index()], msg_digest]))
    }

    /// Verify that `sig` is `signer`'s signature over `msg_digest`.
    pub fn verify(&self, signer: NodeId, msg_digest: u64, sig: Signature) -> bool {
        if signer.index() >= self.secrets.len() {
            return false;
        }
        self.sign(signer, msg_digest) == sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = KeyRegistry::new(4, 42);
        let d = digest(&[1, 2, 3]);
        let sig = reg.sign(NodeId(2), d);
        assert!(reg.verify(NodeId(2), d, sig));
    }

    #[test]
    fn wrong_signer_fails() {
        let reg = KeyRegistry::new(4, 42);
        let d = digest(&[1, 2, 3]);
        let sig = reg.sign(NodeId(2), d);
        assert!(!reg.verify(NodeId(1), d, sig));
    }

    #[test]
    fn tampered_message_fails() {
        let reg = KeyRegistry::new(4, 42);
        let d = digest(&[1, 2, 3]);
        let sig = reg.sign(NodeId(2), d);
        let tampered = digest(&[1, 2, 4]);
        assert!(!reg.verify(NodeId(2), tampered, sig));
    }

    #[test]
    fn out_of_range_signer_fails_verification() {
        let reg = KeyRegistry::new(2, 42);
        assert!(!reg.verify(NodeId(9), 123, Signature(123)));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }

    #[test]
    fn registries_differ_by_master_seed() {
        let a = KeyRegistry::new(3, 1);
        let b = KeyRegistry::new(3, 2);
        let d = digest(&[7]);
        assert_ne!(a.sign(NodeId(0), d), b.sign(NodeId(0), d));
        // Same seed reproduces the same keys.
        let a2 = KeyRegistry::new(3, 1);
        assert_eq!(a.sign(NodeId(0), d), a2.sign(NodeId(0), d));
    }
}
