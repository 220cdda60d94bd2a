//! Bit-real software implementations of the functions the SmartNIC
//! accelerators compute (§2.2.3 / Table 3): SHA-1, AES-CTR and CRC-32.
//!
//! Applications built on iPipe (e.g. the IPSec gateway of §5.7) call these to
//! produce *real* ciphertext and digests, while the [`crate::accel`] catalogue
//! supplies the invocation *timing* of the hardware engines. Keeping results
//! real lets the test suite check end-to-end integrity (decrypt(encrypt(x)) ==
//! x, digest test vectors) independent of the timing model.
//!
//! These are straightforward reference implementations — clarity over speed —
//! which is also what a firmware fallback path would look like.

pub mod aes;
pub mod crc;
pub mod sha1;

pub use crc::crc32;
pub use sha1::sha1;
