//! What the checkpoint suites share.

/// `bytes` with the header's version word, which follows the magic, set to
/// `version`. The header carries no checksum, so this is a blob of any
/// version, as far as the version check can tell.
pub fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let (at, word) = (rvs_checkpoint::MAGIC.len(), version.to_le_bytes());
    let mut bytes = bytes.to_vec();
    bytes[at..at + word.len()].copy_from_slice(&word);
    bytes
}
