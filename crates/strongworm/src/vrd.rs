//! Virtual records and their descriptors (Table 1).
//!
//! A *virtual record* (VR) groups data records that fall under the same
//! regulation and must be handled together; the *virtual record
//! descriptor* (VRD) is its securely issued identity: serial number,
//! attributes, the physical record descriptor list (RDL), and the two SCPU
//! signatures `metasig` and `datasig`.

use wormcrypt::ChainHash;
use wormstore::RecordDescriptor;

use crate::attr::RecordAttributes;
use crate::sn::SerialNumber;
use crate::witness::Witness;

/// Virtual record descriptor — one row of the VRDT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vrd {
    /// SCPU-issued, system-wide unique serial number.
    pub sn: SerialNumber,
    /// WORM attributes (covered by `metasig`).
    pub attr: RecordAttributes,
    /// Record descriptor list: physical locations of the VR's data
    /// records, in order (covered by `datasig` via the chained data hash).
    pub rdl: Vec<RecordDescriptor>,
    /// SCPU witness over `(SN, attr)`.
    pub metasig: Witness,
    /// SCPU witness over `(SN, Hash(data))`.
    pub datasig: Witness,
}

impl Vrd {
    /// Total payload size of the VR in bytes.
    pub fn data_len(&self) -> u64 {
        self.rdl.iter().map(|rd| rd.len).sum()
    }

    /// Number of data records grouped in this VR.
    pub fn record_count(&self) -> usize {
        self.rdl.len()
    }

    /// Whether either witness still awaits SCPU strengthening.
    pub fn needs_strengthening(&self) -> bool {
        self.metasig.needs_strengthening() || self.datasig.needs_strengthening()
    }
}

/// Computes the chained hash of an ordered record list — the `Hash(data)`
/// that `datasig` covers (Table 1).
pub fn data_chain_hash<'a, I>(records: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    ChainHash::digest_records(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Regulation;
    use crate::witness::Signature;
    use scpu::Timestamp;
    use wormstore::{RecordId, Shredder};

    fn witness() -> Witness {
        Witness::Strong(Signature {
            key_id: [0; 8],
            bytes: vec![1],
        })
    }

    fn vrd() -> Vrd {
        Vrd {
            sn: SerialNumber(1),
            attr: RecordAttributes {
                created_at: Timestamp::from_millis(0),
                retention_until: Timestamp::from_millis(1000),
                regulation: Regulation::Custom,
                shredder: Shredder::ZeroFill,
                litigation_hold: None,
                flags: 0,
            },
            rdl: vec![
                RecordDescriptor {
                    id: RecordId(1),
                    offset: 0,
                    len: 100,
                },
                RecordDescriptor {
                    id: RecordId(2),
                    offset: 100,
                    len: 28,
                },
            ],
            metasig: witness(),
            datasig: witness(),
        }
    }

    #[test]
    fn size_accessors() {
        let v = vrd();
        assert_eq!(v.data_len(), 128);
        assert_eq!(v.record_count(), 2);
        assert!(!v.needs_strengthening());
    }

    #[test]
    fn strengthening_flag() {
        let mut v = vrd();
        v.datasig = Witness::Mac { tag: vec![0; 32] };
        assert!(v.needs_strengthening());
    }

    #[test]
    fn chain_hash_is_order_sensitive() {
        let a = data_chain_hash([b"one".as_slice(), b"two".as_slice()]);
        let b = data_chain_hash([b"two".as_slice(), b"one".as_slice()]);
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }
}
