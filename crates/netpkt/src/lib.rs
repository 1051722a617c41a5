//! # ipsa-netpkt — packet & header substrate
//!
//! The lowest layer of the rP4/IPSA reproduction: bit-granular field access,
//! *dynamic* header types (programs define their protocols at runtime), the
//! mutable header-linkage graph driving distributed on-demand parsing,
//! packet buffers with memoized parse state, checksums, well-formed packet
//! builders, and seeded traffic generators for the evaluation workloads.
//!
//! Nothing here knows about TSPs, tables, or compilers — those live in
//! `ipsa-core` and above.

#![warn(missing_docs)]

pub mod arena;
pub mod bitfield;
pub mod builder;
pub mod checksum;
pub mod header;
pub mod intern;
pub mod linkage;
pub mod packet;
pub mod protocols;
pub mod traffic;

pub use header::{FieldDef, HeaderType, ImplicitParser, ParserTransition};
pub use intern::Sym;
pub use linkage::HeaderLinkage;
pub use packet::{Metadata, Packet, PacketError, ParsedHeader};

#[cfg(test)]
mod proptests {
    use crate::bitfield::{get_bits, set_bits};
    use crate::builder::{self, Ipv4UdpSpec};
    use crate::checksum;
    use crate::linkage::HeaderLinkage;
    use proptest::prelude::*;

    /// Bit-at-a-time field access with its own bounds and width checks:
    /// the reference the bitfield kernel is held to.
    mod reference {
        use crate::bitfield::{BitfieldError, MAX_FIELD_BITS};

        fn check(data: &[u8], bit_off: usize, bit_len: usize) -> Result<(), BitfieldError> {
            if bit_len == 0 || bit_len > MAX_FIELD_BITS {
                Err(BitfieldError::BadWidth(bit_len))
            } else if bit_off + bit_len > data.len() * 8 {
                Err(BitfieldError::OutOfRange {
                    bit_off,
                    bit_len,
                    buf_len: data.len(),
                })
            } else {
                Ok(())
            }
        }

        pub fn get(data: &[u8], bit_off: usize, bit_len: usize) -> Result<u128, BitfieldError> {
            check(data, bit_off, bit_len)?;
            Ok((bit_off..bit_off + bit_len).fold(0, |acc, b| {
                (acc << 1) | ((data[b / 8] >> (7 - b % 8)) & 1) as u128
            }))
        }

        pub fn set(
            data: &mut [u8],
            bit_off: usize,
            bit_len: usize,
            value: u128,
        ) -> Result<(), BitfieldError> {
            check(data, bit_off, bit_len)?;
            if bit_len < 128 && value >> bit_len != 0 {
                return Err(BitfieldError::ValueTooWide { value, bit_len });
            }
            for i in 0..bit_len {
                let b = bit_off + i;
                let bit = ((value >> (bit_len - 1 - i)) & 1) as u8;
                let mask = 0x80 >> (b % 8);
                data[b / 8] = (data[b / 8] & !mask) | (bit * mask);
            }
            Ok(())
        }
    }

    proptest! {
        /// set_bits/get_bits roundtrip for arbitrary in-range spans.
        #[test]
        fn bitfield_roundtrip(
            bit_off in 0usize..64,
            bit_len in 1usize..=128,
            value in any::<u128>(),
            fill in any::<u8>(),
        ) {
            let mut buf = vec![fill; 32];
            let value = crate::bitfield::truncate_to_width(value, bit_len);
            set_bits(&mut buf, bit_off, bit_len, value).unwrap();
            prop_assert_eq!(get_bits(&buf, bit_off, bit_len).unwrap(), value);
        }

        /// Writes never disturb bits outside the target span.
        #[test]
        fn bitfield_write_is_local(
            bit_off in 0usize..100,
            bit_len in 1usize..=128,
            value in any::<u128>(),
        ) {
            let mut buf = vec![0xA5u8; 32];
            let orig = buf.clone();
            let value = crate::bitfield::truncate_to_width(value, bit_len);
            set_bits(&mut buf, bit_off, bit_len, value).unwrap();
            for bit in 0..(buf.len() * 8) {
                if bit < bit_off || bit >= bit_off + bit_len {
                    prop_assert_eq!(
                        get_bits(&buf, bit, 1).unwrap(),
                        get_bits(&orig, bit, 1).unwrap(),
                        "bit {} disturbed", bit
                    );
                }
            }
        }

        /// `get_bits`/`set_bits` agree with a one-bit-at-a-time reference,
        /// errors included, on buffers of 1-40 bytes. Half the spans end at
        /// the buffer's end or up to 2 bits past it, so the window loads,
        /// the per-byte tail path and every `OutOfRange` boundary all run;
        /// widths 0 and 129-130 and values wider than the field run too.
        #[test]
        fn bitfield_matches_bit_reference(
            buf in proptest::collection::vec(any::<u8>(), 1..=40),
            bit_len in 0usize..=130,
            at_end in any::<bool>(),
            overrun in 0usize..3,
            off in 0usize..336,
            value in any::<u128>(),
            too_wide in any::<bool>(),
        ) {
            let nbits = buf.len() * 8;
            let bit_off = if at_end {
                (nbits + overrun).saturating_sub(bit_len)
            } else {
                off % (nbits + 16)
            };
            let value = if too_wide {
                value
            } else {
                crate::bitfield::truncate_to_width(value, bit_len.max(1))
            };
            prop_assert_eq!(
                get_bits(&buf, bit_off, bit_len),
                reference::get(&buf, bit_off, bit_len)
            );
            let (mut got, mut want) = (buf.clone(), buf);
            prop_assert_eq!(
                set_bits(&mut got, bit_off, bit_len, value),
                reference::set(&mut want, bit_off, bit_len, value)
            );
            prop_assert_eq!(got, want);
        }

        /// Incremental checksum update equals full recomputation for any
        /// single-word change anywhere in the IPv4 header.
        #[test]
        fn checksum_incremental_equals_full(
            word_idx in 0usize..10,
            new_word in any::<u16>(),
            src in any::<u32>(),
            dst in any::<u32>(),
            ttl in 1u8..,
        ) {
            // Skip the checksum word itself (index 5).
            prop_assume!(word_idx != 5);
            let p = builder::ipv4_udp_packet(&Ipv4UdpSpec {
                src_ip: src, dst_ip: dst, ttl, ..Ipv4UdpSpec::default()
            });
            let mut hdr: Vec<u8> = p.data[14..34].to_vec();
            let c0 = u16::from_be_bytes([hdr[10], hdr[11]]);
            let old = u16::from_be_bytes([hdr[2 * word_idx], hdr[2 * word_idx + 1]]);
            hdr[2 * word_idx..2 * word_idx + 2].copy_from_slice(&new_word.to_be_bytes());
            let inc = checksum::incremental_update(c0, old, new_word);
            let full = checksum::ipv4_header_checksum(&hdr);
            prop_assert_eq!(inc, full);
        }

        /// Parse memoization: probing for any sequence of headers never
        /// extracts a header twice (extraction count is bounded by the
        /// number of headers in the packet).
        #[test]
        fn parse_once_invariant(probes in proptest::collection::vec(0usize..5, 1..20)) {
            let names = ["ethernet", "ipv4", "udp", "ipv6", "tcp"];
            let linkage = HeaderLinkage::standard();
            let mut p = builder::ipv4_udp_packet(&Ipv4UdpSpec::default());
            for i in probes {
                let _ = p.ensure_parsed(&linkage, names[i]).unwrap();
            }
            // The v4 packet contains exactly 3 parsable headers.
            prop_assert!(p.parse_extractions <= 3);
        }

        /// Any generated IPv4 packet carries a valid checksum.
        #[test]
        fn built_packets_have_valid_checksums(src in any::<u32>(), dst in any::<u32>()) {
            let p = builder::ipv4_udp_packet(&Ipv4UdpSpec {
                src_ip: src, dst_ip: dst, ..Ipv4UdpSpec::default()
            });
            prop_assert!(checksum::ipv4_checksum_ok(&p.data[14..34]));
        }
    }
}
