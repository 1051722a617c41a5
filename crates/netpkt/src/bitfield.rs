//! Bit-granular field access over byte buffers.
//!
//! All network headers in this workspace are described *dynamically* (an rP4
//! program defines its headers at runtime), so header fields are read and
//! written by bit offset and bit width rather than through typed structs.
//! Bits are numbered MSB-first within the buffer, matching network byte
//! order: bit 0 is the most-significant bit of byte 0.
//!
//! Values are carried as `u128`, wide enough for the largest field we need
//! (an IPv6 address, 128 bits).
//!
//! Every executor reads and writes header fields through [`get_bits`] and
//! [`set_bits`], so they are the per-packet field kernel. A field whose
//! span (its offset within the first byte plus its width) fits 64 bits is
//! read with one big-endian load of the fixed 8-byte window that starts at
//! its first byte, then a shift and a mask; a span up to 128 bits uses a
//! 16-byte window the same way. A write is the same load, a masked merge
//! and one store. Only when the window would run past the buffer's end
//! (a field in the last bytes of a packet, or an unaligned field wider
//! than 120 bits) does the access fall back to the tail path, a loop that
//! moves one byte's share of the field per step.

/// Maximum supported field width in bits.
pub const MAX_FIELD_BITS: usize = 128;

/// Errors produced by bitfield accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitfieldError {
    /// The requested bit range extends past the end of the buffer.
    OutOfRange {
        /// First bit of the requested range.
        bit_off: usize,
        /// Width of the requested range.
        bit_len: usize,
        /// Buffer length in bytes.
        buf_len: usize,
    },
    /// The requested width is zero or exceeds [`MAX_FIELD_BITS`].
    BadWidth(usize),
    /// The value does not fit in the requested width.
    ValueTooWide {
        /// Value that was being written.
        value: u128,
        /// Width it had to fit in.
        bit_len: usize,
    },
}

impl std::fmt::Display for BitfieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitfieldError::OutOfRange {
                bit_off,
                bit_len,
                buf_len,
            } => write!(
                f,
                "bit range [{bit_off}, {bit_off}+{bit_len}) out of range for {buf_len}-byte buffer"
            ),
            BitfieldError::BadWidth(w) => write!(f, "unsupported field width {w} bits"),
            BitfieldError::ValueTooWide { value, bit_len } => {
                write!(f, "value {value:#x} does not fit in {bit_len} bits")
            }
        }
    }
}

impl std::error::Error for BitfieldError {}

fn check(data: &[u8], bit_off: usize, bit_len: usize) -> Result<(), BitfieldError> {
    if bit_len == 0 || bit_len > MAX_FIELD_BITS {
        return Err(BitfieldError::BadWidth(bit_len));
    }
    let end = bit_off
        .checked_add(bit_len)
        .ok_or(BitfieldError::BadWidth(bit_len))?;
    if end > data.len() * 8 {
        return Err(BitfieldError::OutOfRange {
            bit_off,
            bit_len,
            buf_len: data.len(),
        });
    }
    Ok(())
}

/// Reads `bit_len` bits starting at `bit_off` (MSB-first) as an unsigned
/// integer.
pub fn get_bits(data: &[u8], bit_off: usize, bit_len: usize) -> Result<u128, BitfieldError> {
    check(data, bit_off, bit_len)?;
    let i = bit_off / 8;
    let s = bit_off % 8;
    if s + bit_len <= 64 {
        if let Some(w) = data.get(i..i + 8) {
            let w = u64::from_be_bytes(w.try_into().expect("8-byte window"));
            return Ok(((w << s) >> (64 - bit_len)) as u128);
        }
    } else if s + bit_len <= 128 {
        if let Some(w) = data.get(i..i + 16) {
            let w = u128::from_be_bytes(w.try_into().expect("16-byte window"));
            return Ok((w << s) >> (128 - bit_len));
        }
    }
    Ok(get_bits_tail(data, bit_off, bit_len))
}

/// The tail path of [`get_bits`]: a span whose window would overrun the
/// buffer, read one byte's share at a time. The span is already checked.
fn get_bits_tail(data: &[u8], bit_off: usize, bit_len: usize) -> u128 {
    let mut acc: u128 = 0;
    let mut bit = bit_off;
    let end = bit_off + bit_len;
    while bit < end {
        let byte = bit / 8;
        let bit_in_byte = bit % 8;
        // Number of bits we can take from this byte in one go.
        let take = (8 - bit_in_byte).min(end - bit);
        let shift = 8 - bit_in_byte - take;
        let mask = ((1u16 << take) - 1) as u8;
        let chunk = (data[byte] >> shift) & mask;
        acc = (acc << take) | chunk as u128;
        bit += take;
    }
    acc
}

/// Writes the low `bit_len` bits of `value` at `bit_off` (MSB-first).
///
/// Fails if `value` has bits set above `bit_len`.
pub fn set_bits(
    data: &mut [u8],
    bit_off: usize,
    bit_len: usize,
    value: u128,
) -> Result<(), BitfieldError> {
    check(data, bit_off, bit_len)?;
    if bit_len < 128 && value >> bit_len != 0 {
        return Err(BitfieldError::ValueTooWide { value, bit_len });
    }
    let i = bit_off / 8;
    let span = bit_off % 8 + bit_len;
    if span <= 64 {
        if let Some(w) = data.get_mut(i..i + 8) {
            let w: &mut [u8; 8] = w.try_into().expect("8-byte window");
            let shift = 64 - span;
            let mask = (u64::MAX >> (64 - bit_len)) << shift;
            let old = u64::from_be_bytes(*w);
            *w = ((old & !mask) | ((value as u64) << shift)).to_be_bytes();
            return Ok(());
        }
    } else if span <= 128 {
        if let Some(w) = data.get_mut(i..i + 16) {
            let w: &mut [u8; 16] = w.try_into().expect("16-byte window");
            let shift = 128 - span;
            let mask = (u128::MAX >> (128 - bit_len)) << shift;
            let old = u128::from_be_bytes(*w);
            *w = ((old & !mask) | (value << shift)).to_be_bytes();
            return Ok(());
        }
    }
    set_bits_tail(data, bit_off, bit_len, value);
    Ok(())
}

/// The tail path of [`set_bits`]: a span whose window would overrun the
/// buffer, written one byte's share at a time. The span and the value's
/// width are already checked.
fn set_bits_tail(data: &mut [u8], bit_off: usize, bit_len: usize, value: u128) {
    let mut bit = bit_off;
    let end = bit_off + bit_len;
    let mut remaining = bit_len;
    while bit < end {
        let byte = bit / 8;
        let bit_in_byte = bit % 8;
        let take = (8 - bit_in_byte).min(end - bit);
        let shift = 8 - bit_in_byte - take;
        let mask = (((1u16 << take) - 1) as u8) << shift;
        let chunk = ((value >> (remaining - take)) as u8) & (((1u16 << take) - 1) as u8);
        data[byte] = (data[byte] & !mask) | (chunk << shift);
        bit += take;
        remaining -= take;
    }
}

/// Truncates `value` to `bit_len` bits (wrapping semantics used by the
/// action VM for arithmetic results).
pub fn truncate_to_width(value: u128, bit_len: usize) -> u128 {
    if bit_len >= 128 {
        value
    } else {
        value & ((1u128 << bit_len) - 1)
    }
}

/// Returns a mask with the low `bit_len` bits set.
pub fn width_mask(bit_len: usize) -> u128 {
    truncate_to_width(u128::MAX, bit_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_aligned_roundtrip() {
        let mut buf = [0u8; 8];
        set_bits(&mut buf, 0, 16, 0xBEEF).unwrap();
        assert_eq!(buf[0], 0xBE);
        assert_eq!(buf[1], 0xEF);
        assert_eq!(get_bits(&buf, 0, 16).unwrap(), 0xBEEF);
    }

    #[test]
    fn unaligned_nibble_fields() {
        // IPv4 version/ihl style: two 4-bit fields in one byte.
        let mut buf = [0u8; 1];
        set_bits(&mut buf, 0, 4, 4).unwrap();
        set_bits(&mut buf, 4, 4, 5).unwrap();
        assert_eq!(buf[0], 0x45);
        assert_eq!(get_bits(&buf, 0, 4).unwrap(), 4);
        assert_eq!(get_bits(&buf, 4, 4).unwrap(), 5);
    }

    #[test]
    fn field_spanning_bytes() {
        // IPv6 flow label: 20 bits starting at bit 12.
        let mut buf = [0u8; 4];
        set_bits(&mut buf, 12, 20, 0xABCDE).unwrap();
        assert_eq!(get_bits(&buf, 12, 20).unwrap(), 0xABCDE);
        // The leading 12 bits must be untouched.
        assert_eq!(get_bits(&buf, 0, 12).unwrap(), 0);
    }

    #[test]
    fn full_width_128() {
        let mut buf = [0u8; 16];
        let v = u128::MAX - 12345;
        set_bits(&mut buf, 0, 128, v).unwrap();
        assert_eq!(get_bits(&buf, 0, 128).unwrap(), v);
    }

    #[test]
    fn out_of_range_detected() {
        let buf = [0u8; 2];
        assert!(matches!(
            get_bits(&buf, 10, 8),
            Err(BitfieldError::OutOfRange { .. })
        ));
        let mut buf = [0u8; 2];
        assert!(matches!(
            set_bits(&mut buf, 0, 17, 0),
            Err(BitfieldError::OutOfRange { .. })
        ));
    }

    #[test]
    fn zero_and_oversize_width_rejected() {
        let buf = [0u8; 4];
        assert!(matches!(
            get_bits(&buf, 0, 0),
            Err(BitfieldError::BadWidth(0))
        ));
        assert!(matches!(
            get_bits(&buf, 0, 129),
            Err(BitfieldError::BadWidth(129))
        ));
    }

    #[test]
    fn value_too_wide_rejected() {
        let mut buf = [0u8; 4];
        assert!(matches!(
            set_bits(&mut buf, 0, 4, 16),
            Err(BitfieldError::ValueTooWide { .. })
        ));
    }

    #[test]
    fn neighbours_untouched() {
        let mut buf = [0xFFu8; 4];
        set_bits(&mut buf, 8, 8, 0).unwrap();
        assert_eq!(buf, [0xFF, 0x00, 0xFF, 0xFF]);
    }

    #[test]
    fn truncate_and_mask() {
        assert_eq!(truncate_to_width(0x1FF, 8), 0xFF);
        assert_eq!(truncate_to_width(u128::MAX, 128), u128::MAX);
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(48), 0xFFFF_FFFF_FFFF);
    }
}
