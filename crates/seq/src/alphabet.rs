//! The DNA alphabet Σ = {A, C, G, T} and its byte encoding.
//!
//! Bases are stored as small integer *codes*: `A = 0`, `C = 1`, `G = 2`,
//! `T = 3`. Code [`MASK`] (= 4) marks bases hidden by repeat masking or
//! vector screening; a masked position never matches anything (not even
//! another masked position) in exact-match contexts, which is how the
//! paper prevents characterised repeats from inducing spurious overlaps.

/// Number of real nucleotide codes (|Σ| = 4).
pub const SIGMA: usize = 4;

/// Code for a masked base (repeat-masked or quality-trimmed interior).
pub const MASK: u8 = 4;

/// A strongly-typed nucleotide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code 0).
    A = 0,
    /// Cytosine (code 1).
    C = 1,
    /// Guanine (code 2).
    G = 2,
    /// Thymine (code 3).
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// The Watson–Crick complement (A↔T, C↔G).
    #[inline]
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::T => Base::A,
        }
    }

    /// Numeric code of this base (0..4).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parse an ASCII nucleotide (case-insensitive). `None` for anything
    /// that is not `ACGTacgt`.
    #[inline]
    pub fn from_ascii(b: u8) -> Option<Base> {
        match b {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Upper-case ASCII letter for this base.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }
}

/// Is `code` one of the four real nucleotide codes?
#[inline]
pub fn is_base_code(code: u8) -> bool {
    code < SIGMA as u8
}

/// Complement of a code; [`MASK`] complements to itself so that
/// reverse-complementing a masked fragment keeps the masked region masked.
///
/// # Panics
/// Panics in debug builds if `code` is not a valid code (0..=4).
#[inline]
pub fn complement_code(code: u8) -> u8 {
    debug_assert!(code <= MASK, "invalid base code {code}");
    if code < SIGMA as u8 {
        3 - code
    } else {
        MASK
    }
}

/// ASCII rendering of a code; masked bases render as `'X'` following the
/// paper's "masked with special symbols" convention.
#[inline]
pub fn code_to_ascii(code: u8) -> u8 {
    match code {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        3 => b'T',
        _ => b'X',
    }
}

/// Parse an ASCII character to a code: `ACGT` → 0..4, everything else
/// (including `N` ambiguity codes and `X`) → [`MASK`].
#[inline]
pub fn ascii_to_code(b: u8) -> u8 {
    match Base::from_ascii(b) {
        Some(base) => base.code(),
        None => MASK,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
        assert_eq!(Base::G.complement(), Base::C);
        assert_eq!(Base::T.complement(), Base::A);
    }

    #[test]
    fn ascii_roundtrip() {
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn mask_complements_to_mask() {
        assert_eq!(complement_code(MASK), MASK);
        assert_eq!(complement_code(0), 3);
        assert_eq!(complement_code(1), 2);
    }

    #[test]
    fn ascii_mapping() {
        assert_eq!(ascii_to_code(b'A'), 0);
        assert_eq!(ascii_to_code(b'g'), 2);
        assert_eq!(ascii_to_code(b'N'), MASK);
        assert_eq!(ascii_to_code(b'X'), MASK);
        assert_eq!(code_to_ascii(MASK), b'X');
        assert_eq!(code_to_ascii(3), b'T');
    }

    #[test]
    fn is_base_code_bounds() {
        for c in 0..4u8 {
            assert!(is_base_code(c));
        }
        assert!(!is_base_code(MASK));
        assert!(!is_base_code(200));
    }
}
