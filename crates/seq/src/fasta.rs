//! Minimal FASTA / FASTQ-lite reading and writing.
//!
//! The examples and benchmark harness persist synthetic datasets as
//! standard FASTA so they can be inspected with ordinary bio tooling.
//! The "FASTQ-lite" variant carries the quality track the Lucy-style
//! trimmer needs.

use crate::dna::DnaSeq;
use crate::quality::QualityTrack;
use std::io::{self, BufRead, Write};

/// Largest phred value representable in phred+33 ASCII (`'~'` = 126).
/// Both directions clamp to this, so write→read is `min(q, MAX)` and
/// parsed records always round-trip exactly.
pub const MAX_FASTQ_QUAL: u8 = 126 - 33;

/// One FASTA record: a header line (without `>`) and a sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FastaRecord {
    /// Header text following `>`.
    pub header: String,
    /// The sequence.
    pub seq: DnaSeq,
}

/// One FASTQ record: header, sequence, and per-base quality.
#[derive(Debug, Clone, PartialEq)]
pub struct FastqRecord {
    /// Header text following `@`.
    pub header: String,
    /// The sequence.
    pub seq: DnaSeq,
    /// Phred qualities, one per base.
    pub qual: QualityTrack,
}

/// Read all FASTA records from a reader.
pub fn read_fasta<R: BufRead>(reader: R) -> io::Result<Vec<FastaRecord>> {
    let mut records = Vec::new();
    let mut header: Option<String> = None;
    let mut seq = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let line = line.trim_end();
        if let Some(h) = line.strip_prefix('>') {
            if let Some(prev) = header.take() {
                records.push(FastaRecord { header: prev, seq: DnaSeq::from_ascii(&seq) });
                seq.clear();
            }
            header = Some(h.to_string());
        } else if header.is_some() {
            seq.extend_from_slice(line.as_bytes());
        } else if !line.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sequence data before first FASTA header",
            ));
        }
    }
    if let Some(prev) = header.take() {
        records.push(FastaRecord { header: prev, seq: DnaSeq::from_ascii(&seq) });
    }
    Ok(records)
}

/// Write FASTA records, wrapping sequence lines at `width` characters.
pub fn write_fasta<W: Write>(mut w: W, records: &[FastaRecord], width: usize) -> io::Result<()> {
    let width = width.max(1);
    for r in records {
        writeln!(w, ">{}", r.header)?;
        let ascii = r.seq.to_ascii();
        for chunk in ascii.chunks(width) {
            w.write_all(chunk)?;
            w.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Read FASTQ records (strict 4-line form). Lines end in `\n` or
/// `\r\n`; blank lines between records are skipped; every line must be
/// UTF-8. Lines are read as bytes into buffers reused from record to
/// record, so a record allocates only what it keeps.
pub fn read_fastq<R: BufRead>(mut reader: R) -> io::Result<Vec<FastqRecord>> {
    let mut records = Vec::new();
    let (mut head, mut seq, mut plus, mut qual) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while next_line(&mut reader, &mut head)? {
        let head = utf8(&head)?;
        if head.trim().is_empty() {
            continue;
        }
        let header = head
            .strip_prefix('@')
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "FASTQ record must start with @"))?
            .to_string();
        let eof = |what: &str| io::Error::new(io::ErrorKind::UnexpectedEof, format!("missing {what} line"));
        if !next_line(&mut reader, &mut seq)? {
            return Err(eof("sequence"));
        }
        utf8(&seq)?;
        if !next_line(&mut reader, &mut plus)? {
            return Err(eof("+"));
        }
        if !utf8(&plus)?.starts_with('+') {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "expected + separator"));
        }
        if !next_line(&mut reader, &mut qual)? {
            return Err(eof("quality"));
        }
        utf8(&qual)?;
        if qual.len() != seq.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "quality/sequence length mismatch"));
        }
        let qual = QualityTrack::from_values(
            qual.iter().map(|b| b.saturating_sub(33).min(MAX_FASTQ_QUAL)).collect(),
        );
        records.push(FastqRecord { header, seq: DnaSeq::from_ascii(&seq), qual });
    }
    Ok(records)
}

/// Read the next line into `buf` without its `\n`, or `\r\n`, as
/// [`BufRead::lines`] yields it; false at the end of the input.
fn next_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(true)
}

/// The line as text: the error [`BufRead::lines`] gives a line that is not
/// UTF-8.
fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8"))
}

/// Write FASTQ records (phred+33).
pub fn write_fastq<W: Write>(mut w: W, records: &[FastqRecord]) -> io::Result<()> {
    for r in records {
        writeln!(w, "@{}", r.header)?;
        w.write_all(&r.seq.to_ascii())?;
        w.write_all(b"\n+\n")?;
        let q: Vec<u8> = r.qual.values().iter().map(|&v| v.min(MAX_FASTQ_QUAL) + 33).collect();
        w.write_all(&q)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fasta_roundtrip() {
        let records = vec![
            FastaRecord { header: "frag1 test".into(), seq: DnaSeq::from("ACGTACGTACGT") },
            FastaRecord { header: "frag2".into(), seq: DnaSeq::from("GG") },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 5).unwrap();
        let back = read_fasta(Cursor::new(buf)).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn fasta_multiline_sequences() {
        let text = ">a\nACG\nTAC\n>b\nGG\n";
        let recs = read_fasta(Cursor::new(text)).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq.to_ascii(), b"ACGTAC");
        assert_eq!(recs[1].header, "b");
    }

    #[test]
    fn fasta_rejects_headerless_data() {
        assert!(read_fasta(Cursor::new("ACGT\n")).is_err());
    }

    #[test]
    fn fastq_roundtrip() {
        let records = vec![FastqRecord {
            header: "r1".into(),
            seq: DnaSeq::from("ACGT"),
            qual: QualityTrack::from_values(vec![30, 31, 32, 33]),
        }];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        let back = read_fastq(Cursor::new(buf)).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn fastq_quality_round_trip_full_u8_range() {
        // Exhaustive property over every u8 quality value: one write +
        // read clamps to the representable phred+33 range, and a second
        // pass is the identity — qualities ≥ 94 used to come back as 93
        // from an unclamped parse while the writer had clamped, breaking
        // symmetry.
        let records: Vec<FastqRecord> = (0u16..=255)
            .map(|q| FastqRecord {
                header: format!("q{q}"),
                seq: DnaSeq::from("ACGT"),
                qual: QualityTrack::uniform(4, q as u8),
            })
            .collect();
        let mut buf = Vec::new();
        write_fastq(&mut buf, &records).unwrap();
        let once = read_fastq(Cursor::new(&buf)).unwrap();
        for (rec, q) in once.iter().zip(0u16..=255) {
            let expect = (q as u8).min(MAX_FASTQ_QUAL);
            assert!(rec.qual.values().iter().all(|&v| v == expect), "q={q} read back {:?}", rec.qual);
        }
        // Parsed records are inside the representable range, so a second
        // round-trip is exact.
        let mut buf2 = Vec::new();
        write_fastq(&mut buf2, &once).unwrap();
        let twice = read_fastq(Cursor::new(&buf2)).unwrap();
        assert_eq!(twice, once);
    }

    #[test]
    fn fastq_length_mismatch_rejected() {
        let text = "@r\nACGT\n+\n!!\n";
        assert!(read_fastq(Cursor::new(text)).is_err());
    }

    #[test]
    fn fastq_missing_plus_rejected() {
        let text = "@r\nACGT\nXXXX\n!!!!\n";
        assert!(read_fastq(Cursor::new(text)).is_err());
    }

    fn fastq_error(bytes: &[u8]) -> (io::ErrorKind, String) {
        let err = read_fastq(Cursor::new(bytes)).expect_err("malformed input");
        (err.kind(), err.to_string())
    }

    #[test]
    fn fastq_header_without_at_rejected() {
        let (kind, msg) = fastq_error(b">r\nACGT\n+\nIIII\n");
        assert_eq!((kind, msg.as_str()), (io::ErrorKind::InvalidData, "FASTQ record must start with @"));
        // Also after a good record.
        assert_eq!(fastq_error(b"@r\nA\n+\nI\nr2\nA\n+\nI\n").0, io::ErrorKind::InvalidData);
    }

    #[test]
    fn fastq_truncated_record_rejected_at_its_missing_line() {
        for (text, line) in [
            (&b"@r\n"[..], "missing sequence line"),
            (b"@r\nACGT\n", "missing + line"),
            (b"@r\nACGT\n+\n", "missing quality line"),
            (b"@r\nACGT\n+\nIIII\n@s\nAC", "missing + line"),
        ] {
            assert_eq!(fastq_error(text), (io::ErrorKind::UnexpectedEof, line.to_string()), "{text:?}");
        }
    }

    #[test]
    fn fastq_non_utf8_lines_rejected() {
        let invalid = (io::ErrorKind::InvalidData, "stream did not contain valid UTF-8".to_string());
        assert_eq!(fastq_error(b"@r\xff\nACGT\n+\nIIII\n"), invalid, "header");
        assert_eq!(fastq_error(b"@r\nAC\xc3T\n+\nIIII\n"), invalid, "sequence");
        assert_eq!(fastq_error(b"@r\nACGT\n+\nII\xfeI\n"), invalid, "quality");
    }

    #[test]
    fn fastq_crlf_and_blank_lines_parse_as_plain_records() {
        let plain = read_fastq(Cursor::new("@r1 x\nACGT\n+\nIIII\n@r2\nGG\n+r2\n!~\n")).unwrap();
        let crlf =
            read_fastq(Cursor::new("\n  \r\n@r1 x\r\nACGT\r\n+\r\nIIII\r\n\r\n@r2\nGG\n+r2\r\n!~")).unwrap();
        assert_eq!(crlf, plain);
        assert_eq!(plain[0].header, "r1 x");
        assert_eq!(plain[1].qual.values(), [0, MAX_FASTQ_QUAL]);
    }

    #[test]
    fn fastq_arbitrary_bytes_are_an_error_or_records_never_a_panic() {
        // Bytes drawn mostly from the FASTQ alphabet, so that many inputs
        // get deep into a record before they break.
        let alphabet = b"@+\n\r ACGTN!I~\xff\xc3";
        let mut state = 1u64;
        for len in 0..400 {
            let bytes: Vec<u8> = (0..len % 40)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    alphabet[(state >> 33) as usize % alphabet.len()]
                })
                .collect();
            if let Ok(records) = read_fastq(Cursor::new(&bytes)) {
                assert!(records.iter().all(|r| r.seq.len() == r.qual.len()), "{bytes:?}");
            }
        }
    }
}
