//! Shared plumbing: the one copy of each pure helper the rest of the
//! workspace hashes, mixes and serializes with.
//!
//! These have nothing to do with grid geometry; they live here because
//! `rbcast-grid` is the only crate every other crate already depends
//! on, so one definition is reachable everywhere without a new package.
//! Everything in this module is a pure function of its arguments: the
//! FNV-1a digests, seeds and JSONL bytes built from it are compared
//! across engines, thread counts, resume points and transports.

/// FNV-1a offset basis — the initial value of every digest in the
/// workspace (trace hashes, datagram checksums, journal fingerprints).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a accumulator, one xor-multiply per byte.
/// Start from [`FNV_OFFSET`] for a fresh digest.
#[inline]
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The splitmix64 finalizer: a bijective avalanche mix on one word.
#[inline]
#[must_use]
pub const fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One splitmix64 generator step: advance the state by the golden
/// gamma, then finalize — the form stateless `(seed, counter)` draws
/// chain.
#[inline]
#[must_use]
pub const fn splitmix64_step(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Escapes a string for embedding in a JSON string literal: `"`, `\`,
/// `\n`, `\r`, `\t` by their short forms, any other control character
/// below `0x20` as `\u00XX`.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The text a [`json_escape`]d string literal holds; `None` at any
/// escape `json_escape` never writes.
#[must_use]
pub fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(if c == '\\' {
            match chars.next()? {
                '"' => '"',
                '\\' => '\\',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let (hex, rest) = chars.as_str().split_at_checked(4)?;
                    chars = rest.chars();
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            }
        } else {
            c
        });
    }
    Some(out)
}

/// Extracts the raw token following `"key":` on one line of the strict
/// machine JSON this workspace writes — a quoted string's contents up
/// to its first unescaped `"` (still escaped: see [`json_unescape`]),
/// or a bare literal (number / bool) up to the next `,` or `}`. The
/// first occurrence wins and nothing is allocated: the workspace's one
/// field scanner, for lines whose writer is known, not a JSON parser.
#[inline]
#[must_use]
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.match_indices(key).find_map(|(at, _)| {
        let value = line[at + key.len()..].strip_prefix("\":")?;
        line[..at].ends_with('"').then_some(value)
    })?;
    if let Some(quoted) = rest.strip_prefix('"') {
        let mut escaped = false;
        let end = quoted.bytes().position(|b| {
            let close = b == b'"' && !escaped;
            escaped = b == b'\\' && !escaped;
            close
        })?;
        Some(&quoted[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// [`json_field`] parsed as an unsigned integer.
#[inline]
#[must_use]
pub fn json_field_u64(line: &str, key: &str) -> Option<u64> {
    json_field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // Test vectors from the FNV reference distribution (64-bit 1a).
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding is incremental.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn splitmix64_step_matches_the_reference_generator() {
        // First three outputs of the reference splitmix64 seeded with 0:
        // the state advances by the gamma, the output is its finalizer.
        let gamma = 0x9E37_79B9_7F4A_7C15u64;
        assert_eq!(splitmix64_step(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64_step(gamma), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(
            splitmix64_step(gamma.wrapping_mul(2)),
            0x06C4_5D18_8009_454F
        );
        assert_eq!(splitmix64(0), 0, "the bare finalizer fixes zero");
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(
            json_escape("a\"b\\c\nd\u{1}e\tf\rg\u{7f}é"),
            "a\\\"b\\\\c\\nd\\u0001e\\tf\\rg\u{7f}é"
        );
    }

    #[test]
    fn json_unescape_inverts_json_escape_and_nothing_else() {
        for text in ["", "plain", "a\"b\\c\nd\u{1}e\tf\rg\u{7f}é\u{1f}", "\\\"\\"] {
            assert_eq!(json_unescape(&json_escape(text)).as_deref(), Some(text));
        }
        for bad in ["\\", "\\q", "\\u00", "\\u00zz", "\\ud800"] {
            assert_eq!(json_unescape(bad), None, "{bad}");
        }
        // A quoted field ends at its first unescaped quote.
        let line = format!("{{\"error\":\"{}\",\"n\":1}}", json_escape("say \"hi\" \\"));
        assert_eq!(json_field(&line, "error"), Some("say \\\"hi\\\" \\\\"));
        assert_eq!(json_field_u64(&line, "n"), Some(1));
    }

    #[test]
    fn json_field_reads_quoted_and_bare_values() {
        let line = "{\"ev\":\"round_end\",\"round\":12,\"decided\":3,\"frozen\":true}";
        assert_eq!(json_field(line, "ev"), Some("round_end"));
        assert_eq!(json_field(line, "frozen"), Some("true"));
        assert_eq!(json_field_u64(line, "round"), Some(12));
        assert_eq!(json_field_u64(line, "decided"), Some(3));
        assert_eq!(json_field_u64(line, "ev"), None);
        assert_eq!(json_field(line, "missing"), None);
        // Nested objects, as the net journal writes them.
        let nested = "{\"frame\":{\"peer\":4,\"pe\":1,\"seq\":12,\"body\":\"0a0b\"}}";
        assert_eq!(json_field_u64(nested, "peer"), Some(4));
        assert_eq!(json_field_u64(nested, "pe"), Some(1));
        assert_eq!(json_field_u64(nested, "seq"), Some(12));
        assert_eq!(json_field(nested, "body"), Some("0a0b"));
        // A key must be a whole quoted key, not a suffix or a value.
        assert_eq!(json_field_u64("{\"xpe\":7,\"pe\":2}", "pe"), Some(2));
        assert_eq!(json_field("{\"a\":\"pe\",\"pe\":5}", "pe"), Some("5"));
        // Torn and malformed tails are `None`, never a panic.
        assert_eq!(json_field("{\"body\":\"0a", "body"), None);
        assert_eq!(json_field_u64("{\"seq\":}", "seq"), None);
        assert_eq!(json_field_u64("{\"seq\":1x}", "seq"), None);
        assert_eq!(json_field("{\"seq\"", "seq"), None);
    }
}
