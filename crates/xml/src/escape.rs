//! Entity escaping and unescaping for XML text and attribute values.

use std::borrow::Cow;

/// Escapes a string for use as XML element text (`&`, `<`, `>`, and `\r`,
/// which a conforming parser would otherwise normalize to `\n` on read,
/// corrupting round-trips through external tools such as PDI).
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape(s, false)
}

/// Escapes a string for use inside a double-quoted XML attribute value
/// (`&`, `<`, `>`, `"`, and newline, which must survive round-trips).
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape(s, true)
}

const IN_TEXT: u8 = 1;
const IN_ATTR: u8 = 2;

/// The reference a byte is written as, and where: in element text and
/// attribute values, or in attribute values only. Every such byte is ASCII,
/// so scanning bytes never splits a character.
const fn reference(b: u8) -> Option<(&'static str, u8)> {
    Some(match b {
        b'&' => ("&amp;", IN_TEXT | IN_ATTR),
        b'<' => ("&lt;", IN_TEXT | IN_ATTR),
        b'>' => ("&gt;", IN_TEXT | IN_ATTR),
        // Bare CR in element text is normalized to LF by conforming
        // parsers (XML 1.0 §2.11); the character reference survives.
        b'\r' => ("&#13;", IN_TEXT | IN_ATTR),
        b'"' => ("&quot;", IN_ATTR),
        b'\n' => ("&#10;", IN_ATTR),
        b'\t' => ("&#9;", IN_ATTR),
        _ => return None,
    })
}

/// [`reference`]'s contexts per byte, for the scan.
static ESCAPED_IN: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < table.len() {
        if let Some((_, contexts)) = reference(b as u8) {
            table[b] = contexts;
        }
        b += 1;
    }
    table
};

/// Appends `s` to `out`, escaped for element text or for an attribute value.
pub(crate) fn escape_into(out: &mut String, s: &str, attr: bool) {
    let context = if attr { IN_ATTR } else { IN_TEXT };
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| ESCAPED_IN[usize::from(b)] & context != 0) {
        out.push_str(&rest[..i]);
        if let Some((reference, _)) = reference(rest.as_bytes()[i]) {
            out.push_str(reference);
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn escape(s: &str, attr: bool) -> Cow<'_, str> {
    let context = if attr { IN_ATTR } else { IN_TEXT };
    if !s.bytes().any(|b| ESCAPED_IN[usize::from(b)] & context != 0) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(&mut out, s, attr);
    Cow::Owned(out)
}

/// Resolves the five predefined XML entities plus decimal/hexadecimal
/// character references. Unknown entities are left verbatim (forgiving mode,
/// matching how the original Quarry SAX pipeline treated template output).
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some(end) = s[i..].find(';').map(|e| i + e) {
                let entity = &s[i + 1..end];
                if let Some(resolved) = resolve_entity(entity) {
                    out.push(resolved);
                    i = end + 1;
                    continue;
                }
            }
        }
        // Advance one full UTF-8 character.
        let ch_len = utf8_len(bytes[i]);
        out.push_str(&s[i..i + ch_len]);
        i += ch_len;
    }
    Cow::Owned(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn resolve_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let code = if let Some(hex) = entity.strip_prefix("#x").or_else(|| entity.strip_prefix("#X")) {
                u32::from_str_radix(hex, 16).ok()?
            } else if let Some(dec) = entity.strip_prefix('#') {
                dec.parse::<u32>().ok()?
            } else {
                return None;
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_is_borrowed() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(unescape("hello world"), Cow::Borrowed(_)));
    }

    #[test]
    fn escapes_special_characters_in_text() {
        assert_eq!(escape_text("a < b && c > d"), "a &lt; b &amp;&amp; c &gt; d");
    }

    #[test]
    fn escapes_quotes_only_in_attributes() {
        assert_eq!(escape_text(r#"say "hi""#), r#"say "hi""#);
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
    }

    #[test]
    fn attribute_whitespace_is_preserved_via_char_refs() {
        assert_eq!(escape_attr("a\nb\tc"), "a&#10;b&#9;c");
        assert_eq!(unescape("a&#10;b&#9;c"), "a\nb\tc");
    }

    #[test]
    fn unescapes_predefined_entities() {
        assert_eq!(unescape("&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;"), "<x> & \"y\" 'z'");
    }

    #[test]
    fn unescapes_numeric_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
        assert_eq!(unescape("&#x20AC;"), "\u{20AC}");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(unescape("&nbsp; &foo;"), "&nbsp; &foo;");
    }

    #[test]
    fn dangling_ampersand_passes_through() {
        assert_eq!(unescape("fish & chips"), "fish & chips");
        assert_eq!(unescape("tail&"), "tail&");
    }

    #[test]
    fn multibyte_text_survives() {
        assert_eq!(unescape("caf\u{e9} &amp; th\u{e9}"), "caf\u{e9} & th\u{e9}");
        assert_eq!(escape_text("père & fils"), "père &amp; fils");
    }

    #[test]
    fn roundtrip_escape_unescape() {
        for s in ["", "a", "<<<>>>&&&", "\"mixed\" & 'quoted'", "né <tag> & done"] {
            assert_eq!(unescape(&escape_attr(s)), s, "attr roundtrip for {s:?}");
            assert_eq!(unescape(&escape_text(s)), s, "text roundtrip for {s:?}");
        }
    }

    #[test]
    fn carriage_return_survives_text_roundtrip() {
        // A conforming external parser normalizes any literal `\r` or
        // `\r\n` in element text to `\n`, so the writer must never emit a
        // bare CR: it goes out as a character reference in text too.
        assert_eq!(escape_text("a\rb"), "a&#13;b");
        assert_eq!(escape_text("a\r\nb"), "a&#13;\nb");
        for s in ["\r", "a\rb", "line\r\nline", "\r\r\n\r"] {
            let escaped = escape_text(s);
            assert!(!escaped.contains('\r'), "no bare CR in {escaped:?}");
            assert_eq!(unescape(&escaped), s, "text roundtrip for {s:?}");
            assert_eq!(unescape(&escape_attr(s)), s, "attr roundtrip for {s:?}");
        }
    }
}
